// Command benchmark is gompix's end-to-end and per-layer benchmark.
// It runs one closed-loop workload with two ranks in one process, one
// goroutine per rank and no child processes, checks every payload and
// reduction result against its seeded value, and prints one JSON
// result line last.
//
//	go run . --workload pt2pt-tcp --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced with the same rounds, and prints the
// per-layer metrics, writing the spans as a Chrome trace and a
// per-layer self-time table under --out. README.md lists the
// workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// env is one run's configuration.
type env struct {
	seed    uint64
	seconds float64
	corrupt int64  // self-test: index of the op whose input rank 0 corrupts, -1 for none
	dir     string // private directory for shm segments, removed at exit
	epoch   atomic.Uint64
}

// nextEpoch returns a fresh job epoch, shared by both ranks of one
// setup.
func (e *env) nextEpoch() uint64 { return e.epoch.Add(1) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pt2pt-tcp, bulk-shm or coll-inproc")
	seed := fs.Uint64("seed", 1, "seed of the payloads and reduction inputs")
	seconds := fs.Float64("seconds", 10, "seconds of timed rounds")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the run's scratch files and traces")
	spread := fs.Bool("spread", false, "read result lines on stdin and print each metric's median and quartile spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spread {
		return printSpread(os.Stdin, stdout, stderr)
	}
	wl := findWorkload(*name)
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload (pt2pt-tcp, bulk-shm, coll-inproc), --seconds > 0, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, seconds: *seconds, corrupt: -1, dir: dir}
	fmt.Fprintf(stdout, "host %s\n", fingerprint(wl.name, *seed, *trace))

	w := &watchdog{stdout: stdout, stderr: stderr, dir: dir, exit: os.Exit}
	w.timer = time.AfterFunc(deadline(*seconds), w.fire)
	defer w.timer.Stop()

	var r report
	var t tally
	if *trace == 1 {
		t, err = e.traced(wl, &r, *out, stdout)
	} else {
		t, err = e.untraced(wl, &r)
	}
	return w.finish(func() int {
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", wl.name, err)
			return 1
		}
		r.print(stdout, t)
		return 0
	})
}

// deadline bounds one workload run: twice its timed budget plus room
// for set-up, build-up and tear-down, and never past 150 s.
func deadline(seconds float64) time.Duration {
	d := time.Duration((2*seconds + 40) * float64(time.Second))
	if d > 150*time.Second {
		d = 150 * time.Second
	}
	return d
}

// watchdog fails a run that outlives its deadline: it dumps every
// goroutine's stack to the run log, prints a failed result and exits,
// instead of hanging whatever runs the benchmark.
type watchdog struct {
	timer          *time.Timer
	stdout, stderr io.Writer
	dir            string
	exit           func(code int)
	mu             sync.Mutex
	done           bool
}

func (w *watchdog) fire() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return
	}
	w.done = true
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	fmt.Fprintf(w.stderr, "benchmark: run exceeded its deadline; goroutine stacks:\n%s\n", buf)
	fmt.Fprintln(w.stdout, `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`)
	os.RemoveAll(w.dir)
	w.exit(1)
}

// finish runs the result printer unless the watchdog has fired first;
// then the run has already failed and finish returns 1.
func (w *watchdog) finish(print func() int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return 1
	}
	w.done = true
	return print()
}

// untraced measures the end-to-end metrics. It alternates batches of
// set-ups with as many passes of timed rounds, each pass a set-up of
// its own run for an equal share of the run's seconds, so the set-ups
// sample the host over the whole run rather than at one instant of it.
func (e *env) untraced(wl *workload, r *report) (tally, error) {
	if _, err := e.setupOnce(wl); err != nil { // pays the process's one-time costs
		return tally{}, err
	}
	st := wl.newState(e)
	var setups []float64
	var mallocs, ops float64
	var t tally
	rounds := 0
	n := passes(e.seconds)
	for b := 0; b < n; b++ {
		// Each batch starts from a collected heap, so the garbage of
		// the pass before it does not decide when a collection lands.
		runtime.GC()
		for i := 0; i < setupReps/n; i++ {
			d, err := e.setupOnce(wl)
			if err != nil {
				return tally{}, err
			}
			setups = append(setups, d.Seconds())
		}
		ps, err := e.measure(wl, st, nil, limits{budget: secs(e.seconds / float64(n))})
		if err != nil {
			return tally{}, err
		}
		setups = append(setups, ps.setup.Seconds())
		d := newDelta(ps, st)
		mallocs, ops = mallocs+d.mallocs, ops+d.ops
		t.add(ps.tally)
		rounds += ps.rounds
	}
	r.add("setup_s", median(setups), "s")
	r.add("allocs_per_op", ratio(mallocs, ops), "allocs/op")
	st.report(r)
	r.diag("setup_samples", float64(len(setups)), "count", len(setups))
	r.diag("rounds", float64(rounds), "count", rounds)
	r.diag("error_rate", ratio(float64(t.failed), float64(t.attempted)), "ratio", int(t.attempted))
	return t, nil
}

// passes is how many timed passes an untraced run of the given seconds
// makes: setupBatches, or fewer so that no pass is shorter than a
// second, which would spend more time on its set-up and warm-up round
// than on timed rounds.
func passes(seconds float64) int {
	return max(1, min(setupBatches, int(seconds)))
}

// traced measures the per-layer metrics: a third of the run's seconds
// untraced, then the same number of rounds traced (or until the rest
// of the budget is spent), so the two passes give the overhead.
func (e *env) traced(wl *workload, r *report, out string, stdout io.Writer) (tally, error) {
	base, err := e.measure(wl, wl.newState(e), nil, limits{budget: secs(e.seconds / 3)})
	if err != nil {
		return tally{}, err
	}
	rec := NewRecorder(ranks)
	st := wl.newState(e)
	ps, err := e.measure(wl, st, rec, limits{budget: secs(2 * e.seconds / 3), maxRounds: base.rounds})
	if err != nil {
		return tally{}, err
	}
	perRound := func(p *pass) float64 { return p.region.Seconds() / float64(p.rounds) }
	layerMetrics(r, rec, newDelta(ps, st), perRound(ps)/perRound(base)-1)
	r.diag("rounds_untraced", float64(base.rounds), "count", base.rounds)
	r.diag("rounds_traced", float64(ps.rounds), "count", ps.rounds)

	stem := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d", wl.name, e.seed))
	if err := os.MkdirAll(filepath.Dir(stem), 0o755); err != nil {
		return tally{}, err
	}
	if err := rec.WriteChromeTrace(stem + ".json"); err != nil {
		return tally{}, err
	}
	var table strings.Builder
	rec.WriteSelfTimeTable(&table, ps.region)
	if err := os.WriteFile(stem+"-selftime.txt", []byte(table.String()), 0o644); err != nil {
		return tally{}, err
	}
	for _, line := range strings.Split(strings.TrimSpace(table.String()), "\n") {
		fmt.Fprintf(stdout, "selftime %s\n", line)
	}
	fmt.Fprintf(stdout, "trace %s.json\n", stem)
	t := base.tally
	t.add(ps.tally)
	return t, nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// fingerprint describes the host and the run, so a number can be read
// against the machine that produced it.
func fingerprint(workload string, seed uint64, trace int) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_max":    cgroupCPUMax(),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"workload":   workload,
		"seed":       seed,
		"trace":      trace,
		"traffic":    "loopback TCP and shared memory only",
	}
	b, _ := json.Marshal(fp)
	return string(b)
}

// cgroupCPUMax returns the cgroup CPU quota ("max 100000" means none),
// from cgroup v2 or v1.
func cgroupCPUMax() string {
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		return strings.TrimSpace(string(b))
	}
	q, err1 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
	p, err2 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
	if err1 == nil && err2 == nil {
		return strings.TrimSpace(string(q)) + " " + strings.TrimSpace(string(p))
	}
	return "unknown"
}

// printSpread reads result lines (the last line of each run, other
// lines are skipped) and prints, per metric, the run count, the median,
// and the quartile spread as a share of the median.
func printSpread(in io.Reader, stdout, stderr io.Writer) int {
	vals := map[string][]float64{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var res struct {
			Metrics map[string]struct{ Value float64 } `json:"metrics"`
		}
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") || json.Unmarshal([]byte(line), &res) != nil {
			continue
		}
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := vals[k]
		fmt.Fprintf(stdout, "%-32s runs=%-3d median=%-12.6g spread=%.4f\n", k, len(v), median(v), Spread(v))
	}
	return 0
}
