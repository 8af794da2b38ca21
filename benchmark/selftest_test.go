package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// result is the JSON line a run prints last.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// A corrupted payload or reduction input must be caught and counted:
// the run turns incorrect and its error rate rises above zero. On
// bulk-shm the corrupted byte sits in the last chunk of a 1 MiB body.
func TestCorruptionRaisesErrorRate(t *testing.T) {
	for _, name := range []string{"pt2pt-tcp", "bulk-shm", "coll-inproc"} {
		t.Run(name, func(t *testing.T) {
			wl := findWorkload(name)
			for _, corrupt := range []int64{-1, 5} {
				e := &env{seed: 3, seconds: 0.05, corrupt: corrupt, dir: t.TempDir()}
				var r report
				tl, err := e.untraced(wl, &r)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				r.print(&out, tl)
				res := lastResult(t, out.String())
				if corrupt < 0 && (tl.failed != 0 || !res.Correct) {
					t.Errorf("clean run: %d of %d failed, correct=%v", tl.failed, tl.attempted, res.Correct)
				}
				if corrupt >= 0 && (tl.failed == 0 || res.Correct) {
					t.Errorf("corrupted op %d: %d of %d failed, correct=%v", corrupt, tl.failed, tl.attempted, res.Correct)
				}
			}
		})
	}
}

// declared reads the metrics BENCHMARK.json at the repository root
// declares: end-to-end for trace 0, per-layer for trace 1, name → unit.
func declared(t *testing.T) map[int]map[string]string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[int]map[string]string{0: {}, 1: {}}
	for _, x := range spec.EndToEnd {
		out[0][x.Name] = x.Unit
	}
	for _, x := range spec.PerLayer {
		out[1][x.Name] = x.Unit
	}
	return out
}

// A full run of every workload prints exactly the metrics BENCHMARK.json
// declares for its mode, with their units, ends with a correct result,
// and leaves no scratch directory behind.
func TestRunPrintsMetricsAndCleansUp(t *testing.T) {
	want := declared(t)
	for _, w := range workloads {
		for trace, names := range want {
			out := t.TempDir()
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "2", "--seconds", "0.1",
				"--trace", []string{"0", "1"}[trace], "--out", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d: %s", w.name, trace, code, stderr.String())
			}
			res := lastResult(t, stdout.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: %+v", w.name, trace, res)
			}
			for name, unit := range names {
				if got := res.Metrics[name].Unit; got != unit {
					t.Errorf("%s trace %d: metric %s has unit %q, want %q", w.name, trace, name, got, unit)
				}
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace %d: %d metrics printed, %d declared", w.name, trace, len(res.Metrics), len(names))
			}
			left, _ := filepath.Glob(filepath.Join(out, "run-*"))
			if len(left) != 0 {
				t.Errorf("%s trace %d: scratch left behind: %v", w.name, trace, left)
			}
		}
	}
}

// The watchdog dumps every goroutine's stack, prints a failed result
// and removes the scratch directory.
func TestWatchdogFailsTheRun(t *testing.T) {
	dir := t.TempDir()
	scratch := filepath.Join(dir, "run-x")
	if err := os.Mkdir(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := -1
	w := &watchdog{stdout: &stdout, stderr: &stderr, dir: scratch, exit: func(c int) { code = c }}
	w.fire()
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "goroutine ") || !strings.Contains(stderr.String(), "TestWatchdogFailsTheRun") {
		t.Errorf("no goroutine stacks in the log:\n%s", stderr.String())
	}
	if res := lastResult(t, stdout.String()); res.Correct || res.Failed < 1 {
		t.Errorf("watchdog result %+v, want a failed run", res)
	}
	if _, err := os.Stat(scratch); !os.IsNotExist(err) {
		t.Errorf("scratch directory survived: %v", err)
	}
	if w.finish(func() int { return 0 }) == 0 {
		t.Error("finish printed a result after the watchdog fired")
	}
}
