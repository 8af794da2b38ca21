package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"gompix/internal/core"
	"gompix/internal/metrics"
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // sample count behind a percentile or median, 0 if none
}

// report collects one run's output: the metrics of its JSON result
// line (end-to-end for an untraced run, per-layer for a traced one)
// and ungated diagnostics printed above it.
type report struct {
	result []metric
	diags  []metric
}

// add appends a metric of the result line.
func (r *report) add(name string, v float64, unit string) {
	r.result = append(r.result, metric{name: name, value: v, unit: unit})
}

// diag appends a diagnostic line; n is its sample count.
func (r *report) diag(name string, v float64, unit string, n int) {
	r.diags = append(r.diags, metric{name: name, value: v, unit: unit, n: n})
}

// latency adds the per-slice p50 and p90 of a latency phase as result
// metrics, and the pooled p50, p90 and p99 with their sample count as
// diagnostics. A pooled percentile reads NaN when fewer than minTail
// samples lie beyond it.
func (r *report) latency(prefix string, p *Phase) {
	r.add(prefix+"_p50_us", p.P50(), "us")
	r.add(prefix+"_p90_us", p.P90(), "us")
	r.pooled(prefix, p)
}

// pooled adds a phase's pooled percentiles as diagnostics.
func (r *report) pooled(prefix string, p *Phase) {
	for _, q := range []struct {
		name string
		q    float64
	}{{"_pooled_p50_us", 0.5}, {"_pooled_p90_us", 0.9}, {"_pooled_p99_us", 0.99}} {
		v := math.NaN()
		if Reportable(p.All.N(), q.q) {
			v = p.All.Percentile(q.q)
		}
		r.diag(prefix+q.name, v, "us", p.All.N())
	}
	r.diag(prefix+"_slices", float64(p.Slices()), "count", p.Slices())
}

// print writes the human-readable lines and then, last, the JSON
// result line. A metric that could not be measured (NaN) makes the run
// incorrect.
func (r *report) print(w io.Writer, t tally) {
	for _, m := range r.diags {
		fmt.Fprintf(w, "diag %s %.6g %s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]val{}}
	ok := true
	for _, m := range r.result {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(w, "error: metric %s was not measured\n", m.name)
			ok, v = false, 0
		}
		fmt.Fprintf(w, "metric %s %.6g %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = val{v, m.unit}
	}
	if out.Attempted < 1 {
		out.Attempted, ok = 1, false
	}
	out.Correct = ok && t.failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // every value is finite
	}
	fmt.Fprintln(w, string(b))
}

// delta is the change of every counter across one pass's timed region.
type delta struct {
	ops, bytes float64
	mallocs    float64
	gcPause    float64
	user, sys  time.Duration
	calls      float64
	made       float64
	madeBy     [core.NumClasses]float64
	wakeups    float64
	poolDrains float64
	txChunks   float64
	bells      float64
	reg        metrics.Snapshot
}

func newDelta(ps *pass, st state) delta {
	a, b := ps.start, ps.end
	d := delta{
		ops:        float64(ps.rounds * st.opsPerRound()),
		bytes:      float64(int64(ps.rounds) * st.bytesPerRound()),
		mallocs:    float64(b.mallocs - a.mallocs),
		gcPause:    float64(b.gcPause - a.gcPause),
		user:       b.cpu.user - a.cpu.user,
		sys:        b.cpu.sys - a.cpu.sys,
		wakeups:    float64(b.tcp.ReactorWakeups - a.tcp.ReactorWakeups),
		poolDrains: float64(b.tcp.PoolDrains - a.tcp.PoolDrains),
		txChunks:   float64(b.shm.TxChunks - a.shm.TxChunks),
		bells:      float64(b.shm.BellsRung - a.shm.BellsRung),
		reg:        metrics.Diff(a.reg, b.reg),
	}
	for r := range a.streams {
		d.calls += float64(b.streams[r].Calls - a.streams[r].Calls)
		d.made += float64(b.streams[r].Made - a.streams[r].Made)
		for c := range d.madeBy {
			d.madeBy[c] += float64(b.streams[r].MadeByClass[c] - a.streams[r].MadeByClass[c])
		}
	}
	return d
}

// regSum sums every registry counter whose name ends in suffix (one per
// rank and VCI).
func (d *delta) regSum(suffix string) float64 {
	var s float64
	for name, v := range d.reg.Counters {
		if strings.HasSuffix(name, suffix) {
			s += float64(v)
		}
	}
	return s
}

// regHist merges every registry histogram whose name ends in suffix.
func (d *delta) regHist(suffix string) metrics.HistSnapshot {
	var h metrics.HistSnapshot
	for name, x := range d.reg.Hists {
		if strings.HasSuffix(name, suffix) {
			h.Count += x.Count
			h.Sum += x.Sum
			for i := range h.Buckets {
				h.Buckets[i] += x.Buckets[i]
			}
		}
	}
	return h
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of a traced pass. Every
// workload reports all of them; a layer the workload does not exercise
// reads 0.
func layerMetrics(r *report, rec *Recorder, d delta, overhead float64) {
	p50 := func(k kind) float64 { a := rec.Agg(k); return a.dur.Quantile(0.5) }
	self50 := func(ks ...kind) float64 {
		var h Hist
		for _, k := range ks {
			a := rec.Agg(k)
			h.Merge(&a.selfH)
		}
		return h.Quantile(0.5)
	}
	count := func(ks ...kind) float64 {
		var n uint64
		for _, k := range ks {
			a := rec.Agg(k)
			n += a.dur.Count()
		}
		return float64(n)
	}
	perOp := func(v float64) float64 { return ratio(v, d.ops) }

	unexp, posted := d.regSum(".match.unexp.hits"), d.regSum(".match.posted.hits")
	r.add("mpi.isend_ns_p50", p50(kIsend), "ns")
	r.add("mpi.irecv_ns_p50", p50(kIrecv), "ns")
	r.add("mpi.wait_self_ns_p50", self50(kWait), "ns")
	r.add("mpi.match_unexp_share", ratio(unexp, unexp+posted), "ratio")
	r.add("mpi.progress_latency_ns_p50", float64(d.regHist(".req.progress_latency_ns").Quantile(0.5)), "ns")

	r.add("core.passes_per_op", perOp(d.calls), "count")
	r.add("core.useful_pass_ratio", ratio(d.made, d.calls), "ratio")
	r.add("core.cont_passes_per_op", perOp(d.madeBy[core.ClassCont]), "count")
	r.add("core.shmem_passes_per_op", perOp(d.madeBy[core.ClassShmem]), "count")

	r.add("coll.allreduce_init_ns_p50", p50(kIallreduce), "ns")
	r.add("coll.allreduce_wait_ns_p50", p50(kCollWait), "ns")

	r.add("codec.encode_ns_p50", p50(kEncode), "ns")
	r.add("codec.decode_ns_p50", p50(kDecode), "ns")
	r.add("codec.frames_per_op", perOp(count(kEncode)), "count")
	r.add("codec.calls", count(kEncode, kDecode), "count")

	poll := rec.Agg(kTCPPoll)
	r.add("tcp.post_ns_p50", p50(kTCPPost), "ns")
	r.add("tcp.pollrecv_ns_p50", poll.dur.Quantile(0.5), "ns")
	r.add("tcp.pollrecv_useful_ratio", ratio(float64(poll.useful), float64(poll.dur.Count())), "ratio")
	r.add("tcp.flush_ns_p50", p50(kTCPFlush), "ns")
	r.add("tcp.frames_per_flush", d.regHist("tcp.tx.flush_frames").Mean(), "count")
	r.add("tcp.reactor_wakeups_per_op", perOp(d.wakeups), "count")
	r.add("tcp.pool_drains_per_op", perOp(d.poolDrains), "count")
	r.add("tcp.link_calls", count(kTCPPost, kTCPPoll, kTCPFlush, kTCPDrain), "count")

	r.add("shm.post_ns_p50", p50(kShmPost), "ns")
	r.add("shm.pollrecv_ns_p50", p50(kShmPoll), "ns")
	r.add("shm.chunks_per_mib", ratio(d.txChunks, d.bytes/(1<<20)), "count")
	nap := rec.Agg(kShmNap)
	r.add("shm.nap_s_per_op", perOp(float64(nap.total)/1e9), "s")
	r.add("shm.bells_per_op", perOp(d.bells), "count")

	r.add("composite.route_self_ns_p50", self50(kCompPost, kCompPoll, kCompFlush, kCompDrain, kCompNap), "ns")

	// Frames handed to any transport link: the tcp and shm wrappers'
	// posts, plus the simulated NIC's sends in the in-process world.
	r.add("link.frames_per_op", perOp(count(kTCPPost, kShmPost)+d.regSum(".nic.sent")), "count")

	cpu := d.user + d.sys
	r.add("proc.cpu_s_per_op", perOp(cpu.Seconds()), "s")
	r.add("proc.sys_share", ratio(float64(d.sys), float64(cpu)), "ratio")
	r.add("go.gc_pause_ns_per_op", perOp(d.gcPause), "ns")
	r.add("trace.overhead_frac", overhead, "ratio")
}
