package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// kind names one traced call site at a layer boundary.
type kind uint8

const (
	kIsend kind = iota
	kIrecv
	kWait
	kWaitReady
	kIallreduce
	kCollWait
	kTCPPost
	kTCPPoll
	kTCPFlush
	kTCPDrain
	kShmPost
	kShmPoll
	kShmFlush
	kShmDrain
	kShmNap
	kCompPost
	kCompPoll
	kCompFlush
	kCompDrain
	kCompNap
	kEncode
	kDecode
	numKinds
)

var kindInfo = [numKinds]struct{ name, layer string }{
	kIsend:      {"Isend", "mpi"},
	kIrecv:      {"Irecv", "mpi"},
	kWait:       {"Wait", "mpi"},
	kWaitReady:  {"Wait.complete", "mpi"},
	kIallreduce: {"Iallreduce", "coll"},
	kCollWait:   {"Iallreduce.Wait", "coll"},
	kTCPPost:    {"PostSend", "transport/tcp"},
	kTCPPoll:    {"PollRecv", "transport/tcp"},
	kTCPFlush:   {"Flush", "transport/tcp"},
	kTCPDrain:   {"Drain", "transport/tcp"},
	kShmPost:    {"PostSend", "transport/shm"},
	kShmPoll:    {"PollRecv", "transport/shm"},
	kShmFlush:   {"Flush", "transport/shm"},
	kShmDrain:   {"Drain", "transport/shm"},
	kShmNap:     {"Nap", "transport/shm"},
	kCompPost:   {"PostSend", "transport/composite"},
	kCompPoll:   {"PollRecv", "transport/composite"},
	kCompFlush:  {"Flush", "transport/composite"},
	kCompDrain:  {"Drain", "transport/composite"},
	kCompNap:    {"Nap", "transport/composite"},
	kEncode:     {"Encode", "codec"},
	kDecode:     {"Decode", "codec"},
}

// kindAgg accumulates every span of one kind recorded while the
// recorder is active.
type kindAgg struct {
	useful uint64 // calls that reported progress (PollRecv, Flush)
	total  int64  // summed duration, ns
	self   int64  // summed self time, ns
	dur    Hist
	selfH  Hist
}

func (a *kindAgg) merge(o *kindAgg) {
	a.useful += o.useful
	a.total += o.total
	a.self += o.self
	a.dur.Merge(&o.dur)
	a.selfH.Merge(&o.selfH)
}

// span is one recorded call for the Chrome trace.
type span struct {
	k          kind
	start, end int64 // ns since the recorder's origin
	parent     int32 // index in the same lane, -1 for none
}

// frame is an open span on a rank's stack.
type frame struct {
	k      kind
	start  int64
	child  int64 // time covered by child spans
	idx    int32 // index in the lane's span list, -1 when not kept
	active bool  // begun while the recorder was active
}

// lane is one rank's span state. Only the rank's own goroutine touches
// it, so it needs no lock; g is read by transport goroutines too.
type lane struct {
	g     atomic.Uintptr
	depth int
	stack [16]frame
	agg   [numKinds]kindAgg
	spans []span
}

// Recorder keeps traced spans in memory. Each rank's open span is the
// parent of the link and codec calls made on its goroutine; codec calls
// from transport goroutines (tcp reactor and pool, shm doorbell) are
// background spans with no parent. Aggregates cover every span begun
// while the recorder is active; individual spans for the Chrome trace
// are kept only while keeping is on, up to a fixed cap.
type Recorder struct {
	origin time.Time
	active atomic.Bool
	keep   atomic.Bool
	lanes  []*lane

	bgMu    sync.Mutex
	bgAgg   [numKinds]kindAgg
	bgSpans []span
}

// maxKeptSpans bounds the spans kept per lane for the Chrome trace.
const maxKeptSpans = 20000

// NewRecorder returns a recorder for the given number of ranks.
func NewRecorder(ranks int) *Recorder {
	r := &Recorder{origin: time.Now(), lanes: make([]*lane, ranks)}
	for i := range r.lanes {
		r.lanes[i] = &lane{}
	}
	return r
}

func (r *Recorder) now() int64 { return int64(time.Since(r.origin)) }

// SetActive turns aggregation on or off.
func (r *Recorder) SetActive(on bool) { r.active.Store(on) }

// SetKeep turns keeping of individual spans on or off.
func (r *Recorder) SetKeep(on bool) { r.keep.Store(on) }

// Begin opens a span on rank's goroutine.
func (r *Recorder) Begin(rank int, k kind) {
	l := r.lanes[rank]
	f := &l.stack[l.depth]
	l.depth++
	f.k, f.child, f.idx = k, 0, -1
	f.active = r.active.Load()
	f.start = r.now()
	if f.active && r.keep.Load() && len(l.spans) < maxKeptSpans {
		parent := int32(-1)
		if l.depth > 1 {
			parent = l.stack[l.depth-2].idx
		}
		f.idx = int32(len(l.spans))
		l.spans = append(l.spans, span{k: k, start: f.start, parent: parent})
	}
}

// End closes rank's innermost span; useful marks a call that reported
// progress.
func (r *Recorder) End(rank int, useful bool) {
	end := r.now()
	l := r.lanes[rank]
	l.depth--
	f := &l.stack[l.depth]
	d := end - f.start
	if l.depth > 0 {
		l.stack[l.depth-1].child += d
	}
	if !f.active {
		return
	}
	if f.idx >= 0 {
		l.spans[f.idx].end = end
	}
	k := f.k
	if k == kWait && f.child == 0 {
		// The request was complete on entry: no progress pass ran.
		k = kWaitReady
	}
	a := &l.agg[k]
	self := d - f.child
	if useful {
		a.useful++
	}
	a.total += d
	a.self += self
	a.dur.Observe(d)
	a.selfH.Observe(self)
}

// BindRank records the calling goroutine as rank's goroutine.
func (r *Recorder) BindRank(rank int) { r.lanes[rank].g.Store(curG()) }

// onRank reports whether the caller runs on rank's goroutine.
func (r *Recorder) onRank(rank int) bool {
	return haveCurG && curG() == r.lanes[rank].g.Load()
}

// background records a span from a transport goroutine.
func (r *Recorder) background(k kind, start, end int64) {
	if !r.active.Load() {
		return
	}
	d := end - start
	r.bgMu.Lock()
	a := &r.bgAgg[k]
	a.total += d
	a.self += d
	a.dur.Observe(d)
	a.selfH.Observe(d)
	if r.keep.Load() && len(r.bgSpans) < maxKeptSpans {
		r.bgSpans = append(r.bgSpans, span{k: k, start: start, end: end, parent: -1})
	}
	r.bgMu.Unlock()
}

// Agg returns the merged aggregate of one kind over all lanes and the
// background. Call after the ranks have stopped.
func (r *Recorder) Agg(k kind) kindAgg {
	var a kindAgg
	for _, l := range r.lanes {
		a.merge(&l.agg[k])
	}
	r.bgMu.Lock()
	a.merge(&r.bgAgg[k])
	r.bgMu.Unlock()
	return a
}

// WriteChromeTrace writes the kept spans in Chrome trace-event format
// (load in Perfetto or chrome://tracing): one thread per rank, one for
// background transport goroutines.
func (r *Recorder) WriteChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	emit := func(tid int, lane []span) {
		for i, s := range lane {
			if s.end == 0 {
				continue // still open when the recorder stopped
			}
			if !first {
				w.WriteString(",\n")
			}
			first = false
			info := kindInfo[s.k]
			fmt.Fprintf(w, `{"name":%q,"cat":%q,"ph":"X","pid":0,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
				info.name, info.layer, tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent)
		}
	}
	for rank, l := range r.lanes {
		emit(rank, l.spans)
	}
	r.bgMu.Lock()
	emit(len(r.lanes), r.bgSpans)
	r.bgMu.Unlock()
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteSelfTimeTable prints one row per traced call site: calls, total
// and self time, self time as a share of the traced wall time, and the
// median duration and self time per call. Rows sort by self time.
func (r *Recorder) WriteSelfTimeTable(w io.Writer, wall time.Duration) {
	type row struct {
		k kind
		a kindAgg
	}
	var rows []row
	for k := kind(0); k < numKinds; k++ {
		if a := r.Agg(k); a.dur.Count() > 0 {
			rows = append(rows, row{k, a})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].a.self > rows[j].a.self })
	fmt.Fprintf(w, "%-20s %-16s %10s %10s %10s %7s %9s %9s\n",
		"layer", "call", "calls", "total_ms", "self_ms", "self_%", "p50_ns", "self_p50")
	for _, x := range rows {
		share := 0.0
		if wall > 0 {
			share = 100 * float64(x.a.self) / float64(wall)
		}
		fmt.Fprintf(w, "%-20s %-16s %10d %10.2f %10.2f %7.2f %9.0f %9.0f\n",
			kindInfo[x.k].layer, kindInfo[x.k].name, x.a.dur.Count(),
			float64(x.a.total)/1e6, float64(x.a.self)/1e6, share,
			x.a.dur.Quantile(0.5), x.a.selfH.Quantile(0.5))
	}
}
