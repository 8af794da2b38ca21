package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gompix/internal/core"
	"gompix/internal/metrics"
	"gompix/internal/transport/shm"
	"gompix/internal/transport/tcp"
	"gompix/mpix"
)

// ranks is the number of ranks of every workload: one goroutine each,
// so the load never needs more busy threads than a 2-CPU host has.
const ranks = 2

// warmupRounds are run before the timed region, so dials, lazy
// allocations and caches settle first.
const warmupRounds = 1

// setupReps is how many times a run sets the workload up from scratch
// for setup_s, in up to setupBatches batches spread over the run (see
// passes); setup_s is the median of these and of the timed passes' own
// set-ups. One more set-up before them is not counted: it pays the
// process's one-time costs.
const (
	setupReps    = 200
	setupBatches = 10
)

// tagCtrl carries rank 0's continue-or-stop byte after every round.
const tagCtrl = 9000

// job is one set-up instance of a workload: its worlds, plus the raw
// transports and the registry whose counters the traced pass reads.
type job struct {
	worlds  []*mpix.World // one in-process world, or one world per rank
	tcps    []*tcp.Network
	shms    []*shm.Network
	reg     *metrics.Registry
	streams [ranks]atomic.Pointer[core.Stream]
}

// run executes fn on every rank, one goroutine each, and waits for all
// of them to return and finalize. A panicking rank becomes the error.
func (j *job) run(fn func(p *mpix.Proc)) error {
	errs := make([]any, len(j.worlds))
	var wg sync.WaitGroup
	for i, w := range j.worlds {
		wg.Add(1)
		go func(i int, w *mpix.World) {
			defer wg.Done()
			defer func() { errs[i] = recover() }()
			w.Run(fn)
		}(i, w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return fmt.Errorf("%v", e)
		}
	}
	return nil
}

// rankCtx is one rank's view while a workload runs. Its call helpers
// open a span around each MPI call in the traced pass and cost one nil
// check otherwise.
type rankCtx struct {
	p    *mpix.Proc
	comm *mpix.Comm
	rank int
	rec  *Recorder
	tally
}

// tally counts one rank's checked operations. Each rank owns its own,
// summed after the ranks stop.
type tally struct {
	attempted, failed int64
}

// add sums u into t.
func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
}

// check counts one checked operation and whether it was correct.
func (t *tally) check(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (x *rankCtx) isend(buf []byte, dst, tag int) *mpix.Request {
	if x.rec == nil {
		return x.comm.IsendBytes(buf, dst, tag)
	}
	x.rec.Begin(x.rank, kIsend)
	r := x.comm.IsendBytes(buf, dst, tag)
	x.rec.End(x.rank, false)
	return r
}

func (x *rankCtx) irecv(buf []byte, src, tag int) *mpix.Request {
	if x.rec == nil {
		return x.comm.IrecvBytes(buf, src, tag)
	}
	x.rec.Begin(x.rank, kIrecv)
	r := x.comm.IrecvBytes(buf, src, tag)
	x.rec.End(x.rank, false)
	return r
}

func (x *rankCtx) wait(r *mpix.Request) mpix.Status {
	if x.rec == nil {
		return r.Wait()
	}
	x.rec.Begin(x.rank, kWait)
	st := r.Wait()
	x.rec.End(x.rank, false)
	return st
}

func (x *rankCtx) iallreduce(c *mpix.Comm, send, recv []byte, count int) *mpix.Request {
	if x.rec == nil {
		return c.Iallreduce(send, recv, count, mpix.Float64, mpix.OpSum)
	}
	x.rec.Begin(x.rank, kIallreduce)
	r := c.Iallreduce(send, recv, count, mpix.Float64, mpix.OpSum)
	x.rec.End(x.rank, false)
	return r
}

func (x *rankCtx) collWait(r *mpix.Request) mpix.Status {
	if x.rec == nil {
		return r.Wait()
	}
	x.rec.Begin(x.rank, kCollWait)
	st := r.Wait()
	x.rec.End(x.rank, false)
	return st
}

// state is one workload's per-run data: the seeded inputs, and the
// samples the timed rounds collect.
type state interface {
	// rank prepares one rank's buffers and returns its round: one
	// slice of every phase, with fixed operation counts both ranks
	// agree on. timed says whether the round's samples count.
	rank(x *rankCtx) func(timed bool)
	// opsPerRound is the number of operations one round completes.
	opsPerRound() int
	// bytesPerRound is the payload one round moves.
	bytesPerRound() int64
	// report adds the end-to-end metrics of the timed rounds.
	report(r *report)
}

// workload is one benchmark workload.
type workload struct {
	name string
	// build sets the ranks' worlds up; with rec non-nil it installs the
	// timing wrappers and an enabled metrics registry.
	build    func(e *env, rec *Recorder) (*job, error)
	newState func(e *env) state
}

// pass is one set-up instance run to its end: setup time, the timed
// region, and counter snapshots at its edges.
type pass struct {
	setup      time.Duration
	rounds     int
	region     time.Duration
	start, end snapshot
	tally      tally
}

// limits bound a pass: it stops after the first round that ends past
// the time budget, or after maxRounds timed rounds (0 for no limit).
type limits struct {
	budget    time.Duration
	maxRounds int
}

// measure sets the workload up once and runs rounds until lim says
// stop. The ranks agree on stopping through a control message rank 0
// sends after every round.
func (e *env) measure(wl *workload, st state, rec *Recorder, lim limits) (*pass, error) {
	t0 := time.Now()
	j, err := wl.build(e, rec)
	if err != nil {
		return nil, err
	}
	ps := &pass{}
	var tallies [ranks]tally
	var setupEnd [ranks]time.Time
	err = j.run(func(p *mpix.Proc) {
		x := &rankCtx{p: p, comm: p.CommWorld(), rank: p.Rank(), rec: rec}
		j.streams[x.rank].Store(p.NullStream())
		if rec != nil {
			rec.BindRank(x.rank)
		}
		x.comm.Barrier()
		setupEnd[x.rank] = time.Now()
		round := st.rank(x)
		ctrl := []byte{0}
		var deadline, regionStart time.Time
		for r := 0; ; r++ {
			timed := r >= warmupRounds
			if timed && r == warmupRounds && x.rank == 0 {
				regionStart = time.Now()
				deadline = regionStart.Add(lim.budget)
				ps.start = takeSnapshot(j)
				if rec != nil {
					rec.SetActive(true)
					rec.SetKeep(true)
				}
			}
			round(timed)
			if x.rank == 0 {
				if timed {
					ps.rounds++
					if rec != nil {
						rec.SetKeep(false) // the Chrome trace covers the first timed round
					}
				}
				more := !timed || (time.Now().Before(deadline) && (lim.maxRounds == 0 || ps.rounds < lim.maxRounds))
				if !more {
					ps.region = time.Since(regionStart)
					if rec != nil {
						rec.SetActive(false)
					}
					ps.end = takeSnapshot(j)
					ctrl[0] = 0
				} else {
					ctrl[0] = 1
				}
				x.comm.SendBytes(ctrl, 1, tagCtrl)
				if !more {
					break
				}
			} else {
				x.comm.RecvBytes(ctrl, 0, tagCtrl)
				if ctrl[0] == 0 {
					break
				}
			}
		}
		tallies[x.rank] = x.tally
	})
	if err != nil {
		return nil, err
	}
	ps.setup = setupEnd[0].Sub(t0)
	if d := setupEnd[1].Sub(t0); d > ps.setup {
		ps.setup = d
	}
	for _, t := range tallies {
		ps.tally.add(t)
	}
	return ps, nil
}

// setupOnce sets the workload up, runs it to the end of its first
// Barrier, tears it down, and returns the time to that Barrier's end.
func (e *env) setupOnce(wl *workload) (time.Duration, error) {
	t0 := time.Now()
	j, err := wl.build(e, nil)
	if err != nil {
		return 0, err
	}
	var end [ranks]time.Time
	err = j.run(func(p *mpix.Proc) {
		p.CommWorld().Barrier()
		end[p.Rank()] = time.Now()
	})
	if err != nil {
		return 0, err
	}
	d := end[0].Sub(t0)
	if d1 := end[1].Sub(t0); d1 > d {
		d = d1
	}
	return d, nil
}

// snapshot is the process-wide and per-layer counters at one instant.
type snapshot struct {
	mallocs uint64
	gcPause uint64
	cpu     cpuTimes
	streams [ranks]core.StreamStats
	tcp     tcp.Stats
	shm     shm.Stats
	reg     metrics.Snapshot
}

func takeSnapshot(j *job) snapshot {
	var s snapshot
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.gcPause = ms.Mallocs, ms.PauseTotalNs
	s.cpu = readCPU()
	for r := range j.streams {
		if st := j.streams[r].Load(); st != nil {
			s.streams[r] = st.Stats()
		}
	}
	for _, n := range j.tcps {
		t := n.Stats()
		s.tcp.ReactorWakeups += t.ReactorWakeups
		s.tcp.PoolDrains += t.PoolDrains
	}
	for _, n := range j.shms {
		t := n.Stats()
		s.shm.TxChunks += t.TxChunks
		s.shm.BellsRung += t.BellsRung
	}
	if j.reg != nil {
		s.reg = j.reg.Snapshot()
	}
	return s
}
