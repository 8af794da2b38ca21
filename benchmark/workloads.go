package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"time"

	"gompix/internal/metrics"
	"gompix/internal/transport"
	"gompix/internal/transport/composite"
	"gompix/internal/transport/shm"
	"gompix/internal/transport/tcp"
	"gompix/mpix"
)

var workloads = []*workload{
	{name: "pt2pt-tcp", build: buildTCP, newState: newPt2pt},
	{name: "bulk-shm", build: buildShm, newState: newBulk},
	{name: "coll-inproc", build: buildInproc, newState: newColl},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Message tags. Each phase has its own, so a phase can never match
// another phase's traffic.
const (
	tagPing = 1 + iota
	tagPong
	tagStream
	tagAck
	tagBulk
)

// Seeded payload streams: pattern(stream, i) is the i-th payload of a
// stream, so both ranks know what every message must carry.
const (
	streamPing uint64 = 1 + iota
	streamPong
	streamStream
	streamAck
	streamBulk
	streamAr8
	streamAr64k
	streamChain
)

// mix is the splitmix64 finalizer over (seed, stream, i).
func mix(seed, stream, i uint64) uint64 {
	z := seed + stream*0x9E3779B97F4A7C15 + i*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func newRegistry(rec *Recorder) *metrics.Registry {
	if rec == nil {
		return nil
	}
	reg := metrics.New()
	reg.Enable()
	return reg
}

func worldOpts(rank int, t transport.Transport, reg *metrics.Registry) []mpix.Option {
	opts := []mpix.Option{mpix.WithRanks(ranks), mpix.WithRank(rank), mpix.WithTransport(t)}
	if reg != nil {
		opts = append(opts, mpix.WithMetrics(reg))
	}
	return opts
}

// newTCPPair starts one loopback TCP network per rank and exchanges
// their listen addresses, the way mpixrun's launcher does for N
// processes.
func newTCPPair(epoch uint64) ([]*tcp.Network, error) {
	nets := make([]*tcp.Network, ranks)
	addrs := make([]string, ranks)
	for r := range nets {
		n, err := tcp.New(tcp.Config{Rank: r, WorldSize: ranks, Epoch: epoch})
		if err != nil {
			for _, m := range nets[:r] {
				m.Close()
			}
			return nil, err
		}
		nets[r], addrs[r] = n, n.Addr()
	}
	for _, n := range nets {
		n.SetPeerAddrs(addrs)
	}
	return nets, nil
}

// buildTCP is pt2pt-tcp: two Worlds, each over its own loopback TCP
// transport. Every world is built before any runs, so no frame can
// reach a world whose codec is not installed yet.
func buildTCP(e *env, rec *Recorder) (*job, error) {
	nets, err := newTCPPair(e.nextEpoch())
	if err != nil {
		return nil, err
	}
	j := &job{tcps: nets, reg: newRegistry(rec)}
	for r, n := range nets {
		var t transport.Transport = n
		if rec != nil {
			t = &tcpNet{inner: n, rec: rec, rank: r, timeCodec: true}
		}
		j.worlds = append(j.worlds, mpix.NewWorld(worldOpts(r, t, j.reg)...))
	}
	return j, nil
}

// buildShm is bulk-shm: two Worlds over composite(shm, tcp) with both
// ranks on node 0, so every frame takes the shm leg. Both ranks share
// one epoch and the run's private directory, or they never meet.
func buildShm(e *env, rec *Recorder) (*job, error) {
	if !shm.Supported() {
		return nil, errors.New("shm transport not supported on this platform")
	}
	epoch := e.nextEpoch()
	nets, err := newTCPPair(epoch)
	if err != nil {
		return nil, err
	}
	j := &job{tcps: nets, reg: newRegistry(rec)}
	fail := func(err error) (*job, error) {
		for _, n := range nets {
			n.Close()
		}
		for _, s := range j.shms {
			s.Close()
		}
		return nil, err
	}
	nodes := make([]int, ranks)
	for r, n := range nets {
		sn, err := shm.New(shm.Config{Rank: r, WorldSize: ranks, Epoch: epoch, Dir: e.dir, Peers: []int{1 - r}})
		if err != nil {
			return fail(err)
		}
		j.shms = append(j.shms, sn)
		var local, remote composite.Leg = sn, n
		if rec != nil {
			local = &shmLeg{inner: sn, rec: rec, rank: r}
			remote = &tcpNet{inner: n, rec: rec, rank: r}
		}
		cn, err := composite.New(composite.Config{Rank: r, WorldSize: ranks, NodeOf: nodes}, local, remote)
		if err != nil {
			return fail(err)
		}
		var t transport.Transport = cn
		if rec != nil {
			t = &compNet{inner: cn, rec: rec, rank: r}
		}
		j.worlds = append(j.worlds, mpix.NewWorld(worldOpts(r, t, j.reg)...))
	}
	return j, nil
}

// buildInproc is coll-inproc: the mpix.NewWorld default, one World
// with both ranks on one node, so traffic takes the in-process shmem
// rings and the simulated fabric stays idle.
func buildInproc(e *env, rec *Recorder) (*job, error) {
	j := &job{reg: newRegistry(rec)}
	opts := []mpix.Option{mpix.WithRanks(ranks)}
	if j.reg != nil {
		opts = append(opts, mpix.WithMetrics(j.reg))
	}
	j.worlds = []*mpix.World{mpix.NewWorld(opts...)}
	return j, nil
}

// pingSlice runs n 8 B round trips, rank 0 first, one message in
// flight, and adds half of each round trip to lat when timed.
// Latency slices hold latSlice round trips: the fewest that report a
// p90, a few milliseconds of pinging.
type pingSlice struct {
	n       int
	seed    uint64
	corrupt int64 // index of the ping rank 0 corrupts, -1 for none
	lat     Phase
}

func (ps *pingSlice) rank(x *rankCtx) func(timed bool) {
	sbuf, rbuf := make([]byte, 8), make([]byte, 8)
	next := uint64(0)
	return func(timed bool) {
		for i := 0; i < ps.n; i++ {
			if x.rank == 0 {
				binary.LittleEndian.PutUint64(sbuf, mix(ps.seed, streamPing, next))
				if int64(next) == ps.corrupt {
					sbuf[3] ^= 0x40
				}
				t := time.Now()
				rr := x.irecv(rbuf, 1, tagPong)
				x.wait(x.isend(sbuf, 1, tagPing))
				st := x.wait(rr)
				d := time.Since(t)
				x.check(st.Err == nil && binary.LittleEndian.Uint64(rbuf) == mix(ps.seed, streamPong, next))
				if timed {
					ps.lat.Add(float64(d) / 2e3)
				}
			} else {
				st := x.wait(x.irecv(rbuf, 0, tagPing))
				x.check(st.Err == nil && binary.LittleEndian.Uint64(rbuf) == mix(ps.seed, streamPing, next))
				binary.LittleEndian.PutUint64(sbuf, mix(ps.seed, streamPong, next))
				x.wait(x.isend(sbuf, 0, tagPong))
			}
			next++
		}
	}
}

const latSlice = 100

func newPingSlice(e *env, n int) pingSlice {
	return pingSlice{n: n, seed: e.seed, corrupt: e.corrupt, lat: Phase{Size: latSlice}}
}

// pt2pt is pt2pt-tcp's state. A round is a ping slice, then a stream
// slice: windows of 64 8 B messages in flight, each window closed by
// a 1 B ack.
type pt2pt struct {
	ping    pingSlice
	windows int
	seed    uint64
	rate    Sample // messages/s per rateWindows windows
	window  Phase  // µs per window
}

const (
	streamWindow = 64
	// rateWindows windows, about half a millisecond, make one slice of
	// the stream rate; windowSlice windows one slice of window times.
	rateWindows = 4
	windowSlice = 20
)

func newPt2pt(e *env) state {
	s := &pt2pt{windows: 200, seed: e.seed, window: Phase{Size: windowSlice}}
	s.ping = newPingSlice(e, 2000)
	return s
}

func (s *pt2pt) opsPerRound() int { return s.ping.n + s.windows*streamWindow }

func (s *pt2pt) bytesPerRound() int64 {
	return int64(s.ping.n*2*8 + s.windows*(streamWindow*8+1))
}

func (s *pt2pt) rank(x *rankCtx) func(timed bool) {
	ping := s.ping.rank(x)
	bufs := make([][]byte, streamWindow)
	for i := range bufs {
		bufs[i] = make([]byte, 8)
	}
	reqs := make([]*mpix.Request, streamWindow)
	ack := make([]byte, 1)
	next, win := uint64(0), uint64(0)
	return func(timed bool) {
		ping(timed)
		mark := time.Now()
		for w := 0; w < s.windows; w++ {
			if x.rank == 0 {
				tw := time.Now()
				ar := x.irecv(ack, 1, tagAck)
				for m := range reqs {
					binary.LittleEndian.PutUint64(bufs[m], mix(s.seed, streamStream, next+uint64(m)))
					reqs[m] = x.isend(bufs[m], 1, tagStream)
				}
				for _, r := range reqs {
					x.wait(r)
				}
				st := x.wait(ar)
				x.check(st.Err == nil && ack[0] == byte(mix(s.seed, streamAck, win)))
				if timed {
					s.window.Add(float64(time.Since(tw)) / 1e3)
					if (w+1)%rateWindows == 0 {
						now := time.Now()
						s.rate.Add(rateWindows * streamWindow / now.Sub(mark).Seconds())
						mark = now
					}
				}
			} else {
				for m := range reqs {
					reqs[m] = x.irecv(bufs[m], 0, tagStream)
				}
				for m, r := range reqs {
					st := x.wait(r)
					x.check(st.Err == nil && binary.LittleEndian.Uint64(bufs[m]) == mix(s.seed, streamStream, next+uint64(m)))
				}
				ack[0] = byte(mix(s.seed, streamAck, win))
				x.wait(x.isend(ack, 0, tagAck))
			}
			next += streamWindow
			win++
		}
	}
}

func (s *pt2pt) report(r *report) {
	r.latency("lat", &s.ping.lat)
	r.add("ops_per_s", s.rate.Median(), "1/s")
	r.add("bulk_p50_us", s.window.P50(), "us")
	r.diag("rate_kmsg_s", s.rate.Median()/1e3, "kmsg/s", s.rate.N())
	r.pooled("window", &s.window)
}

// bulk is bulk-shm's state. A round is a bulk slice — 1 MiB messages,
// 4 in flight, closed by a 1 B ack — then a ping slice on the same
// rings, so a bulk gain that costs small-message latency shows.
//
// Message i carries payload i mod bulkPayloads: an 8 B index, then a
// seeded body. There is one payload more than buffers in flight, so
// every receive buffer next holds a different body than it last did,
// and a chunk that never reaches it fails the check.
type bulk struct {
	msgs    int
	seed    uint64
	corrupt int64 // index of the message whose body rank 0 corrupts, -1 for none
	bodies  [bulkPayloads][]byte
	ping    pingSlice
	rate    Sample // MiB/s per bulk slice
	// msgTime is the receiver's time per message: the time between the
	// completions of messages i-4 and i, over 4. Single gaps between
	// completions alternate short and long as the 4 in flight bunch
	// up, so their median jumps between the two; a window does not.
	msgTime Phase
}

const (
	bulkBytes    = 1 << 20
	bulkDepth    = 4
	bulkPayloads = bulkDepth + 1
	// corruptAt is the byte a self-test flips in a bulk body: in the
	// last pipeline chunk, far from the index.
	corruptAt = bulkBytes - 3
)

func newBulk(e *env) state {
	s := &bulk{msgs: 24, seed: e.seed, corrupt: e.corrupt}
	s.msgTime.Size = s.msgs - bulkDepth // one slice per bulk slice
	for i := range s.bodies {
		b := make([]byte, bulkBytes)
		for k := 8; k < bulkBytes; k += 8 {
			binary.LittleEndian.PutUint64(b[k:], mix(e.seed, streamBulk, uint64(i*bulkBytes+k)))
		}
		s.bodies[i] = b
	}
	// The self-test corrupts a bulk body, so a ping must not be what
	// trips the check; pt2pt-tcp covers the ping check.
	s.ping = newPingSlice(e, 5000)
	s.ping.corrupt = -1
	return s
}

func (s *bulk) opsPerRound() int { return s.msgs + s.ping.n }

func (s *bulk) bytesPerRound() int64 { return int64(s.msgs)*bulkBytes + 1 + int64(s.ping.n*2*8) }

func (s *bulk) rank(x *rankCtx) func(timed bool) {
	ping := s.ping.rank(x)
	var sbufs [bulkPayloads][]byte // rank 0: one per payload
	var rbufs [bulkDepth][]byte    // rank 1: one per message in flight
	if x.rank == 0 {
		for p := range sbufs {
			sbufs[p] = append([]byte(nil), s.bodies[p]...)
		}
	} else {
		for k := range rbufs {
			rbufs[k] = make([]byte, bulkBytes)
		}
	}
	var reqs [bulkDepth]*mpix.Request
	ack := make([]byte, 1)
	next := uint64(0)
	return func(timed bool) {
		t0 := time.Now()
		if x.rank == 0 {
			ar := x.irecv(ack, 1, tagAck)
			for i := 0; i < s.msgs; i++ {
				// Waiting on message i-4 also frees payload buffer
				// (i-5) mod 5, the one message i reuses.
				k, idx := i%bulkDepth, next+uint64(i)
				if reqs[k] != nil {
					x.check(x.wait(reqs[k]).Err == nil)
				}
				b := sbufs[idx%bulkPayloads]
				binary.LittleEndian.PutUint64(b, idx)
				b[corruptAt] = s.bodies[idx%bulkPayloads][corruptAt]
				if int64(idx) == s.corrupt {
					b[corruptAt] ^= 0x40
				}
				reqs[k] = x.isend(b, 1, tagBulk)
			}
			for k, r := range reqs {
				if r != nil {
					x.check(x.wait(r).Err == nil)
					reqs[k] = nil
				}
			}
			st := x.wait(ar)
			x.check(st.Err == nil && ack[0] == byte(mix(s.seed, streamAck, next)))
			if timed {
				s.rate.Add(float64(s.msgs*bulkBytes) / (1 << 20) / time.Since(t0).Seconds())
			}
		} else {
			for i := 0; i < bulkDepth && i < s.msgs; i++ {
				reqs[i] = x.irecv(rbufs[i], 0, tagBulk)
			}
			var done [bulkDepth]time.Time // completion times of the last window
			for i := 0; i < s.msgs; i++ {
				k, idx := i%bulkDepth, next+uint64(i)
				st := x.wait(reqs[k])
				now := time.Now()
				if timed && i >= bulkDepth {
					s.msgTime.Add(float64(now.Sub(done[k])) / 1e3 / bulkDepth)
				}
				done[k] = now
				b := rbufs[k]
				x.check(st.Err == nil && st.Bytes == bulkBytes &&
					binary.LittleEndian.Uint64(b) == idx && bytes.Equal(b[8:], s.bodies[idx%bulkPayloads][8:]))
				reqs[k] = nil
				if i+bulkDepth < s.msgs {
					reqs[k] = x.irecv(b, 0, tagBulk)
				}
			}
			ack[0] = byte(mix(s.seed, streamAck, next))
			x.wait(x.isend(ack, 0, tagAck))
		}
		next += uint64(s.msgs)
		ping(timed)
	}
}

func (s *bulk) report(r *report) {
	r.latency("lat", &s.ping.lat)
	r.add("ops_per_s", s.rate.Median(), "1/s")
	r.add("bulk_p50_us", s.msgTime.P50(), "us")
	r.diag("bw_mib_s", s.rate.Median(), "MiB/s", s.rate.N())
	r.pooled("msg_time", &s.msgTime)
}

// allreduceSet is a seeded Allreduce input with its expected sum. The
// inputs are integers below 2^20, so the float64 sum is exact in any
// reduction order and the result can be compared byte for byte.
type allreduceSet struct {
	in  [ranks][]byte
	sum []byte
}

// inputSets are rotated through, so a stale result buffer never
// passes the check.
const inputSets = 4

func newAllreduceSets(seed, stream uint64, count int) [inputSets]allreduceSet {
	var sets [inputSets]allreduceSet
	for k := range sets {
		sum := make([]float64, count)
		for r := 0; r < ranks; r++ {
			v := make([]float64, count)
			for i := range v {
				v[i] = float64(mix(seed, stream, uint64((k*ranks+r)*count+i)) >> 44)
				sum[i] += v[i]
			}
			sets[k].in[r] = mpix.EncodeFloat64s(v)
		}
		sets[k].sum = mpix.EncodeFloat64s(sum)
	}
	return sets
}

// coll is coll-inproc's state. A round is ar8 (blocking Allreduce of 8
// float64), ar64k (8192 float64), then chains: chainComms Dup'd comms,
// each running a self-re-arming Iallreduce chain from continuation
// callbacks, driven by one progress loop per rank.
type coll struct {
	n8, n64k, chainOps int
	ar8, ar64k         [inputSets]allreduceSet
	chains             [chainComms][inputSets]allreduceSet
	corrupt            int64
	lat8, lat64k       Phase  // µs per Allreduce
	chainRate          Sample // Iallreduce/s per chainSlice completions
}

const (
	chainComms = 8
	chainCount = 8
	// chainSlice completions, about two milliseconds, make one slice of
	// the chain rate; ar64kSlice Allreduces one slice of ar64k times.
	chainSlice = 400
	ar64kSlice = 20
)

func newColl(e *env) state {
	s := &coll{n8: 2000, n64k: 40, chainOps: 400, corrupt: e.corrupt,
		lat8: Phase{Size: latSlice}, lat64k: Phase{Size: ar64kSlice}}
	s.ar8 = newAllreduceSets(e.seed, streamAr8, 8)
	s.ar64k = newAllreduceSets(e.seed, streamAr64k, 8192)
	for c := range s.chains {
		s.chains[c] = newAllreduceSets(e.seed, streamChain+uint64(c)<<8, chainCount)
	}
	return s
}

func (s *coll) opsPerRound() int { return s.n8 + s.n64k + chainComms*s.chainOps }

// bytesPerRound counts each rank's contribution to every Allreduce.
func (s *coll) bytesPerRound() int64 {
	return int64(ranks * 8 * (s.n8*8 + s.n64k*8192 + chainComms*s.chainOps*chainCount))
}

// input returns rank's input for op i of a phase, corrupted on rank 0
// at the self-test's chosen op.
func (s *coll) input(sets *[inputSets]allreduceSet, rank int, i int64, scratch []byte) []byte {
	in := sets[i%inputSets].in[rank]
	if rank != 0 || i != s.corrupt {
		return in
	}
	copy(scratch, in)
	scratch[0] ^= 0x40
	return scratch[:len(in)]
}

func (s *coll) rank(x *rankCtx) func(timed bool) {
	recv8 := make([]byte, 8*8)
	recv64k := make([]byte, 8*8192)
	scratch := make([]byte, 8*8192)
	cr := x.p.ContinueInit()
	g := &chainGroup{s: s, x: x, cr: cr}
	chains := make([]*chain, chainComms)
	for i := range chains {
		c := &chain{g: g, comm: x.comm.Dup(), sets: &s.chains[i], recv: make([]byte, 8*chainCount)}
		c.done = c.complete
		chains[i] = c
	}
	var i8, i64k, ichain int64
	blocking := func(sets *[inputSets]allreduceSet, i int64, recv []byte, count int, lat *Phase, timed bool) {
		t := time.Now()
		st := x.collWait(x.iallreduce(x.comm, s.input(sets, x.rank, i, scratch), recv, count))
		d := time.Since(t)
		x.check(st.Err == nil && bytes.Equal(recv, sets[i%inputSets].sum))
		if timed && x.rank == 0 {
			lat.Add(float64(d) / 1e3)
		}
	}
	return func(timed bool) {
		for k := 0; k < s.n8; k++ {
			blocking(&s.ar8, i8, recv8, 8, &s.lat8, timed)
			i8++
		}
		for k := 0; k < s.n64k; k++ {
			blocking(&s.ar64k, i64k, recv64k, 8192, &s.lat64k, timed)
			i64k++
		}
		g.timed, g.mark, g.completed, g.live = timed, time.Now(), 0, chainComms
		for _, c := range chains {
			c.op, c.end = ichain, ichain+int64(s.chainOps)
			c.arm()
		}
		cr.Start()
		for g.live > 0 {
			if !x.p.Progress() {
				runtime.Gosched()
			}
		}
		cr.Wait()
		cr.Reset()
		ichain += int64(s.chainOps)
	}
}

// chainGroup is one rank's chains in one round. Callbacks run inside
// the rank's progress passes, so its counters need no synchronization.
type chainGroup struct {
	s               *coll
	x               *rankCtx
	cr              *mpix.ContinueRequest
	timed           bool
	mark            time.Time
	completed, live int
}

// chain is one self-re-arming Iallreduce chain, with op in flight and
// the chain ending before op end. Its callback is a method value made
// once, so re-arming allocates nothing of the benchmark's own.
type chain struct {
	g       *chainGroup
	comm    *mpix.Comm
	sets    *[inputSets]allreduceSet
	recv    []byte
	op, end int64
	done    func(mpix.Status)
}

func (c *chain) arm() {
	x := c.g.x
	req := x.iallreduce(c.comm, c.sets[c.op%inputSets].in[x.rank], c.recv, chainCount)
	c.g.cr.Continue(req, c.done)
}

func (c *chain) complete(st mpix.Status) {
	g := c.g
	g.x.check(st.Err == nil && bytes.Equal(c.recv, c.sets[c.op%inputSets].sum))
	if g.completed++; g.timed && g.x.rank == 0 && g.completed%chainSlice == 0 {
		now := time.Now()
		g.s.chainRate.Add(chainSlice / now.Sub(g.mark).Seconds())
		g.mark = now
	}
	if c.op++; c.op < c.end {
		c.arm()
	} else {
		g.live--
	}
}

func (s *coll) report(r *report) {
	r.latency("lat", &s.lat8)
	r.add("ops_per_s", s.chainRate.Median(), "1/s")
	r.add("bulk_p50_us", s.lat64k.P50(), "us")
	r.diag("allreduce_p50_us", s.lat8.P50(), "us", s.lat8.Slices())
	r.diag("allreduce_p90_us", s.lat8.P90(), "us", s.lat8.Slices())
	r.diag("allreduce64k_p50_us", s.lat64k.P50(), "us", s.lat64k.Slices())
	r.pooled("allreduce64k", &s.lat64k)
	r.diag("chain_kops_s", s.chainRate.Median()/1e3, "kops/s", s.chainRate.N())
}
