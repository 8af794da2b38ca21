package framed

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gompix/internal/fabric"
	"gompix/internal/metrics"
	"gompix/internal/nic"
)

// Link is the per-VCI half of the core, embedded in each transport's
// link: the completion and receive queues the MPI layer drains, the
// pending-frame counter and the idle→busy arm state of the flush poll.
type Link struct {
	id   fabric.EndpointID
	hub  *Hub
	work nic.WorkCounter

	arm   func()
	armMu sync.Mutex
	armed atomic.Bool // fast-path readable; transitions under armMu

	// pending counts this link's posted-but-unsettled frames.
	pending atomic.Int64

	cqMu sync.Mutex
	cq   []nic.CQE
	nCQ  atomic.Int64

	rqMu sync.Mutex
	rq   []fabric.Packet
	nRQ  atomic.Int64

	// Napping and Wake let a waiter park until the next CQ or RQ push:
	// the waiter sets Napping, re-checks the queues, then receives on
	// Wake; every push bumps its queue counter, then pokes Wake if
	// Napping is set. Both are sequentially consistent, so a push that
	// misses the flag is seen by the waiter's re-check — no lost wakeup.
	Napping atomic.Bool
	Wake    chan struct{}

	// PeerDownMetric, when set, counts the verdicts this link receives.
	PeerDownMetric atomic.Pointer[metrics.Counter]

	closed atomic.Bool
}

// ID returns the link's global endpoint address.
func (l *Link) ID() fabric.EndpointID { return l.id }

// BindWork attaches the owning stream's netmod work counter: every
// queued entry holds one unit on it until drained.
func (l *Link) BindWork(w nic.WorkCounter) { l.work = w }

// AddWork moves the bound work counter by n, if one is bound.
func (l *Link) AddWork(n int) {
	if w := l.work; w != nil {
		w.Add(n)
	}
}

// Now returns the transport clock.
func (l *Link) Now() time.Duration { return l.hub.Clock.Now() }

// SetArm registers the idle→busy callback (nic.Armer); the MPI layer
// points it at the stream's flush poll.
func (l *Link) SetArm(arm func()) { l.arm = arm }

// PendingTx reports posted-but-unsettled frames (nic.TxPender).
func (l *Link) PendingTx() int { return int(l.pending.Load()) }

// Close marks the link dead; the transport owns the byte stream.
func (l *Link) Close() error {
	l.MarkClosed()
	return nil
}

// MarkClosed is Close reporting whether this call closed the link.
func (l *Link) MarkClosed() bool { return l.closed.CompareAndSwap(false, true) }

// Enqueue is the front half of every post; the caller holds p.Mu. A
// frame toward a peer with a verdict or a departure is not queued: a
// signaled post reports the failure through its CQE only and Enqueue
// returns nil — returning the error as well would hand the caller a
// second completion path for the token (the eager-send path completes
// its request inline on a post error) — while an unsignaled post gets
// the error. Otherwise the payload is encoded onto p's queue at once
// (copy-at-injection) and counted pending. queued reports which case
// ran.
func (l *Link) Enqueue(p *Peer, dst fabric.EndpointID, payload any, bytes int,
	token any, signaled bool) (queued bool, err error) {
	if l.closed.Load() {
		return false, fmt.Errorf("%s: post on closed link", l.hub.name)
	}
	if !p.Live() {
		err := p.down
		if err == nil {
			err = l.hub.departedErr(p.Rank)
		}
		if signaled {
			l.pushCQ(nic.CQE{Token: token, At: l.hub.Clock.Now(), Err: fmt.Errorf("%w: %v", nic.ErrLinkDown, err)})
			return false, nil
		}
		return false, err
	}
	codec := l.hub.Codec
	if codec == nil {
		panic(l.hub.name + ": no codec installed (transport.CodecSetter not wired)")
	}
	if err := p.Q.appendFrame(codec, l, dst, payload, bytes, token, signaled); err != nil {
		return false, fmt.Errorf("%s: encode: %w", l.hub.name, err)
	}
	l.pending.Add(1)
	return true, nil
}

// Kick arms the flush poll if the link has pending output and is not
// already armed. Never called under a peer lock.
func (l *Link) Kick() {
	if l.arm == nil || l.pending.Load() == 0 {
		return
	}
	// Already-armed is the common case on a burst (one kick per post):
	// the atomic read keeps the mutex off that path. The stale read is
	// benign — Flush only disarms when pending is zero, and the post
	// bumped pending before reading armed.
	if l.armed.Load() {
		return
	}
	l.armMu.Lock()
	if l.armed.Load() {
		l.armMu.Unlock()
		return
	}
	l.armed.Store(true)
	l.armMu.Unlock()
	l.arm()
}

// FlushPeers is the nic.Flusher body: flush drains one peer toward the
// medium, reporting whether bytes moved and whether frames still wait
// (a full ring, a dial in flight). The link disarms — atomically with
// the emptiness check, so a racing post either sees armed or re-arms —
// when nothing of its own is pending and no peer is waiting.
func FlushPeers[P comparable](l *Link, peers []P, flush func(P) (made, waiting bool)) (made, idle bool) {
	var none P
	waiting := false
	for _, p := range peers {
		if p == none {
			continue
		}
		m, w := flush(p)
		made = made || m
		waiting = waiting || w
	}
	l.armMu.Lock()
	idle = l.pending.Load() == 0 && !waiting
	if idle {
		l.armed.Store(false)
	}
	l.armMu.Unlock()
	return made, idle
}

func (l *Link) pushCQ(cqe nic.CQE) {
	l.cqMu.Lock()
	l.cq = append(l.cq, cqe)
	l.cqMu.Unlock()
	l.nCQ.Add(1)
	l.AddWork(1)
	l.poke()
}

// deliverBatch appends a run of inbound packets to the receive queue:
// one lock acquisition and one work bump per run, not per frame.
func (l *Link) deliverBatch(ps []fabric.Packet) {
	l.rqMu.Lock()
	l.rq = append(l.rq, ps...)
	l.rqMu.Unlock()
	l.nRQ.Add(int64(len(ps)))
	l.AddWork(len(ps))
	l.poke()
}

func (l *Link) poke() {
	if !l.Napping.Load() {
		return
	}
	select {
	case l.Wake <- struct{}{}:
	default:
	}
}

// DrainCQ moves up to cap(buf) completions into buf[:0] (nic.Link);
// same zero-allocation batch contract as the simulated endpoint.
func (l *Link) DrainCQ(buf []nic.CQE) []nic.CQE {
	buf = buf[:0]
	if l.nCQ.Load() == 0 || cap(buf) == 0 {
		return buf
	}
	l.cqMu.Lock()
	buf, l.cq = drain(buf, l.cq)
	l.cqMu.Unlock()
	l.nCQ.Add(-int64(len(buf)))
	l.AddWork(-len(buf))
	return buf
}

// DrainRQ moves up to cap(buf) arrived packets into buf[:0] (nic.Link).
func (l *Link) DrainRQ(buf []fabric.Packet) []fabric.Packet {
	buf = buf[:0]
	if l.nRQ.Load() == 0 || cap(buf) == 0 {
		return buf
	}
	l.rqMu.Lock()
	buf, l.rq = drain(buf, l.rq)
	l.rqMu.Unlock()
	l.nRQ.Add(-int64(len(buf)))
	l.AddWork(-len(buf))
	return buf
}

// drain moves the oldest min(cap(buf), len(q)) entries of q into buf,
// shifting the rest down and zeroing the vacated tail.
func drain[T any](buf, q []T) ([]T, []T) {
	n := min(len(q), cap(buf))
	buf = append(buf, q[:n]...)
	rest := copy(q, q[n:])
	clear(q[rest:])
	return buf, q[:rest]
}

// QueuedCQ returns unpolled completions (one atomic load).
func (l *Link) QueuedCQ() int { return int(l.nCQ.Load()) }

// QueuedRQ returns unpolled arrivals (one atomic load).
func (l *Link) QueuedRQ() int { return int(l.nRQ.Load()) }
