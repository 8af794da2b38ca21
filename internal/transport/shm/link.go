package shm

import (
	"fmt"
	"sync"
	"time"

	"gompix/internal/fabric"
	"gompix/internal/nic"
	"gompix/internal/transport/framed"
)

// Link is one VCI's endpoint on the shared-memory transport
// (nic.Link). Posts append frames to the destination peer's coalescing
// queue and pump inline while ring cells are free; a full ring parks
// the tail for Flush — invoked by the owning stream's progress via the
// Armer callback — which is the sender-side-progress-driven chunking.
// The receive side is pure polling: PollRecv (nic.RxPoller) drains
// every inbound ring on the caller's thread. There is no kernel to
// interrupt us when a peer produces, so BindWork parks one permanent
// work unit on the stream's netmod counter, keeping the class polled
// every pass; an empty poll is two atomic loads per peer ring. The
// completion and receive queues are the shared framed.Link.
type Link struct {
	framed.Link
	net *Network

	// The interruptible-sleep (nic.Napper) state: a waiter parks in Nap
	// on framed.Link.Wake with a bounding timer; any deliverer — the
	// doorbell watcher or another stream's progress pass — pokes it
	// after queueing. napMu serializes nappers (a second concurrent
	// waiter falls back to a plain sleep); napTimer is reused across
	// naps to keep the steady state allocation-free.
	napMu    sync.Mutex
	napTimer *time.Timer
}

// BindWork attaches the owning stream's netmod work counter and parks
// the permanent polling unit on it (released on Close): shared-memory
// receive has no readiness notification, so the netmod class must stay
// pollable for cross-process arrivals to be seen.
func (l *Link) BindWork(w nic.WorkCounter) {
	l.Link.BindWork(w)
	l.AddWork(1)
}

// Close marks the link dead and releases the parked work unit; the
// Network owns the mappings.
func (l *Link) Close() error {
	if l.MarkClosed() {
		l.AddWork(-1)
	}
	return nil
}

// PostSendInline queues a frame with no completion (nic.Link); the
// payload is encoded immediately (copy-at-injection semantics).
func (l *Link) PostSendInline(dst fabric.EndpointID, payload any, bytes int) error {
	return l.post(dst, payload, bytes, nil, false)
}

// PostSend queues a frame whose CQE (carrying token) is posted once
// the frame is fully published into the shared ring. A post to a peer
// already known down or departed succeeds (returns nil) and surfaces
// the failure as an error CQE — never both, so the token completes
// exactly once.
func (l *Link) PostSend(dst fabric.EndpointID, payload any, bytes int, token any) error {
	return l.post(dst, payload, bytes, token, true)
}

func (l *Link) post(dst fabric.EndpointID, payload any, bytes int, token any, signaled bool) error {
	if l.net.hub.Closed() {
		return errClosed
	}
	rank := int(dst) % l.net.cfg.WorldSize
	p := l.net.peers[rank]
	if p == nil {
		return fmt.Errorf("shm: endpoint %d (rank %d) not reachable over shared memory", dst, rank)
	}
	p.Mu.Lock()
	if queued, err := l.Enqueue(&p.Peer, dst, payload, bytes, token, signaled); !queued {
		p.Mu.Unlock()
		return err
	}
	// Inline pump — but only when the transmit ring is empty. An empty
	// ring means the consumer may be idle, so publishing (and ringing
	// its doorbell) right here is the latency path for a lone send. A
	// nonempty ring means the consumer already owes itself a drain;
	// parking this frame instead lets the next flush poll pack it
	// densely with its burst neighbors — one ring cell per pump rather
	// than one per message, which on the message-rate window cuts both
	// sides' per-cell costs ~60×. Settlement happens under the peer
	// lock, which is safe because no path acquires a peer lock while
	// holding a CQ lock.
	if p.tx != nil && p.tx.empty() {
		l.net.pumpPeerLocked(p)
	}
	parked := p.Q.Pending() > 0
	p.Mu.Unlock()
	if parked {
		l.Kick()
	}
	return nil
}

// Flush pumps every peer's parked output into its transmit ring
// (nic.Flusher). It reports whether anything moved and whether this
// link disarmed (nothing of its own left pending).
func (l *Link) Flush() (made, idle bool) {
	if l.net.hub.Closed() {
		return false, true
	}
	made, idle = framed.FlushPeers(&l.Link, l.net.peers, l.net.flushPeer)
	l.net.ringOwed() // a flush-only driver must still deliver wakeups
	return made, idle
}

// flushPeer pumps one peer's queue; waiting reports a still-parked
// tail (ring full).
func (n *Network) flushPeer(p *peer) (made, waiting bool) {
	p.Mu.Lock()
	if p.tx == nil || p.Q.Pending() == 0 {
		p.Mu.Unlock()
		return false, false
	}
	made = n.pumpPeerLocked(p)
	waiting = p.Q.Pending() > 0
	p.Mu.Unlock()
	return made, waiting
}

// pumpPeerLocked pushes queued bytes into the transmit ring and
// settles the frames the watermark passed. Caller holds p.Mu and has
// checked the ring is still mapped.
func (n *Network) pumpPeerLocked(p *peer) (made bool) {
	tailBefore := p.tx.tail.Load()
	if cells := p.tx.pumpFrom(&p.Q); cells > 0 {
		made = true
		n.txChunks.Add(uint64(cells))
		// Doorbell gate: wake the consumer only when it may not know
		// the ring has data. If its head has reached the pre-pump tail,
		// every older cell was consumed and it may since have gone idle
		// — the post-publish head read (not the pre-pump one) closes
		// the race where the consumer drains the last old cell and
		// parks between our check and our publish. A head still behind
		// the old tail proves unconsumed cells predate this pump, so
		// the consumer is awake or already owes itself a drain. The
		// byte itself is written by the next progress pass (ringOwed),
		// not here — see peer.bellOwed.
		if p.tx.head.Load() >= tailBefore {
			p.bellOwed.Store(true)
		}
	}
	n.hub.Settle(&p.Peer)
	return made
}

// ringPeerLocked writes one wakeup byte into the peer's doorbell FIFO,
// lazily opening the write side. Caller holds p.Mu. Steady traffic
// never reaches here (the ring stays nonempty), so the open retries
// while the peer is still starting cost nothing in steady state.
func (n *Network) ringPeerLocked(p *peer) {
	if p.bellFd == -1 {
		fd, retry := openPeerDoorbell(n.dir, p.Rank)
		if fd < 0 && !retry {
			p.bellFd = bellClosed
			return
		}
		p.bellFd = fd // may stay -1: reader not up yet, retry next ring
	}
	if p.bellFd >= 0 {
		if ringBell(p.bellFd) {
			n.bellsRung.Add(1)
		} else {
			p.bellFd = bellClosed // reader gone: never retry
		}
	}
}

// PollRecv drains every inbound ring on the caller's thread
// (nic.RxPoller) and runs the gated liveness sweep. Reports whether
// any frame was delivered.
func (l *Link) PollRecv() (made bool) {
	n := l.net
	if n.hub.Closed() {
		return false
	}
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		if n.drainPeer(p) {
			made = true
		}
	}
	n.ringOwed()
	n.probeLiveness()
	return made
}

// ringOwed writes the wakeup byte for every peer whose ring went
// nonempty since the last pass. Deferring the FIFO write here — the
// tail of the poster's own progress pass — coalesces a burst of posts
// into one bell and one wakeup preemption instead of one per pump. A
// blocking send's wait drives a pass immediately after the post, so
// single-message latency still pays only one pass of deferral.
func (n *Network) ringOwed() {
	for _, p := range n.peers {
		if p == nil || !p.bellOwed.Load() {
			continue
		}
		if p.bellOwed.CompareAndSwap(true, false) {
			p.Mu.Lock()
			n.ringPeerLocked(p)
			p.Mu.Unlock()
		}
	}
}

// drainPeer consumes the peer's inbound ring: cell chunks append to
// the reassembly buffer, complete frames parse in place and deliver in
// same-link runs. The cell budget is snapshotted at entry so a fast
// producer cannot livelock the poll.
func (n *Network) drainPeer(p *peer) (made bool) {
	// Lock-free emptiness gate: a spinning progress pass polls this for
	// every peer thousands of times per millisecond, so the idle path
	// must stay at a few atomic loads — no TryLock. An empty ring has
	// nothing to drain unless an unprocessed goodbye marker is pending.
	if r := p.rx; r == nil || (r.empty() && (p.gone.Load() || !r.departed())) {
		return false
	}
	if !p.rxMu.TryLock() {
		return false // another stream's poll owns this ring right now
	}
	defer p.rxMu.Unlock()
	return n.drainPeerLocked(p)
}

// drainPeerLocked is drainPeer's body; the doorbell watcher calls it
// under a blocking lock (a dedicated goroutine may wait; a progress
// pass must not).
func (n *Network) drainPeerLocked(p *peer) (made bool) {
	r := p.rx
	if r == nil {
		return false
	}
	budget := r.occupied()
	for i := 0; i < budget; i++ {
		chunk := r.peek()
		if chunk == nil {
			break
		}
		p.rd.Fill(copy(p.rd.Room(len(chunk)), chunk))
		r.advance()
		n.rxChunks.Add(1)
	}
	if p.rd.Buffered() > 0 {
		made = n.parseFrames(p)
	}
	// Goodbye is honored only once the stream has fully drained, so
	// every frame published before the marker still delivers.
	if !p.gone.Load() && p.rd.Buffered() == 0 && r.empty() && r.departed() {
		p.gone.Store(true)
		n.hub.MarkDeparted(&p.Peer)
	}
	return made
}

// parseFrames delivers the complete frames reassembled so far. A frame
// for an unknown endpoint is skipped and counted; a corrupt length or
// payload in a shared segment is unrecoverable for the byte stream
// (there is no resync point), so it fails the peer.
func (n *Network) parseFrames(p *peer) (made bool) {
	for {
		frames, err := p.rd.Parse(n.hub, maxFrame)
		if frames > 0 {
			made = true
			n.rxFrames.Add(uint64(frames))
		}
		if err == nil {
			return made
		}
		if _, ok := err.(*framed.UnknownEndpointError); ok {
			n.rxUnknownEP.Add(1)
			continue
		}
		n.rxCorrupt.Add(1)
		p.rd.Reset(nil)
		n.hub.Verdict(&p.Peer, fmt.Errorf("shm: rank %d stream corrupt: %v", p.Rank, err))
		return made
	}
}

// Nap parks the caller for at most d, waking early when a deliverer
// pokes (nic.Napper). Without a doorbell the transport cannot generate
// wakeups, and a second concurrent napper on the same link has no
// channel to wait on — both fall back to the plain bounded sleep.
func (l *Link) Nap(d time.Duration) {
	if l.net.bell == nil || !l.napMu.TryLock() {
		time.Sleep(d)
		return
	}
	defer l.napMu.Unlock()
	select {
	case <-l.Wake: // discard a stale token from a prior nap
	default:
	}
	l.Napping.Store(true)
	defer l.Napping.Store(false)
	if l.QueuedRQ() > 0 || l.QueuedCQ() > 0 {
		return // arrived between the caller's last poll and here
	}
	if l.napTimer == nil {
		l.napTimer = time.NewTimer(d)
	} else {
		l.napTimer.Reset(d)
	}
	select {
	case <-l.Wake:
		if !l.napTimer.Stop() {
			<-l.napTimer.C
		}
	case <-l.napTimer.C:
	}
}
