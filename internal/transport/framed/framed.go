// Package framed is the framed-link core the byte-stream transports
// (internal/transport/tcp and internal/transport/shm) share: the wire
// frame layout, the coalescing out-queue with its cumulative
// watermarks, the in-place frame parser, the per-link completion and
// receive queues with their arm logic, the copy-on-write link table,
// and the per-peer verdict state (DESIGN.md §11, "Send side").
//
// It owns the transport completion contract, so each transport meets
// it by construction rather than by its own copy of the logic:
//
//   - every token completes exactly once: a signaled post either
//     queues a frame that later settles (success CQE) or fails (error
//     CQE), or it fails fast with an error CQE and a nil return;
//   - the PeerDown verdict CQE precedes every failed-frame CQE of the
//     peer it names;
//   - posts fail fast once the peer has a verdict or has departed;
//   - a closing transport fails the frames it still holds, each once.
//
// What differs between the transports stays with them: how bytes leave
// the queue (tcp's vectored socket writes, shm's ring-cell pump), how
// they arrive, and how liveness is detected.
//
// Wire frame:
//
//	u32 length | u64 dstEP | u64 srcEP | u32 bytes | codec payload
//
// length counts everything after itself; all fields little-endian.
package framed

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gompix/internal/fabric"
	"gompix/internal/metrics"
	"gompix/internal/nic"
	"gompix/internal/timing"
)

// HdrLen is the frame header after the length prefix: dstEP, srcEP,
// bytes.
const HdrLen = 8 + 8 + 4

// Hub is the transport-wide half of the core: codec, clock, the link
// table and the verdict fan-out.
type Hub struct {
	name  string // error-message prefix: "tcp", "shm"
	Codec nic.Codec
	Clock timing.Clock

	// mu serializes link registration against Close; lookups read the
	// table snapshot with one atomic load.
	mu     sync.Mutex
	closed atomic.Bool
	links  atomic.Pointer[linkTable]

	// PeersDown counts verdicts fanned out; PeersDownMetric, when set,
	// mirrors it into a registry.
	PeersDown       atomic.Int64
	PeersDownMetric atomic.Pointer[metrics.Counter]
}

// linkTable is one immutable registration snapshot: a map for the
// receive path, a list for fan-outs.
type linkTable struct {
	byEP map[fabric.EndpointID]*Link
	list []*Link
}

// NewHub returns an open hub; name prefixes its error messages.
func NewHub(name string, clk timing.Clock) *Hub {
	return &Hub{name: name, Clock: clk}
}

// Close marks the hub closed and reports whether this call did so.
// A closed hub registers no links and fans out no verdicts: nobody is
// listening, and the teardown is not a fault.
func (h *Hub) Close() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed.CompareAndSwap(false, true)
}

// Closed reports whether Close has run.
func (h *Hub) Closed() bool { return h.closed.Load() }

// AddLink registers l under endpoint id.
func (h *Hub) AddLink(l *Link, id fabric.EndpointID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed.Load() {
		return fmt.Errorf("%s: transport closed", h.name)
	}
	old := h.links.Load()
	tab := &linkTable{byEP: make(map[fabric.EndpointID]*Link)}
	if old != nil {
		if _, dup := old.byEP[id]; dup {
			return fmt.Errorf("%s: duplicate link for endpoint %d", h.name, id)
		}
		for ep, ol := range old.byEP {
			tab.byEP[ep] = ol
		}
		tab.list = append(tab.list, old.list...)
	}
	l.id, l.hub = id, h
	tab.byEP[id] = l
	tab.list = append(tab.list, l)
	h.links.Store(tab)
	return nil
}

// lookup resolves a destination endpoint on the receive path.
func (h *Hub) lookup(ep fabric.EndpointID) *Link {
	if tab := h.links.Load(); tab != nil {
		return tab.byEP[ep]
	}
	return nil
}

// Links returns the registered-link snapshot (shared, read-only).
func (h *Hub) Links() []*Link {
	if tab := h.links.Load(); tab != nil {
		return tab.list
	}
	return nil
}

// Peer is the send side toward one remote rank: its out-queue and its
// verdict state. Transports embed it beside their own per-peer state.
type Peer struct {
	Rank int
	// Mu guards Q, the verdict state, and whatever send-side state the
	// embedding transport keeps with it.
	Mu sync.Mutex
	Q  OutQueue

	down     error // verdict cause; set once, never cleared
	departed bool  // peer said goodbye: a clean exit, not a fault
	scratch  []OutFrame
}

// Live reports whether p has neither a verdict nor a departure. The
// caller holds p.Mu.
func (p *Peer) Live() bool { return p.down == nil && !p.departed }

// Settle completes the frames the written watermark has passed — a
// CQE for each signaled one, a pending release for all — and returns
// how many settled. The caller holds p.Mu; lock order peer → link CQ
// is safe because no path takes a peer lock under a CQ lock.
func (h *Hub) Settle(p *Peer) int {
	p.scratch = p.Q.popSettled(p.scratch)
	if len(p.scratch) == 0 {
		return 0
	}
	now := h.Clock.Now()
	for _, f := range p.scratch {
		if f.signaled {
			f.link.pushCQ(nic.CQE{Token: f.token, At: now})
		}
		f.link.pending.Add(-1)
	}
	return len(p.scratch)
}

// Verdict marks p failed: every local link receives a PeerDown control
// CQE, and only then do p's queued frames fail. That order lets the MPI
// layer sweep its handle tables before the stale frame completions
// arrive. A verdict after an earlier one, or after a departure, is
// ignored.
func (h *Hub) Verdict(p *Peer, cause error) {
	p.Mu.Lock()
	if !p.Live() {
		p.Mu.Unlock()
		return
	}
	p.down = cause
	frames := p.Q.TakeAll(nil)
	p.Mu.Unlock()
	h.peerDown(p.Rank, cause)
	h.FailFrames(frames, cause)
}

// MarkDown records a failure learned out of band — the composite
// transport cross-wires one leg's verdict into the other — so posts
// fail fast. Queued frames fail, but no PeerDown CQE fans out: the leg
// that reached the verdict already delivered it.
func (h *Hub) MarkDown(p *Peer, cause error) {
	p.Mu.Lock()
	if p.down != nil {
		p.Mu.Unlock()
		return
	}
	p.down = cause
	frames := p.Q.TakeAll(nil)
	p.Mu.Unlock()
	h.FailFrames(frames, cause)
}

// MarkDeparted records a graceful goodbye: posts fail fast and queued
// frames fail, with no verdict — departure is not a fault.
func (h *Hub) MarkDeparted(p *Peer) {
	p.Mu.Lock()
	if !p.Live() {
		p.Mu.Unlock()
		return
	}
	p.departed = true
	frames := p.Q.TakeAll(nil)
	p.Mu.Unlock()
	h.FailFrames(frames, h.departedErr(p.Rank))
}

// CloseQueue is the closing transport's rule for p's out-queue. The
// caller holds p.Mu and has made its last write toward p (shm's
// goodbye pump, which settles what it publishes; tcp's closed
// connection). Every frame not yet handed to the medium fails with an
// ErrLinkDown-wrapped cause, since no later flush will send it, and
// later posts toward p fail fast with the same cause. No verdict fans
// out: the close is local, not a fault of the peer.
func (h *Hub) CloseQueue(p *Peer, cause error) {
	if p.down == nil {
		p.down = cause
	}
	h.FailFrames(p.Q.TakeAll(nil), cause)
}

func (h *Hub) departedErr(rank int) error {
	return fmt.Errorf("%s: rank %d departed", h.name, rank)
}

// peerDown fans the verdict out to every local link as a control CQE
// (token nic.PeerDown); skipped once the hub is closed.
func (h *Hub) peerDown(rank int, cause error) {
	if h.Closed() {
		return
	}
	h.PeersDown.Add(1)
	if c := h.PeersDownMetric.Load(); c != nil {
		c.Inc()
	}
	now := h.Clock.Now()
	err := fmt.Errorf("%w: %v", nic.ErrLinkDown, cause)
	for _, l := range h.Links() {
		if c := l.PeerDownMetric.Load(); c != nil {
			c.Inc()
		}
		l.pushCQ(nic.CQE{Token: nic.PeerDown{Rank: rank}, At: now, Err: err})
	}
}

// FailFrames settles frames that can never reach the peer: signaled
// ones get an ErrLinkDown completion, every one releases its pending
// unit.
func (h *Hub) FailFrames(frames []OutFrame, cause error) {
	if len(frames) == 0 {
		return
	}
	now := h.Clock.Now()
	err := fmt.Errorf("%w: %v", nic.ErrLinkDown, cause)
	for _, f := range frames {
		if f.signaled {
			f.link.pushCQ(nic.CQE{Token: f.token, At: now, Err: err})
		}
		f.link.pending.Add(-1)
	}
}
