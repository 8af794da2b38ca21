package tcp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"gompix/internal/transport/framed"
)

// errWouldBlock reports an empty socket buffer on a non-blocking read.
var errWouldBlock = errors.New("tcp: read would block")

const (
	// readBufSize is the pooled per-connection read buffer; frames
	// larger than it grow the buffer (doubling) for that connection.
	readBufSize = 64 << 10
	// maxFrameLen is the corrupt-length bound: no sane frame is a
	// gigabyte.
	maxFrameLen = 1 << 30
)

var rbufPool = sync.Pool{
	New: func() any { b := make([]byte, readBufSize); return &b },
}

// connState is one live socket in the reactor: the descriptor, the
// frame reader over a pooled read buffer, and the readiness flag that
// the watcher, the drain pool and caller-thread progress polls
// coordinate through.
//
// Lock order: cs.mu → p.Mu (goodbye marking) → link queue locks → n.mu
// (metrics ref). Nothing takes cs.mu while holding any of the others.
type connState struct {
	n    *Network
	conn net.Conn
	rank int
	nb   *nbConn // nil → blocking driver owns the read side

	// mu owns the reader. Drains from progress polls, the reactor pool
	// and the blocking driver all serialize here.
	mu      sync.Mutex
	rd      framed.Reader
	rbufBox *[]byte // pool ticket for the reader's initial buffer

	// ready flags buffered input: set by the watcher on a netpoller
	// wake, cleared by whichever drainer reads the socket dry.
	ready  atomic.Bool
	queued atomic.Bool // sitting in the reactor pool queue

	// bumped is the link snapshot whose netmod work counters markReady
	// incremented (one unit each) so the next progress pass polls the
	// reactor; clearReady undoes it.
	bumpMu sync.Mutex
	bumped []*framed.Link

	// drained wakes the watcher after a drain empties the socket or
	// kills the connection; cap 1, best-effort.
	drained chan struct{}

	dead    atomic.Bool
	causeMu sync.Mutex
	cause   error
}

func newConnState(n *Network, conn net.Conn, rank int) *connState {
	cs := &connState{n: n, conn: conn, rank: rank, drained: make(chan struct{}, 1)}
	cs.rbufBox = rbufPool.Get().(*[]byte)
	cs.rd.Reset(*cs.rbufBox)
	if nb, ok := newNBConn(conn); ok {
		cs.nb = nb
	}
	return cs
}

// fail records the first terminal cause, closes the socket (waking a
// parked watcher) and signals the drain handshake. Safe under cs.mu.
func (cs *connState) fail(cause error) {
	cs.causeMu.Lock()
	if cs.cause == nil {
		cs.cause = cause
	}
	cs.causeMu.Unlock()
	cs.dead.Store(true)
	cs.conn.Close()
	cs.signalDrained()
}

// takeCause returns the recorded terminal cause, falling back to the
// given error (or a generic loss) when no drain recorded one.
func (cs *connState) takeCause(fallback error) error {
	cs.causeMu.Lock()
	defer cs.causeMu.Unlock()
	if cs.cause == nil {
		if fallback == nil {
			fallback = errors.New("tcp: connection lost")
		}
		cs.cause = fallback
	}
	return cs.cause
}

func (cs *connState) signalDrained() {
	select {
	case cs.drained <- struct{}{}:
	default:
	}
}

// markReady flags buffered input and bumps every link's netmod work
// counter by one unit, so the owning streams' next progress passes run
// their netmod poll (which drains the reactor) instead of skipping it
// as idle. The bumps are undone when a drain reads the socket dry.
func (cs *connState) markReady() {
	if cs.ready.Swap(true) {
		return
	}
	cs.n.readyConns.Add(1)
	if met := cs.n.metricsRef(); met != nil {
		met.readyDepth.Add(1)
	}
	cs.bumpMu.Lock()
	if cs.bumped == nil {
		links := cs.n.hub.Links()
		for _, l := range links {
			l.AddWork(1)
		}
		cs.bumped = links
	}
	cs.bumpMu.Unlock()
}

// clearReady undoes markReady once a drain hits EAGAIN (or the
// connection dies).
func (cs *connState) clearReady() {
	cs.bumpMu.Lock()
	if b := cs.bumped; b != nil {
		cs.bumped = nil
		for _, l := range b {
			l.AddWork(-1)
		}
	}
	cs.bumpMu.Unlock()
	if cs.ready.Swap(false) {
		cs.n.readyConns.Add(-1)
		if met := cs.n.metricsRef(); met != nil {
			met.readyDepth.Add(-1)
		}
	}
}

// release retires the read side after the driver goroutine exits:
// poison further drains, return the pooled buffer (a reader that grew
// past it no longer uses it), undo any readiness bumps so link work
// counters don't leak.
func (cs *connState) release() {
	cs.dead.Store(true)
	cs.mu.Lock()
	if cs.rbufBox != nil {
		rbufPool.Put(cs.rbufBox)
		cs.rbufBox = nil
	}
	cs.rd.Reset(nil)
	cs.mu.Unlock()
	cs.clearReady()
}

// drainConn reads the socket without blocking and parses complete
// frames in place, delivering them straight to the destination links'
// receive queues — no per-frame goroutine or channel hop. It stops at
// EAGAIN (clearing readiness and waking the watcher), at the byte
// budget (leaving readiness set so the next pass continues), or at a
// terminal error. Caller must hold cs.mu; returns whether anything was
// delivered.
func (n *Network) drainConn(cs *connState, budget int) (made bool) {
	if cs.dead.Load() {
		cs.signalDrained()
		return false
	}
	for {
		nr, err := cs.nb.read(cs.rd.Room(1))
		if nr > 0 {
			cs.rd.Fill(nr)
			budget -= nr
			if n.parseFrames(cs) {
				made = true
			}
			if cs.dead.Load() {
				return made // parse hit goodbye/corrupt/unknown-EP
			}
		}
		switch err {
		case nil:
			if budget <= 0 {
				cs.markReady() // more may remain: stay flagged
				return made
			}
		case errWouldBlock:
			cs.clearReady()
			cs.signalDrained()
			return made
		default:
			cs.fail(err) // EOF, reset, closed descriptor
			return made
		}
	}
}

// parseFrames delivers the complete frames buffered so far. The
// goodbye marker, sent in place of a length prefix, marks the peer
// departed; a corrupt length or payload and an unknown endpoint drop
// the connection (counted) without panicking the rank. Frames parsed
// before a terminal event still deliver. Caller holds cs.mu.
func (n *Network) parseFrames(cs *connState) (made bool) {
	frames, err := cs.rd.Parse(n.hub, maxFrameLen)
	if err != nil {
		n.streamError(cs, err)
	}
	return frames > 0
}

func (n *Network) streamError(cs *connState, err error) {
	var lenErr *framed.LengthError
	var epErr *framed.UnknownEndpointError
	switch {
	case errors.As(err, &lenErr) && lenErr.Len == goodbyeMark:
		n.markDeparted(cs.rank)
		cs.fail(errPeerDeparted)
	case errors.As(err, &epErr):
		// Endpoints are advertised only after their link registers, so
		// a frame for an unknown endpoint is corruption or a hostile
		// sender — drop the connection, don't crash the rank.
		n.countUnknownEP()
		cs.fail(fmt.Errorf("tcp: %v from rank %d", err, cs.rank))
	default:
		n.countCorrupt()
		cs.fail(fmt.Errorf("tcp: %v from rank %d", err, cs.rank))
	}
}
