package main

import (
	"time"

	"gompix/internal/fabric"
	"gompix/internal/metrics"
	"gompix/internal/nic"
	"gompix/internal/timing"
	"gompix/internal/transport/composite"
	"gompix/internal/transport/shm"
	"gompix/internal/transport/tcp"
)

// The timing wrappers sit between the MPI layer and one rank's
// transport in the traced run. Each exposes exactly the optional
// interfaces of the value it wraps (wrap_test.go checks this): a
// wrapper that hid nic.RxPoller would move tcp ingest to the reactor
// pool, and one that hid nic.Napper would turn shm parks into timer
// sleeps, so the traced run would measure a different program.

// linkKinds names the span kinds one backend's link calls record as.
type linkKinds struct{ post, poll, flush, drain, nap kind }

var (
	tcpKinds  = linkKinds{kTCPPost, kTCPPoll, kTCPFlush, kTCPDrain, 0} // tcp links have no Nap
	shmKinds  = linkKinds{kShmPost, kShmPoll, kShmFlush, kShmDrain, kShmNap}
	compKinds = linkKinds{kCompPost, kCompPoll, kCompFlush, kCompDrain, kCompNap}
)

// timedLink times the nic.Link methods every backend has. The MPI
// layer and the composite router call links only from the rank's own
// goroutine, so every span here is a child of the rank's open span.
type timedLink struct {
	inner nic.Link
	rec   *Recorder
	rank  int
	k     linkKinds
}

func (l *timedLink) begin(k kind)    { l.rec.Begin(l.rank, k) }
func (l *timedLink) end(useful bool) { l.rec.End(l.rank, useful) }

func (l *timedLink) ID() fabric.EndpointID { return l.inner.ID() }

func (l *timedLink) PostSendInline(dst fabric.EndpointID, payload any, bytes int) error {
	l.begin(l.k.post)
	err := l.inner.PostSendInline(dst, payload, bytes)
	l.end(false)
	return err
}

func (l *timedLink) PostSend(dst fabric.EndpointID, payload any, bytes int, token any) error {
	l.begin(l.k.post)
	err := l.inner.PostSend(dst, payload, bytes, token)
	l.end(false)
	return err
}

func (l *timedLink) DrainCQ(buf []nic.CQE) []nic.CQE {
	l.begin(l.k.drain)
	out := l.inner.DrainCQ(buf)
	l.rec.End(l.rank, len(out) > 0)
	return out
}

func (l *timedLink) DrainRQ(buf []fabric.Packet) []fabric.Packet {
	l.begin(l.k.drain)
	out := l.inner.DrainRQ(buf)
	l.rec.End(l.rank, len(out) > 0)
	return out
}

func (l *timedLink) QueuedCQ() int              { return l.inner.QueuedCQ() }
func (l *timedLink) QueuedRQ() int              { return l.inner.QueuedRQ() }
func (l *timedLink) BindWork(w nic.WorkCounter) { l.inner.BindWork(w) }
func (l *timedLink) Now() time.Duration         { return l.inner.Now() }
func (l *timedLink) Close() error               { return l.inner.Close() }
func (l *timedLink) SetArm(arm func())          { l.inner.(nic.Armer).SetArm(arm) }
func (l *timedLink) PendingTx() int             { return l.inner.(nic.TxPender).PendingTx() }

func (l *timedLink) Flush() (made, idle bool) {
	l.begin(l.k.flush)
	made, idle = l.inner.(nic.Flusher).Flush()
	l.end(made)
	return made, idle
}

func (l *timedLink) PollRecv() bool {
	l.begin(l.k.poll)
	made := l.inner.(nic.RxPoller).PollRecv()
	l.end(made)
	return made
}

// tcpLink wraps a *tcp.Link: Armer, Flusher, TxPender, RxPoller and
// UseMetrics, but no Napper.
type tcpLink struct{ timedLink }

func (l *tcpLink) UseMetrics(reg *metrics.Registry, scope string) {
	l.inner.(*tcp.Link).UseMetrics(reg, scope)
}

// napLink wraps a *shm.Link or a *composite.Link: Armer, Flusher,
// TxPender, RxPoller and Napper, but no UseMetrics.
type napLink struct{ timedLink }

func (l *napLink) Nap(d time.Duration) {
	l.begin(l.k.nap)
	l.inner.(nic.Napper).Nap(d)
	l.end(false)
}

// timedCodec times the wire codec one rank's transport was given.
// Calls on the rank's goroutine nest under its open span; calls from
// transport goroutines are background spans.
type timedCodec struct {
	inner nic.Codec
	rec   *Recorder
	rank  int
}

func (c *timedCodec) Encode(buf []byte, payload any) ([]byte, error) {
	if c.rec.onRank(c.rank) {
		c.rec.Begin(c.rank, kEncode)
		out, err := c.inner.Encode(buf, payload)
		c.rec.End(c.rank, false)
		return out, err
	}
	start := c.rec.now()
	out, err := c.inner.Encode(buf, payload)
	c.rec.background(kEncode, start, c.rec.now())
	return out, err
}

func (c *timedCodec) Decode(data []byte) (any, error) {
	if c.rec.onRank(c.rank) {
		c.rec.Begin(c.rank, kDecode)
		out, err := c.inner.Decode(data)
		c.rec.End(c.rank, false)
		return out, err
	}
	start := c.rec.now()
	out, err := c.inner.Decode(data)
	c.rec.background(kDecode, start, c.rec.now())
	return out, err
}

// tcpNet wraps a *tcp.Network, as a whole transport or as the remote
// leg of a composite. Only the outermost wrapper times the codec.
type tcpNet struct {
	inner     *tcp.Network
	rec       *Recorder
	rank      int
	timeCodec bool
}

func (t *tcpNet) AddLink(rank, vci int) (nic.Link, error) {
	l, err := t.inner.AddLink(rank, vci)
	if err != nil {
		return nil, err
	}
	return &tcpLink{timedLink{inner: l, rec: t.rec, rank: t.rank, k: tcpKinds}}, nil
}

func (t *tcpNet) EndpointOf(rank, vci int) fabric.EndpointID { return t.inner.EndpointOf(rank, vci) }
func (t *tcpNet) Multiprocess() bool                         { return t.inner.Multiprocess() }
func (t *tcpNet) Close() error                               { return t.inner.Close() }
func (t *tcpNet) SetClock(c timing.Clock)                    { t.inner.SetClock(c) }
func (t *tcpNet) RankOfEndpoint(ep fabric.EndpointID) int    { return t.inner.RankOfEndpoint(ep) }
func (t *tcpNet) Start() error                               { return t.inner.Start() }
func (t *tcpNet) MarkPeerDown(rank int, cause error)         { t.inner.MarkPeerDown(rank, cause) }
func (t *tcpNet) SetCodec(c nic.Codec) {
	if t.timeCodec {
		c = &timedCodec{inner: c, rec: t.rec, rank: t.rank}
	}
	t.inner.SetCodec(c)
}

// shmLeg wraps a *shm.Network as the local leg of a composite.
type shmLeg struct {
	inner *shm.Network
	rec   *Recorder
	rank  int
}

func (s *shmLeg) AddLink(rank, vci int) (nic.Link, error) {
	l, err := s.inner.AddLink(rank, vci)
	if err != nil {
		return nil, err
	}
	return &napLink{timedLink{inner: l, rec: s.rec, rank: s.rank, k: shmKinds}}, nil
}

func (s *shmLeg) EndpointOf(rank, vci int) fabric.EndpointID { return s.inner.EndpointOf(rank, vci) }
func (s *shmLeg) Multiprocess() bool                         { return s.inner.Multiprocess() }
func (s *shmLeg) Close() error                               { return s.inner.Close() }
func (s *shmLeg) SetCodec(c nic.Codec)                       { s.inner.SetCodec(c) }
func (s *shmLeg) SetClock(c timing.Clock)                    { s.inner.SetClock(c) }
func (s *shmLeg) RankOfEndpoint(ep fabric.EndpointID) int    { return s.inner.RankOfEndpoint(ep) }
func (s *shmLeg) Start() error                               { return s.inner.Start() }
func (s *shmLeg) MarkPeerDown(rank int, cause error)         { s.inner.MarkPeerDown(rank, cause) }

// compNet wraps a *composite.Network as one rank's whole transport.
type compNet struct {
	inner *composite.Network
	rec   *Recorder
	rank  int
}

func (c *compNet) AddLink(rank, vci int) (nic.Link, error) {
	l, err := c.inner.AddLink(rank, vci)
	if err != nil {
		return nil, err
	}
	return &napLink{timedLink{inner: l, rec: c.rec, rank: c.rank, k: compKinds}}, nil
}

func (c *compNet) EndpointOf(rank, vci int) fabric.EndpointID { return c.inner.EndpointOf(rank, vci) }
func (c *compNet) Multiprocess() bool                         { return c.inner.Multiprocess() }
func (c *compNet) Close() error                               { return c.inner.Close() }
func (c *compNet) SetClock(clk timing.Clock)                  { c.inner.SetClock(clk) }
func (c *compNet) RankOfEndpoint(ep fabric.EndpointID) int    { return c.inner.RankOfEndpoint(ep) }
func (c *compNet) Start() error                               { return c.inner.Start() }
func (c *compNet) NodeOf(rank int) int                        { return c.inner.NodeOf(rank) }
func (c *compNet) SetCodec(codec nic.Codec) {
	c.inner.SetCodec(&timedCodec{inner: codec, rec: c.rec, rank: c.rank})
}
