package main

import (
	"sort"
	"testing"

	"gompix/internal/metrics"
	"gompix/internal/nic"
	"gompix/internal/transport"
	"gompix/internal/transport/composite"
	"gompix/internal/transport/shm"
	"gompix/internal/transport/tcp"
)

// The optional interfaces the MPI layer and the composite router probe
// for with type assertions. A wrapper must expose exactly the ones the
// wrapped value has, or the traced run measures a different program.
var (
	linkOptional = map[string]func(any) bool{
		"Armer":    func(v any) bool { _, ok := v.(nic.Armer); return ok },
		"Flusher":  func(v any) bool { _, ok := v.(nic.Flusher); return ok },
		"Napper":   func(v any) bool { _, ok := v.(nic.Napper); return ok },
		"TxPender": func(v any) bool { _, ok := v.(nic.TxPender); return ok },
		"RxPoller": func(v any) bool { _, ok := v.(nic.RxPoller); return ok },
		"UseMetrics": func(v any) bool {
			_, ok := v.(interface {
				UseMetrics(*metrics.Registry, string)
			})
			return ok
		},
	}
	transportOptional = map[string]func(any) bool{
		"CodecSetter":  func(v any) bool { _, ok := v.(transport.CodecSetter); return ok },
		"ClockSetter":  func(v any) bool { _, ok := v.(transport.ClockSetter); return ok },
		"PeerRanker":   func(v any) bool { _, ok := v.(transport.PeerRanker); return ok },
		"Starter":      func(v any) bool { _, ok := v.(transport.Starter); return ok },
		"NodeMapper":   func(v any) bool { _, ok := v.(transport.NodeMapper); return ok },
		"MarkPeerDown": func(v any) bool { _, ok := v.(interface{ MarkPeerDown(int, error) }); return ok },
	}
	codecOptional = linkAndTransportOptional()
)

// linkAndTransportOptional is every optional interface above: a codec
// has none of them, and neither may its wrapper.
func linkAndTransportOptional() map[string]func(any) bool {
	all := map[string]func(any) bool{}
	for k, f := range linkOptional {
		all[k] = f
	}
	for k, f := range transportOptional {
		all[k] = f
	}
	return all
}

func implemented(v any, set map[string]func(any) bool) []string {
	var names []string
	for name, has := range set {
		if has(v) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// sameOptional fails t unless wrapper and inner implement the same
// optional interfaces, and returns them.
func sameOptional(t *testing.T, what string, inner, wrapper any, set map[string]func(any) bool) []string {
	t.Helper()
	want, got := implemented(inner, set), implemented(wrapper, set)
	if len(want) != len(got) {
		t.Errorf("%s: wrapper has %v, wrapped value has %v", what, got, want)
		return want
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: wrapper has %v, wrapped value has %v", what, got, want)
			break
		}
	}
	return want
}

func newTestTCP(t *testing.T) *tcp.Network {
	t.Helper()
	n, err := tcp.New(tcp.Config{Rank: 0, WorldSize: ranks})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func newTestShm(t *testing.T) *shm.Network {
	t.Helper()
	if !shm.Supported() {
		t.Skip("shm transport not supported on this platform")
	}
	n, err := shm.New(shm.Config{Rank: 0, WorldSize: ranks, Epoch: 1, Dir: t.TempDir(), Peers: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// addLink adds a link for VCI vci of rank 0.
func addLink(t *testing.T, tr interface {
	AddLink(rank, vci int) (nic.Link, error)
}, vci int) nic.Link {
	t.Helper()
	l, err := tr.AddLink(0, vci)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestWrapperParityTCP(t *testing.T) {
	rec := NewRecorder(ranks)
	n := newTestTCP(t)
	w := &tcpNet{inner: n, rec: rec, timeCodec: true}
	if got := sameOptional(t, "tcp transport", n, w, transportOptional); len(got) == 0 {
		t.Fatal("tcp transport has no optional interfaces: the check is vacuous")
	}
	// Each side gets its own VCI: one rank cannot register a VCI twice.
	raw, wrapped := addLink(t, n, 0), addLink(t, w, 1)
	if got := sameOptional(t, "tcp link", raw, wrapped, linkOptional); len(got) == 0 {
		t.Fatal("tcp link has no optional interfaces: the check is vacuous")
	}
	// The same wrapper type serves as a composite's remote leg.
	var _ composite.Leg = w
}

func TestWrapperParityShm(t *testing.T) {
	rec := NewRecorder(ranks)
	n := newTestShm(t)
	var leg composite.Leg = &shmLeg{inner: n, rec: rec}
	if got := sameOptional(t, "shm leg", n, leg, transportOptional); len(got) == 0 {
		t.Fatal("shm leg has no optional interfaces: the check is vacuous")
	}
	raw, wrapped := addLink(t, n, 0), addLink(t, leg, 1)
	if got := sameOptional(t, "shm link", raw, wrapped, linkOptional); len(got) == 0 {
		t.Fatal("shm link has no optional interfaces: the check is vacuous")
	}
}

func TestWrapperParityComposite(t *testing.T) {
	rec := NewRecorder(ranks)
	cfg := composite.Config{Rank: 0, WorldSize: ranks, NodeOf: make([]int, ranks)}
	raw, err := composite.New(cfg, newTestShm(t), newTestTCP(t))
	if err != nil {
		t.Fatal(err)
	}
	inner, err := composite.New(cfg,
		&shmLeg{inner: newTestShm(t), rec: rec}, &tcpNet{inner: newTestTCP(t), rec: rec})
	if err != nil {
		t.Fatal(err)
	}
	w := &compNet{inner: inner, rec: rec}
	if got := sameOptional(t, "composite transport", raw, w, transportOptional); len(got) == 0 {
		t.Fatal("composite transport has no optional interfaces: the check is vacuous")
	}
	if got := sameOptional(t, "composite link", addLink(t, raw, 0), addLink(t, w, 0), linkOptional); len(got) == 0 {
		t.Fatal("composite link has no optional interfaces: the check is vacuous")
	}
}

// The codec wrapper must add no optional interface: the codec the MPI
// layer installs has none.
func TestWrapperParityCodec(t *testing.T) {
	inner := nic.RelCodec(nil)
	w := &timedCodec{inner: inner, rec: NewRecorder(ranks)}
	sameOptional(t, "codec", inner, w, codecOptional)
	var _ nic.Codec = w
}
