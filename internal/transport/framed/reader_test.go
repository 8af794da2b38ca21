package framed

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"gompix/internal/fabric"
	"gompix/internal/timing"
)

// fuzzMaxLen is the parser bound under fuzzing: small, so over-bound
// lengths are easy for the fuzzer to reach.
const fuzzMaxLen = 256

// fuzzEPs are the registered endpoints; anything else is unknown.
var fuzzEPs = []fabric.EndpointID{1, 2, 3}

func newFuzzHub(t *testing.T) (*Hub, []*Link) {
	h := NewHub("test", timing.NewRealClock())
	h.Codec = byteCodec{}
	links := make([]*Link, len(fuzzEPs))
	for i, ep := range fuzzEPs {
		links[i] = &Link{}
		if err := h.AddLink(links[i], ep); err != nil {
			t.Fatal(err)
		}
	}
	return h, links
}

// parseChunked feeds stream to a Reader in seeded random pieces,
// parsing after each, the way a socket or a ring delivers it. A frame
// for an unknown endpoint is skipped; any other error ends the stream.
// It returns each link's deliveries and whether the stream ended in an
// error.
func parseChunked(h *Hub, links []*Link, stream []byte, seed int64) (got [][]fabric.Packet, failed bool) {
	rng := rand.New(rand.NewSource(seed))
	var r Reader
	for len(stream) > 0 && !failed {
		k := 1 + rng.Intn(min(len(stream), 64))
		r.Fill(copy(r.Room(k), stream[:k]))
		stream = stream[k:]
		for {
			_, err := r.Parse(h, fuzzMaxLen)
			var ep *UnknownEndpointError
			if errors.As(err, &ep) {
				continue
			}
			failed = err != nil
			break
		}
	}
	got = make([][]fabric.Packet, len(links))
	buf := make([]fabric.Packet, 0, 16)
	for i, l := range links {
		for l.QueuedRQ() > 0 {
			got[i] = append(got[i], l.DrainRQ(buf)...)
		}
	}
	return got, failed
}

// FuzzFrameStream checks the frame parser against the stream a peer —
// or whoever scribbles on a shared segment — controls entirely:
//
//   - arbitrary bytes, arbitrarily split, never panic the parser and
//     never deliver a frame longer than the bound;
//   - a valid stream built from the same bytes parses to exactly the
//     posted frames, per link in order, however it is split.
//
// The committed corpus (testdata/fuzz/FuzzFrameStream) seeds a valid
// stream, an unknown endpoint between valid frames, lengths below the
// header and above the bound (the tcp goodbye marker among them), a
// payload the codec rejects, and a truncated frame.
func FuzzFrameStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		h, links := newFuzzHub(t)
		got, _ := parseChunked(h, links, data, seed)
		for _, ps := range got {
			for _, p := range ps {
				if n := HdrLen + len(p.Payload.([]byte)); n > fuzzMaxLen {
					t.Fatalf("delivered a %d-byte frame past the %d-byte bound", n, fuzzMaxLen)
				}
			}
		}

		// Re-read data as frames: each takes a destination and a
		// length from its first byte and that many payload bytes.
		h, links = newFuzzHub(t)
		src := &Link{id: 42}
		var q OutQueue
		want := make([][]fabric.Packet, len(links))
		for rest := data; len(rest) > 0; {
			i := int(rest[0]) % len(links)
			n := min(int(rest[0])%64, len(rest)-1)
			payload := bytes.Clone(rest[1 : 1+n])
			rest = rest[1+n:]
			if len(payload) > 0 && payload[0] == 0xEE {
				payload[0] = 0 // keep it decodable
			}
			if err := q.appendFrame(h.Codec, src, fuzzEPs[i], payload, n, nil, false); err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], fabric.Packet{Src: src.id, Dst: fuzzEPs[i], Payload: payload, Bytes: n})
		}
		stream := make([]byte, q.Pending())
		q.Fill(stream)
		got, failed := parseChunked(h, links, stream, seed)
		if failed {
			t.Fatal("a valid stream failed to parse")
		}
		for i := range links {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("link %d: %d frames, want %d", i, len(got[i]), len(want[i]))
			}
			for j, p := range got[i] {
				w := want[i][j]
				if p.Src != w.Src || p.Dst != w.Dst || p.Bytes != w.Bytes ||
					!bytes.Equal(p.Payload.([]byte), w.Payload.([]byte)) {
					t.Fatalf("link %d frame %d: got %+v, want %+v", i, j, p, w)
				}
			}
		}
	})
}

// TestParseStopsAtBadFrame pins what each stream error leaves behind:
// frames before it are delivered, a bad length stays unconsumed, and an
// unknown endpoint's frame is consumed so the parse can go on.
func TestParseStopsAtBadFrame(t *testing.T) {
	h, links := newFuzzHub(t)
	var q OutQueue
	post := func(dst fabric.EndpointID, payload string) {
		if err := q.appendFrame(h.Codec, links[0], dst, []byte(payload), len(payload), nil, false); err != nil {
			t.Fatal(err)
		}
	}
	post(2, "a")
	post(99, "b") // unknown endpoint
	post(3, "c")
	stream := make([]byte, q.Pending(), q.Pending()+4)
	q.Fill(stream)
	stream = append(stream, 0xFF, 0xFF, 0xFF, 0xFF) // over the bound

	var r Reader
	r.Fill(copy(r.Room(len(stream)), stream))
	var ep *UnknownEndpointError
	if n, err := r.Parse(h, fuzzMaxLen); n != 1 || !errors.As(err, &ep) || ep.Dst != 99 {
		t.Fatalf("first Parse = (%d, %v), want 1 frame then unknown endpoint 99", n, err)
	}
	var le *LengthError
	if n, err := r.Parse(h, fuzzMaxLen); n != 1 || !errors.As(err, &le) || le.Len != 0xFFFFFFFF {
		t.Fatalf("second Parse = (%d, %v), want 1 frame then length 0xFFFFFFFF", n, err)
	}
	if r.Buffered() != 4 {
		t.Fatalf("%d bytes buffered after the bad length, want its 4", r.Buffered())
	}
	if links[1].QueuedRQ() != 1 || links[2].QueuedRQ() != 1 {
		t.Fatalf("RQ depths %d/%d, want 1/1", links[1].QueuedRQ(), links[2].QueuedRQ())
	}
}
