package framed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"

	"gompix/internal/fabric"
)

// byteCodec round-trips []byte payloads — enough to exercise framing.
// Decode rejects a payload opening with 0xEE, so the parser's
// decode-error path is reachable.
type byteCodec struct{}

func (byteCodec) Encode(buf []byte, payload any) ([]byte, error) {
	b, ok := payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("byteCodec: %T", payload)
	}
	return append(buf, b...), nil
}

func (byteCodec) Decode(data []byte) (any, error) {
	if len(data) > 0 && data[0] == 0xEE {
		return nil, errors.New("byteCodec: rejected payload")
	}
	return bytes.Clone(data), nil
}

// budgetWriter accepts at most left bytes in total, honoring the
// io.Writer contract by returning io.ErrShortWrite on truncation — the
// shape of a shaped or backpressured connection.
type budgetWriter struct {
	dst  *bytes.Buffer
	left int
}

func (w *budgetWriter) Write(p []byte) (int, error) {
	n := min(len(p), w.left)
	w.dst.Write(p[:n])
	w.left -= n
	if n < len(p) {
		return n, io.ErrShortWrite
	}
	return n, nil
}

// A medium is one way bytes leave the queue; step moves at most budget
// bytes onto stream, as one drain call of a transport does.
type medium struct {
	name string
	step func(q *OutQueue, budget int, stream *bytes.Buffer)
}

var media = []medium{
	// writev: the vectored drain, unwritten runs handed to a writer
	// that stops short — tcp's socket writes.
	{"writev", func(q *OutQueue, budget int, stream *bytes.Buffer) {
		iov := net.Buffers(q.AppendUnwritten(nil, 64))
		nn, _ := iov.WriteTo(&budgetWriter{dst: stream, left: budget})
		q.Advance(nn)
	}},
	// cells: the copying drain into one fixed-size cell — shm's ring
	// pump. Cells smaller than a frame make frames reassemble across
	// cells.
	{"cells", func(q *OutQueue, budget int, stream *bytes.Buffer) {
		cell := make([]byte, budget)
		stream.Write(cell[:q.Fill(cell)])
	}},
}

// fillQueue appends count frames of seeded pseudo-random sizes (biased
// to straddle the segment boundary) and returns the expected payloads
// in post order.
func fillQueue(t *testing.T, q *OutQueue, l *Link, count int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	payloads := make([][]byte, count)
	for i := 0; i < count; i++ {
		var size int
		switch rng.Intn(3) {
		case 0:
			size = 1 + rng.Intn(24)
		case 1:
			size = SegSoft/2 + rng.Intn(SegSoft)
		default:
			size = 100 + rng.Intn(4000)
		}
		b := make([]byte, size)
		rng.Read(b)
		payloads[i] = b
		if err := q.appendFrame(byteCodec{}, l, fabric.EndpointID(1000+i), b, size, i, true); err != nil {
			t.Fatal(err)
		}
	}
	return payloads
}

// verifyStream re-parses the drained byte stream and checks every frame
// boundary, header and payload against the posted order, starting at
// frame first — proof that no drain fragmentation split, duplicated or
// reordered frame bytes.
func verifyStream(t *testing.T, stream []byte, src fabric.EndpointID, payloads [][]byte, first int) {
	t.Helper()
	for i := first; i < len(payloads); i++ {
		want := payloads[i]
		if len(stream) < 4 {
			t.Fatalf("frame %d: stream truncated at length prefix", i)
		}
		total := 4 + int(binary.LittleEndian.Uint32(stream))
		if len(stream) < total {
			t.Fatalf("frame %d: stream has %d bytes of a %d-byte frame", i, len(stream), total)
		}
		frame := stream[4:total]
		if got := fabric.EndpointID(binary.LittleEndian.Uint64(frame[0:])); got != fabric.EndpointID(1000+i) {
			t.Fatalf("frame %d: dst endpoint %d, want %d", i, got, 1000+i)
		}
		if got := fabric.EndpointID(binary.LittleEndian.Uint64(frame[8:])); got != src {
			t.Fatalf("frame %d: src endpoint %d, want %d", i, got, src)
		}
		if got := int(binary.LittleEndian.Uint32(frame[16:])); got != len(want) {
			t.Fatalf("frame %d: bytes field %d, want %d", i, got, len(want))
		}
		if !bytes.Equal(frame[HdrLen:], want) {
			t.Fatalf("frame %d: payload corrupted across drain fragmentation", i)
		}
		stream = stream[total:]
	}
	if len(stream) != 0 {
		t.Fatalf("%d trailing bytes after the last frame", len(stream))
	}
}

// drainAll steps the medium until the queue is empty.
func drainAll(q *OutQueue, m medium, budget int, stream *bytes.Buffer) {
	for q.Pending() > 0 {
		m.step(q, budget, stream)
	}
}

// TestOutQueueShortWriteResume: a medium that takes only a few bytes
// per step forces the resume-from-watermark path on every step; the
// resulting stream must still be byte-exact, with every frame settling
// exactly once, in post order.
func TestOutQueueShortWriteResume(t *testing.T) {
	for _, m := range media {
		t.Run(m.name, func(t *testing.T) {
			l := &Link{id: 7}
			var q OutQueue
			payloads := fillQueue(t, &q, l, 40, 1)
			var stream bytes.Buffer
			drainAll(&q, m, 13, &stream)
			verifyStream(t, stream.Bytes(), l.id, payloads, 0)
			settled := q.popSettled(nil)
			if len(settled) != len(payloads) {
				t.Fatalf("settled %d frames, want %d", len(settled), len(payloads))
			}
			for i, f := range settled {
				if f.token != i {
					t.Fatalf("settlement %d carries token %v — out of post order", i, f.token)
				}
			}
		})
	}
}

// TestOutQueueStutteredSettlement: settling after every bounded step
// observes the watermark mid-flight — popSettled may only release
// frames whose bytes are fully drained, in order, never early and
// never twice. The cells are smaller than most frames, so a frame
// settles only once the cell carrying its last byte is filled.
func TestOutQueueStutteredSettlement(t *testing.T) {
	for _, m := range media {
		t.Run(m.name, func(t *testing.T) {
			l := &Link{id: 9}
			var q OutQueue
			payloads := fillQueue(t, &q, l, 25, 2)
			var stream bytes.Buffer
			next := 0
			for q.Pending() > 0 {
				m.step(&q, 1000, &stream)
				for _, f := range q.popSettled(nil) {
					if f.token != next {
						t.Fatalf("settlement token %v, want %d", f.token, next)
					}
					if f.end > q.written {
						t.Fatalf("frame %d settled at end=%d past written=%d", next, f.end, q.written)
					}
					next++
				}
				if len(q.frames) > 0 && q.frames[0].end <= q.written {
					t.Fatalf("frame %d drained but left unsettled", next)
				}
			}
			if next != len(payloads) {
				t.Fatalf("settled %d frames, want %d", next, len(payloads))
			}
			verifyStream(t, stream.Bytes(), l.id, payloads, 0)
		})
	}
}

// TestOutQueueMultiSegmentVectoredResume: enough traffic to seal many
// segments hands multi-entry vectors to the writer (and makes cells
// cross segment boundaries); resuming from the watermark must re-slice
// a partially drained head segment.
func TestOutQueueMultiSegmentVectoredResume(t *testing.T) {
	for _, m := range media {
		t.Run(m.name, func(t *testing.T) {
			l := &Link{id: 3}
			var q OutQueue
			payloads := fillQueue(t, &q, l, 120, 3)
			if n := len(q.AppendUnwritten(nil, 64)); n < 3 {
				t.Fatalf("want ≥ 3 sealed segments to exercise writev, got %d", n)
			}
			var stream bytes.Buffer
			drainAll(&q, m, 7<<10, &stream) // smaller than a sealed segment
			verifyStream(t, stream.Bytes(), l.id, payloads, 0)
			if got := len(q.popSettled(nil)); got != len(payloads) {
				t.Fatalf("settled %d frames, want %d", got, len(payloads))
			}
		})
	}
}

// TestOutQueueRewindResendsCutFrame: a connection lost mid-frame
// settles what was drained whole, and Rewind makes the next connection
// start at the cut frame — every frame from it onward arrives whole,
// none twice.
func TestOutQueueRewindResendsCutFrame(t *testing.T) {
	for _, m := range media {
		t.Run(m.name, func(t *testing.T) {
			l := &Link{id: 5}
			var q OutQueue
			payloads := fillQueue(t, &q, l, 60, 4)
			var lost bytes.Buffer
			for i := 0; i < 9; i++ {
				m.step(&q, 5000, &lost) // 45000 bytes: cuts a frame
			}
			cut := len(q.popSettled(nil))
			if q.settled == q.written {
				t.Fatal("drain ended on a frame boundary; pick a budget that cuts one")
			}
			q.Rewind()
			var resent bytes.Buffer
			drainAll(&q, m, 5000, &resent)
			verifyStream(t, resent.Bytes(), l.id, payloads, cut)
			if got := len(q.popSettled(nil)); got != len(payloads)-cut {
				t.Fatalf("settled %d frames after the rewind, want %d", got, len(payloads)-cut)
			}
		})
	}
}
