package framed

import (
	"encoding/binary"
	"sync"

	"gompix/internal/fabric"
	"gompix/internal/nic"
)

// Frames are encoded into pooled coalescing segments the moment they
// are posted and leave through one of two drains: vectors of the
// unwritten tails (tcp's writev) or copies into fixed-size cells
// (shm's ring). Frames never span segments, so apart from a partly
// written head every vector entry is frame-aligned; a segment seals
// once it crosses SegSoft and a fresh one opens, which bounds entries
// without copying.
const (
	// SegSoft is the coalescing target: an open segment accepts frames
	// until it crosses this size, then seals.
	SegSoft = 32 << 10
	// segSlack is extra capacity beyond SegSoft so the frame that seals
	// a segment usually fits without reallocating.
	segSlack = 4 << 10
	// maxPooledSeg drops segments that ballooned for a jumbo frame
	// instead of parking them in the pool forever.
	maxPooledSeg = 256 << 10
)

// outSeg is one coalescing segment: a byte run of consecutive frames.
// start is its offset in the peer's cumulative output stream.
type outSeg struct {
	buf   []byte
	start int64
}

var segPool = sync.Pool{
	New: func() any { return &outSeg{buf: make([]byte, 0, SegSoft+segSlack)} },
}

// OutFrame attributes a range of the output stream to the link that
// posted it, so the frame settles — pending release, plus the CQE
// carrying token for a signaled send — once the written watermark
// passes its end.
type OutFrame struct {
	link     *Link
	token    any
	signaled bool
	end      int64 // cumulative stream offset just past this frame
}

// OutQueue is one peer's coalescing output queue; every method
// requires the owning Peer.Mu. Positions are cumulative stream offsets
// — appended is every byte ever queued, written every byte the medium
// accepted, settled the end of the last frame settled — so resuming
// after a partial write is a subtraction, not a buffer shuffle.
type OutQueue struct {
	segs   []*outSeg
	frames []OutFrame

	appended int64
	written  int64
	settled  int64
}

// Pending returns the byte count queued but not yet written.
func (q *OutQueue) Pending() int64 { return q.appended - q.written }

// tip returns the open segment, opening a fresh one when the queue is
// empty or the last segment has sealed.
func (q *OutQueue) tip() *outSeg {
	if n := len(q.segs); n > 0 {
		if s := q.segs[n-1]; len(s.buf) < SegSoft {
			return s
		}
	}
	s := segPool.Get().(*outSeg)
	s.buf = s.buf[:0]
	s.start = q.appended
	q.segs = append(q.segs, s)
	return s
}

// appendFrame encodes one frame onto the open segment and records its
// attribution. A codec error unwinds the partial append.
func (q *OutQueue) appendFrame(codec nic.Codec, l *Link, dst fabric.EndpointID,
	payload any, bytes int, token any, signaled bool) error {
	s := q.tip()
	lenAt := len(s.buf)
	var hdr [4 + HdrLen]byte
	binary.LittleEndian.PutUint64(hdr[4:], uint64(dst))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(l.id))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(bytes))
	s.buf = append(s.buf, hdr[:]...)
	var err error
	s.buf, err = codec.Encode(s.buf, payload)
	if err != nil {
		s.buf = s.buf[:lenAt]
		return err
	}
	binary.LittleEndian.PutUint32(s.buf[lenAt:], uint32(len(s.buf)-lenAt-4))
	q.appended = s.start + int64(len(s.buf))
	q.frames = append(q.frames, OutFrame{link: l, token: token, signaled: signaled, end: q.appended})
	return nil
}

// AppendUnwritten appends the unwritten byte runs to dst, oldest
// first and at most limit of them: the head segment sliced past the
// written watermark, then whole segments. The runs alias the queue and
// stay valid until the next Advance.
func (q *OutQueue) AppendUnwritten(dst [][]byte, limit int) [][]byte {
	for _, s := range q.segs {
		if len(dst) >= limit {
			break
		}
		off := max(q.written-s.start, 0)
		if int(off) >= len(s.buf) {
			continue // fully written head, or an empty open tip
		}
		dst = append(dst, s.buf[off:])
	}
	return dst
}

// Fill copies the next unwritten bytes into dst, as many as fit, and
// advances the watermark past them. It is the copying drain: a frame
// larger than dst streams across as many Fills as it takes.
func (q *OutQueue) Fill(dst []byte) int {
	n := 0
	for _, s := range q.segs {
		off := max(q.written+int64(n)-s.start, 0)
		if int(off) >= len(s.buf) {
			continue
		}
		n += copy(dst[n:], s.buf[off:])
		if n == len(dst) {
			break
		}
	}
	q.Advance(int64(n))
	return n
}

// Advance moves the written watermark n bytes and recycles the
// segments it passed. Writes are in order, so only a leading run of
// segments can complete.
func (q *OutQueue) Advance(n int64) {
	q.written += n
	done := 0
	for _, s := range q.segs {
		if s.start+int64(len(s.buf)) > q.written {
			break
		}
		q.recycle(s)
		done++
	}
	if done > 0 {
		rest := copy(q.segs, q.segs[done:])
		clear(q.segs[rest:])
		q.segs = q.segs[:rest]
	}
}

func (q *OutQueue) recycle(s *outSeg) {
	if cap(s.buf) > maxPooledSeg {
		return // jumbo-frame segment: let the GC take it
	}
	s.buf = s.buf[:0]
	segPool.Put(s)
}

// Rewind moves the written watermark back to the end of the last
// settled frame, for a connection lost mid-frame: the cut frame's
// bytes go out again, whole, on the next connection. The caller
// settles first. Frames never span segments, so every byte past the
// last settled frame is still queued.
func (q *OutQueue) Rewind() { q.written = q.settled }

// popSettled moves the frames fully behind the written watermark into
// scratch, which the caller reuses across flushes.
func (q *OutQueue) popSettled(scratch []OutFrame) []OutFrame {
	scratch = scratch[:0]
	n := 0
	for _, f := range q.frames {
		if f.end > q.written {
			break
		}
		n++
	}
	if n == 0 {
		return scratch
	}
	scratch = append(scratch, q.frames[:n]...)
	q.settled = q.frames[n-1].end
	rest := copy(q.frames, q.frames[n:])
	clear(q.frames[rest:])
	q.frames = q.frames[:rest]
	return scratch
}

// TakeAll empties the queue — written or not — into scratch for a loss
// the caller settles with FailFrames.
func (q *OutQueue) TakeAll(scratch []OutFrame) []OutFrame {
	scratch = append(scratch[:0], q.frames...)
	clear(q.frames)
	q.frames = q.frames[:0]
	for _, s := range q.segs {
		q.recycle(s)
	}
	clear(q.segs)
	q.segs = q.segs[:0]
	q.written, q.settled = q.appended, q.appended
	return scratch
}
