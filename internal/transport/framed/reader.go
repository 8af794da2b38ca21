package framed

import (
	"encoding/binary"
	"fmt"

	"gompix/internal/fabric"
)

// deliverRunCap caps a same-link delivery run before it is pushed
// under the link's RQ lock.
const deliverRunCap = 256

// Reader is the receive side of one inbound byte stream: a compacting
// reassembly buffer and the in-place frame parser that delivers
// complete frames to the links' receive queues in same-link runs.
// Callers serialize all use.
type Reader struct {
	buf      []byte
	pos, end int // unparsed region buf[pos:end]

	dlv     []fabric.Packet
	dlvLink *Link
}

// LengthError reports a length prefix outside [HdrLen, maxLen]; the
// stream is left at the offending prefix.
type LengthError struct{ Len uint32 }

func (e *LengthError) Error() string { return fmt.Sprintf("corrupt frame length %d", e.Len) }

// UnknownEndpointError reports a well-formed frame addressed to an
// endpoint no link registered; the frame has been consumed.
type UnknownEndpointError struct{ Dst fabric.EndpointID }

func (e *UnknownEndpointError) Error() string {
	return fmt.Sprintf("frame for unknown endpoint %d", e.Dst)
}

// Reset drops any buffered bytes and takes buf as the buffer (nil
// allocates on the next Room).
func (r *Reader) Reset(buf []byte) {
	r.buf, r.pos, r.end = buf, 0, 0
}

// Room returns the writable tail of the buffer, at least n bytes long:
// the consumed prefix is compacted first, and the buffer doubles only
// when the live region itself outgrows it (a frame larger than the
// buffer).
func (r *Reader) Room(n int) []byte {
	if r.end+n <= len(r.buf) {
		return r.buf[r.end:]
	}
	live := r.end - r.pos
	if r.pos > 0 {
		copy(r.buf, r.buf[r.pos:r.end])
		r.pos, r.end = 0, live
	}
	if r.end+n <= len(r.buf) {
		return r.buf[r.end:]
	}
	size := len(r.buf)
	if size == 0 {
		size = 16 << 10
	}
	for size < live+n {
		size *= 2
	}
	nb := make([]byte, size)
	copy(nb, r.buf[:r.end])
	r.buf = nb
	return r.buf[r.end:]
}

// Fill commits n bytes written into the slice Room returned.
func (r *Reader) Fill(n int) { r.end += n }

// Buffered returns the bytes received but not yet parsed: a partial
// frame, or frames Parse stopped short of.
func (r *Reader) Buffered() int { return r.end - r.pos }

// Parse consumes the complete frames buffered so far and delivers them
// to the links of h, returning how many it delivered. It stops at the
// first frame it cannot deliver: a length outside [HdrLen, maxLen]
// (*LengthError), a payload the codec rejects, or an unregistered
// destination (*UnknownEndpointError). Frames parsed before the error
// are delivered.
func (r *Reader) Parse(h *Hub, maxLen uint32) (frames int, err error) {
	for r.end-r.pos >= 4 {
		flen := binary.LittleEndian.Uint32(r.buf[r.pos:])
		if flen < HdrLen || flen > maxLen {
			err = &LengthError{Len: flen}
			break
		}
		total := 4 + int(flen)
		if r.end-r.pos < total {
			break // partial frame: Room grows the buffer for it
		}
		f := r.buf[r.pos+4 : r.pos+total]
		r.pos += total
		dst := fabric.EndpointID(binary.LittleEndian.Uint64(f[0:]))
		src := fabric.EndpointID(binary.LittleEndian.Uint64(f[8:]))
		bytes := int(binary.LittleEndian.Uint32(f[16:]))
		payload, derr := h.Codec.Decode(f[HdrLen:])
		if derr != nil {
			err = fmt.Errorf("decode frame from ep %d: %w", src, derr)
			break
		}
		l := h.lookup(dst)
		if l == nil {
			err = &UnknownEndpointError{Dst: dst}
			break
		}
		r.push(l, fabric.Packet{Src: src, Dst: dst, Payload: payload, Bytes: bytes})
		frames++
	}
	r.flushDeliveries()
	if r.pos == r.end {
		r.pos, r.end = 0, 0
	}
	return frames, err
}

// push batches consecutive packets for the same link so a burst costs
// one RQ lock per run instead of per frame.
func (r *Reader) push(l *Link, p fabric.Packet) {
	if r.dlvLink != l || len(r.dlv) >= deliverRunCap {
		r.flushDeliveries()
		r.dlvLink = l
	}
	r.dlv = append(r.dlv, p)
}

func (r *Reader) flushDeliveries() {
	if len(r.dlv) > 0 {
		r.dlvLink.deliverBatch(r.dlv)
		clear(r.dlv)
		r.dlv = r.dlv[:0]
	}
	r.dlvLink = nil
}
