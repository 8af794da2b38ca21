package mpi

import (
	"encoding/binary"
	"fmt"

	"gompix/internal/fabric"
)

// wireCodec serializes wireHdr protocol messages for byte-oriented
// transports (nic.Codec). The in-process pointer fields (sreq/rreq)
// never cross the wire; their sreqID/rreqID handle ids do — a decoded
// header always arrives with nil pointers and the netmod resolves the
// handles through the VCI's registry tables.
type wireCodec struct{}

// wireHdrLen is the fixed encoded header size (payload length prefix
// included). The terms are the field widths in encoding order:
//
//	kind src ctx tag bytes srcEP sreqID rreqID flow off last plen
const wireHdrLen = 1 + 4 + 4 + 8 + 4 + 8 + 8 + 8 + 8 + 4 + 1 + 4

func (wireCodec) Encode(buf []byte, payload any) ([]byte, error) {
	h, ok := payload.(*wireHdr)
	if !ok {
		return nil, fmt.Errorf("mpi: wireCodec cannot encode %T", payload)
	}
	var e [wireHdrLen]byte
	e[0] = byte(h.kind)
	binary.LittleEndian.PutUint32(e[1:], uint32(int32(h.src)))
	binary.LittleEndian.PutUint32(e[5:], h.ctx)
	binary.LittleEndian.PutUint64(e[9:], uint64(int64(h.tag)))
	binary.LittleEndian.PutUint32(e[17:], uint32(int32(h.bytes)))
	binary.LittleEndian.PutUint64(e[21:], uint64(h.srcEP))
	binary.LittleEndian.PutUint64(e[29:], h.sreqID)
	binary.LittleEndian.PutUint64(e[37:], h.rreqID)
	binary.LittleEndian.PutUint64(e[45:], h.flow)
	binary.LittleEndian.PutUint32(e[53:], uint32(int32(h.off)))
	if h.last {
		e[57] = 1
	}
	binary.LittleEndian.PutUint32(e[58:], uint32(len(h.payload)))
	buf = append(buf, e[:]...)
	return append(buf, h.payload...), nil
}

func (wireCodec) Decode(data []byte) (any, error) {
	if len(data) < wireHdrLen {
		return nil, fmt.Errorf("mpi: wireCodec short frame (%d bytes)", len(data))
	}
	h := newHdr()
	h.kind = msgKind(data[0])
	h.src = int(int32(binary.LittleEndian.Uint32(data[1:])))
	h.ctx = binary.LittleEndian.Uint32(data[5:])
	h.tag = int(int64(binary.LittleEndian.Uint64(data[9:])))
	h.bytes = int(int32(binary.LittleEndian.Uint32(data[17:])))
	h.srcEP = fabric.EndpointID(binary.LittleEndian.Uint64(data[21:]))
	h.sreqID = binary.LittleEndian.Uint64(data[29:])
	h.rreqID = binary.LittleEndian.Uint64(data[37:])
	h.flow = binary.LittleEndian.Uint64(data[45:])
	h.off = int(int32(binary.LittleEndian.Uint32(data[53:])))
	h.last = data[57] != 0
	plen := int(binary.LittleEndian.Uint32(data[58:]))
	if plen > len(data)-wireHdrLen {
		return nil, fmt.Errorf("mpi: wireCodec payload overruns frame (%d > %d)", plen, len(data)-wireHdrLen)
	}
	if plen > 0 {
		// The frame buffer is only valid during the call; the payload
		// must be a private copy (it lands in matching queues and user
		// buffers asynchronously).
		cp := make([]byte, plen)
		copy(cp, data[wireHdrLen:])
		h.payload = cp
	}
	return h, nil
}
