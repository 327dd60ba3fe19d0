package mpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// Wire framing (docs/PROTOCOLS.md "Wire format"): each Message travels
// as a 4-byte payload length followed by a self-contained payload, every
// integer big-endian:
//
//	version u8 | op u16 | tag u64 | errLen u32 | err | count u32 |
//	count × (len u32, top bit = sign | magnitude, no leading zero byte)
//
// The frame boundary is what makes the transport safe against a lying
// peer: the header is validated against maxFrameBytes before any payload
// allocation, the payload buffer grows chunk by chunk as bytes actually
// arrive, and inside the payload count and every length are checked
// against the bytes that remain before anything is allocated for them.
// One message has one encoding, and frames are independently decodable,
// which is what makes FuzzFrameDecode possible.
const (
	// maxFrameBytes caps a frame payload. The largest legitimate frames
	// carry O(k·m + l) ciphertexts of ~256 bytes each; 16 MiB is
	// two orders of magnitude above that while still denying a liar any
	// meaningful allocation.
	maxFrameBytes  = 16 << 20
	frameHeaderLen = 4 // byte width of the length prefix
	wireVersion    = 1
	fixedLen       = 1 + 2 + 8 + 4 + 4 // payload of a Message with no Err and no Ints
	signBit        = 1 << 31
	wordBytes      = bits.UintSize / 8
)

// Frame-boundary errors.
var (
	// ErrFrameTooBig reports a frame whose declared or encoded payload
	// exceeds maxFrameBytes.
	ErrFrameTooBig = errors.New("mpc: frame exceeds size cap")
	// ErrWireVersion reports a payload that does not start with this
	// build's version byte — a peer on another wire format (the gob
	// frames of earlier builds land here). Upgrade both ends together.
	ErrWireVersion = errors.New("mpc: unknown wire format version")
	// ErrBadFrame reports a payload the codec cannot decode, or integers
	// a decoder refuses through Fields; core and smc export this value.
	ErrBadFrame = errors.New("mpc: malformed frame")
)

// encodeFrame serializes m into a complete frame, header plus payload,
// in one exactly-sized allocation.
func encodeFrame(m *Message) ([]byte, error) {
	size := int64(fixedLen) + int64(len(m.Err)) // int64: cannot wrap where int is 32 bits
	for i, v := range m.Ints {
		if v == nil {
			return nil, fmt.Errorf("mpc: encoding frame: Ints[%d] is nil", i)
		}
		size += int64(4 + (v.BitLen()+7)/8)
	}
	if size > maxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, size)
	}
	frame, be := make([]byte, frameHeaderLen+size), binary.BigEndian
	be.PutUint32(frame, uint32(size))
	frame[4] = wireVersion
	be.PutUint16(frame[5:], uint16(m.Op))
	be.PutUint64(frame[7:], m.Tag)
	be.PutUint32(frame[15:], uint32(len(m.Err)))
	p := frame[19+copy(frame[19:], m.Err):]
	be.PutUint32(p, uint32(len(m.Ints)))
	p = p[4:]
	for _, v := range m.Ints {
		n := (v.BitLen() + 7) / 8
		be.PutUint32(p, uint32(n))
		if v.Sign() < 0 {
			p[0] |= signBit >> 24
		}
		v.FillBytes(p[4 : 4+n])
		p = p[4+n:]
	}
	return frame, nil
}

// decodeFrame deserializes one frame payload (header already stripped
// and validated) into a Message. Everything is checked before anything
// is allocated; the integers then share one []big.Int and one word slab,
// each capped to its own words so growing one never touches a neighbour.
func decodeFrame(p []byte) (*Message, error) {
	switch {
	case len(p) > maxFrameBytes:
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, len(p))
	case len(p) > 0 && p[0] != wireVersion:
		return nil, fmt.Errorf("%w: first byte %#02x, want %#02x", ErrWireVersion, p[0], wireVersion)
	case len(p) < fixedLen:
		return nil, fmt.Errorf("%w: %d-byte payload", ErrBadFrame, len(p))
	}
	be := binary.BigEndian
	m := &Message{Op: Op(be.Uint16(p[1:])), Tag: be.Uint64(p[3:])}
	errLen := be.Uint32(p[11:])
	p = p[15:] // at least the 4 bytes of count remain
	if errLen > uint32(len(p)-4) {
		return nil, fmt.Errorf("%w: err of %d bytes, %d remain", ErrBadFrame, errLen, len(p)-4)
	}
	m.Err, p = string(p[:errLen]), p[errLen:]
	count := be.Uint32(p)
	p = p[4:]
	if count > uint32(len(p)/4) { // every integer costs at least its length field
		return nil, fmt.Errorf("%w: %d integers in %d bytes", ErrBadFrame, count, len(p))
	}
	words, q := 0, p
	for i := uint32(0); i < count; i++ {
		if len(q) < 4 {
			return nil, fmt.Errorf("%w: integer %d of %d missing", ErrBadFrame, i, count)
		}
		hdr := be.Uint32(q)
		n := hdr &^ signBit
		q = q[4:]
		if n > uint32(len(q)) {
			return nil, fmt.Errorf("%w: integer %d of %d bytes, %d remain", ErrBadFrame, i, n, len(q))
		}
		if n == 0 && hdr != 0 || n > 0 && q[0] == 0 { // negative zero, leading zero byte
			return nil, fmt.Errorf("%w: integer %d is not canonical", ErrBadFrame, i)
		}
		words, q = words+(int(n)+wordBytes-1)/wordBytes, q[n:]
	}
	if len(q) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(q))
	}
	if count == 0 {
		return m, nil
	}
	vals, slab := make([]big.Int, count), make([]big.Word, words)
	m.Ints = make([]*big.Int, count)
	for i := range vals {
		hdr := be.Uint32(p)
		n := int(hdr &^ signBit)
		w := (n + wordBytes - 1) / wordBytes
		// SetBytes fills the capacity SetBits lends it: no allocation.
		vals[i].SetBits(slab[:0:w]).SetBytes(p[4 : 4+n])
		if hdr&signBit != 0 {
			vals[i].Neg(&vals[i])
		}
		m.Ints[i], slab, p = &vals[i], slab[w:], p[4+n:]
	}
	return m, nil
}
