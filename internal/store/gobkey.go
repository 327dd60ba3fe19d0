package store

import (
	"fmt"
	"math/big"
)

// gobKeyFactors reads p and q out of the blob a v1 or v2 key file holds:
// the encoding/gob stream of one struct{ P, Q *big.Int }. It reads that
// one shape and nothing else, so the package needs no gob decoder:
//
//   - the stream is messages, each a byte count, a type id and a body;
//   - type definitions (negative ids) are skipped;
//   - the one value message (a positive id) is the struct: per field a
//     field-number delta — P is field 0, Q field 1 — and the value, and
//     a zero delta ends it;
//   - a *big.Int field's value is its GobEncode bytes, a count and then
//     a version byte (1<<1, sign bit clear) and the big-endian magnitude.
//
// Counts and deltas are gob unsigned integers: below 128 one byte, else
// a byte holding minus the number of big-endian bytes that follow. Anything
// off this shape — a trailing message, an unknown field, a negative or
// unversioned integer — is ErrFormat.
func gobKeyFactors(blob []byte) (p, q *big.Int, err error) {
	bad := func(what string) (*big.Int, *big.Int, error) {
		return nil, nil, fmt.Errorf("%w: v2 key blob: %s", ErrFormat, what)
	}
	g := gobReader{b: blob}
	for {
		size, ok := g.uint()
		if !ok || size > uint64(len(g.b)) {
			return bad("message length")
		}
		msg := gobReader{b: g.b[:size]}
		g.b = g.b[size:]
		id, ok := msg.uint()
		if !ok || id == 0 {
			return bad("type id")
		}
		if id&1 == 1 { // a negative id: a type definition
			continue
		}
		factors := [2]*big.Int{}
		field := -1
		for {
			delta, ok := msg.uint()
			if !ok || delta > 2 {
				return bad("field number")
			}
			if delta == 0 {
				break
			}
			if field += int(delta); field > 1 {
				return bad("field number")
			}
			n, ok := msg.uint()
			if !ok || n < 1 || n > maxFactorBytes+1 || n > uint64(len(msg.b)) {
				return bad("integer length")
			}
			if msg.b[0] != 1<<1 {
				return bad("integer version or sign")
			}
			factors[field] = new(big.Int).SetBytes(msg.b[1:n])
			msg.b = msg.b[n:]
		}
		if len(msg.b) != 0 || len(g.b) != 0 {
			return bad("trailing bytes")
		}
		return factors[0], factors[1], nil
	}
}

// gobReader walks a gob stream's unsigned integers.
type gobReader struct{ b []byte }

func (g *gobReader) uint() (uint64, bool) {
	if len(g.b) == 0 {
		return 0, false
	}
	c := g.b[0]
	g.b = g.b[1:]
	if c < 0x80 {
		return uint64(c), true
	}
	n := int(-int8(c))
	if n < 1 || n > 8 || n > len(g.b) {
		return 0, false
	}
	var v uint64
	for _, x := range g.b[:n] {
		v = v<<8 | uint64(x)
	}
	g.b = g.b[n:]
	return v, true
}
