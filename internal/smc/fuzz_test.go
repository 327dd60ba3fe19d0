package smc

import (
	"io"
	"math/big"
	mrand "math/rand"
	"testing"

	"sknn/internal/mpc"
)

// The fuzzer's byte string spells a payload element by element: a tag
// byte selects nil, a small signed integer (headers, counts, shifts), an
// arbitrary big-endian value of up to 255 bytes (in or out of the
// ciphertext group, oversized header fields) or a well-formed encryption
// of a small plaintext, so a mutated frame can also get past the group
// check and into the decrypting half of a handler.
const (
	fuzzNil = iota
	fuzzSmall
	fuzzBig
	fuzzCiphertext
	fuzzKinds
)

// fuzzMaxInts keeps one fuzz execution to a few dozen decryptions.
const fuzzMaxInts = 48

func decodeFuzzInts(t *testing.T, rp *Responder, random io.Reader, data []byte) []*big.Int {
	var out []*big.Int
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for len(data) > 0 && len(out) < fuzzMaxInts {
		switch next() % fuzzKinds {
		case fuzzNil:
			out = append(out, nil)
		case fuzzSmall:
			out = append(out, big.NewInt(int64(int8(next()))))
		case fuzzBig:
			n := min(int(next()), len(data))
			out = append(out, new(big.Int).SetBytes(data[:n]))
			data = data[n:]
		case fuzzCiphertext:
			ct, err := rp.sk.Encrypt(random, big.NewInt(int64(next())))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ct.Raw())
		}
	}
	return out
}

// encodeFuzzInts spells a payload of nils, int8-range integers and
// non-negative big values in the fuzzer's byte language (seeds only).
func encodeFuzzInts(ints []*big.Int) []byte {
	var out []byte
	for _, v := range ints {
		switch {
		case v == nil:
			out = append(out, fuzzNil)
		case v.IsInt64() && v.Int64() == int64(int8(v.Int64())):
			out = append(out, fuzzSmall, byte(v.Int64()))
		default:
			b := v.Bytes()
			out = append(append(out, fuzzBig, byte(len(b))), b...)
		}
	}
	return out
}

// FuzzResponderFrame throws arbitrary frames at C2's handlers, the one
// frame decoder in the repository that holds the secret key: whatever
// the opcode, tag and payload, Handle must not panic, and must return
// either an error or a reply to the same opcode whose length the request
// alone determines and whose elements are all present.
func FuzzResponderFrame(f *testing.F) {
	rp := NewResponder(testKey(), nil)
	mux := rp.Mux()
	for _, tc := range malformedFrames {
		f.Add(uint16(tc.msg.Op), uint64(0), encodeFuzzInts(tc.msg.Ints))
	}
	f.Add(uint16(OpSM), uint64(7), []byte{fuzzCiphertext, 6, fuzzCiphertext, 7})
	f.Add(uint16(OpSMIN), uint64(0), []byte{fuzzCiphertext, 1, fuzzNil})
	f.Add(uint16(OpSMPack), uint64(0), []byte{fuzzSmall, 1, fuzzSmall, 8, fuzzCiphertext, 3})
	f.Add(uint16(OpSMPack), uint64(0), []byte{fuzzNil, fuzzSmall, 8, fuzzCiphertext, 3})
	f.Add(uint16(OpSSEDPack), uint64(0), []byte{fuzzSmall, 1, fuzzSmall, 2, fuzzSmall, 8, fuzzCiphertext, 5})
	f.Add(uint16(OpSSEDPack), uint64(0), []byte{fuzzBig, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0, fuzzSmall, 2, fuzzSmall, 8})
	f.Add(uint16(OpSBDPackBit), uint64(1), []byte{fuzzSmall, 1, fuzzSmall, 9, fuzzSmall, 8, fuzzCiphertext, 200})
	f.Add(uint16(OpSBDPackBit), uint64(1), []byte{fuzzSmall, 1, fuzzSmall, 9, fuzzNil, fuzzCiphertext, 200})
	f.Add(uint16(22), uint64(0), []byte{fuzzSmall, 1, fuzzSmall, 8, fuzzCiphertext, 3}) // retired opcode
	f.Fuzz(func(t *testing.T, op uint16, tag uint64, data []byte) {
		// One fixed randomness stream per execution, for the harness's
		// ciphertexts and C2's nonces alike: the coverage an input reaches
		// must repeat, or the fuzzer spends its time minimizing flukes.
		rp.rand = mrand.New(mrand.NewSource(1))
		req := &mpc.Message{Op: mpc.Op(op), Tag: tag, Ints: decodeFuzzInts(t, rp, rp.rand, data)}
		resp, err := mux.Handle(req)
		if err != nil {
			return
		}
		want := len(req.Ints)
		switch req.Op {
		case mpc.OpPing:
			return // mpc's own echo, payload untouched
		case OpSBDLsb, OpSBDVerify:
		case OpSM:
			want /= 2
		case OpSMIN:
			want = want/2 + 1
		case OpSMPack, OpSSEDPack, OpSBDPackBit:
			want = int(req.Ints[0].Int64()) // the header's count field
		default:
			t.Fatalf("unregistered opcode %d answered", req.Op)
		}
		if resp.Op != req.Op || len(resp.Ints) != want {
			t.Fatalf("op %d with %d ints answered op %d with %d ints, want %d",
				req.Op, len(req.Ints), resp.Op, len(resp.Ints), want)
		}
		for i, v := range resp.Ints {
			if v == nil {
				t.Fatalf("op %d reply element %d is nil", req.Op, i)
			}
		}
	})
}
