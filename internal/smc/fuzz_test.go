package smc

import (
	"errors"
	"io"
	"math/big"
	mrand "math/rand"
	"testing"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/testkit"
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
// alone determines and whose elements are all present. k512 serves the
// frame under a 512-bit key, where short slot groups decrypt under one
// prime factor.
func FuzzResponderFrame(f *testing.F) {
	for _, tc := range malformedFrames {
		f.Add(uint16(tc.msg.Op), uint64(0), false, encodeFuzzInts(tc.msg.Ints))
	}
	f.Add(uint16(OpSM), uint64(7), false, []byte{fuzzCiphertext, 6, fuzzCiphertext, 7})
	f.Add(uint16(OpSMIN), uint64(0), false, []byte{fuzzCiphertext, 1, fuzzNil})
	f.Add(uint16(OpSSEDPack), uint64(0), false, []byte{fuzzSmall, 1, fuzzSmall, 2, fuzzSmall, 8, fuzzCiphertext, 5})
	f.Add(uint16(OpSSEDPack), uint64(0), false, []byte{fuzzBig, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0, fuzzSmall, 2, fuzzSmall, 8})
	f.Add(uint16(OpSBDPackBit), uint64(1), false, []byte{fuzzSmall, 1, fuzzSmall, 9, fuzzSmall, 3, fuzzCiphertext, 200})
	f.Add(uint16(OpSBDPackBit), uint64(1), false, []byte{fuzzSmall, 1, fuzzSmall, 9, fuzzNil, fuzzCiphertext, 200})
	// The output round: [count, valueBits, shift, per, opBits], the
	// remainder group, the operand groups — well formed, then with per and
	// opBits lying.
	f.Add(uint16(OpSBDPackBit), uint64(1), false, []byte{fuzzSmall, 1, fuzzSmall, 9, fuzzSmall, 8, fuzzSmall, 1, fuzzSmall, 9, fuzzCiphertext, 200, fuzzCiphertext, 9})
	f.Add(uint16(OpSBDPackBit), uint64(1), false, []byte{fuzzSmall, 2, fuzzSmall, 9, fuzzSmall, 8, fuzzSmall, 2, fuzzSmall, 37, fuzzCiphertext, 200, fuzzCiphertext, 9, fuzzCiphertext, 4})
	f.Add(uint16(OpSBDPackBit), uint64(1), false, []byte{fuzzSmall, 1, fuzzSmall, 9, fuzzSmall, 8, fuzzSmall, 5, fuzzSmall, 9, fuzzCiphertext, 200, fuzzCiphertext, 9})
	f.Add(uint16(OpSBDPackBit), uint64(1), false, []byte{fuzzSmall, 1, fuzzSmall, 9, fuzzSmall, 8, fuzzSmall, 1, fuzzSmall, 120, fuzzCiphertext, 200, fuzzCiphertext, 9})
	f.Add(uint16(OpSBDPackBit), uint64(1), false, []byte{fuzzSmall, 1, fuzzSmall, 9, fuzzSmall, 8, fuzzSmall, 0xff, fuzzSmall, 9, fuzzCiphertext, 200, fuzzCiphertext, 9})
	f.Add(uint16(OpSBDPackBit), uint64(1), false, []byte{fuzzSmall, 1, fuzzSmall, 9, fuzzSmall, 8, fuzzBig, 4, 0x7f, 0xff, 0xff, 0xff, fuzzSmall, 9, fuzzCiphertext, 200})
	f.Add(uint16(OpSBDPackBit), uint64(1), false, []byte{fuzzSmall, 1, fuzzSmall, 9, fuzzSmall, 8, fuzzCiphertext, 200, fuzzCiphertext, 9})
	f.Add(uint16(22), uint64(0), false, []byte{fuzzSmall, 1, fuzzSmall, 8, fuzzCiphertext, 3})       // retired opcode
	f.Add(uint16(OpSMPack), uint64(0), false, []byte{fuzzSmall, 1, fuzzSmall, 8, fuzzCiphertext, 3}) // retired opcode
	// Short groups under a 512-bit key, whose 256-bit factors decrypt them
	// alone: two 78-bit peel slots, and one record's two 72-bit SSED slots.
	f.Add(uint16(OpSBDPackBit), uint64(1), true, []byte{fuzzSmall, 2, fuzzSmall, 12, fuzzSmall, 3, fuzzCiphertext, 200})
	f.Add(uint16(OpSSEDPack), uint64(0), true, []byte{fuzzSmall, 1, fuzzSmall, 2, fuzzSmall, 6, fuzzCiphertext, 5})
	f.Fuzz(func(t *testing.T, op uint16, tag uint64, k512 bool, data []byte) {
		// One fixed randomness stream per execution, for the harness's
		// ciphertexts and C2's nonces alike: the coverage an input reaches
		// must repeat, or the fuzzer spends its time minimizing flukes.
		random := mrand.New(mrand.NewSource(1))
		sk := testKey()
		if k512 {
			sk = testkit.Key(512)
		}
		rp := NewResponder(sk, random)
		req := &mpc.Message{Op: mpc.Op(op), Tag: tag, Ints: decodeFuzzInts(t, rp, random, data)}
		resp, err := rp.Mux().Handle(req)
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
		case OpSSEDPack:
			want = int(req.Ints[0].Int64()) // the header's count field
		case OpSBDPackBit:
			// count bits, and per products a value in the output round.
			want = int(req.Ints[0].Int64())
			if req.Ints[2].Int64() == req.Ints[1].Int64()-1 {
				want *= 1 + int(req.Ints[3].Int64())
			}
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

// FuzzRequesterReply is FuzzResponderFrame's other half: C1's side of the
// wire. It drives one requester primitive — SM, SBD, SMIN, the packed
// SSED scan or the value-domain comparator — against the genuine
// responder, except that one of its rounds, the fuzzer's pick, is
// answered with fuzzed integers in place of C2's reply. Whatever the
// reply, the requester must not panic, and must return either a result
// or an error that is ErrBadFrame, a refusal C2 sent back to a later
// round (*mpc.RemoteError), or ErrSBDVerify.
func FuzzRequesterReply(f *testing.F) {
	sk := testKey()
	// The primitives' inputs, built once: the fuzzed reply varies, they do not.
	a, b := encVec(f, sk, 6, 7), encVec(f, sk, 3, 5)
	u, v := encBits(f, sk, 5, 3), encBits(f, sk, 2, 3)
	q := encVec(f, sk, 3, 14, 7)
	rows := [][]*paillier.Ciphertext{encVec(f, sk, 1, 15, 2), encVec(f, sk, 9, 0, 4)}
	packed := packRows(f, &sk.PublicKey, 4, rows)
	pairs := []SMINValuePair{
		{A: a[0], B: b[0], RecA: encVec(f, sk, 1), RecB: encVec(f, sk, 200)},
		{A: a[1], B: b[1], RecA: encVec(f, sk, 255), RecB: encVec(f, sk, 0)},
	}
	prims := []func(rq *Requester) error{
		func(rq *Requester) error { _, err := rq.SMBatch(a, b); return err },
		func(rq *Requester) error { _, err := rq.SBDBatch(a, 4); return err },
		func(rq *Requester) error { _, err := rq.SMIN(u, v); return err },
		func(rq *Requester) error { _, err := rq.SSEDManyPacked(q, rows, packed); return err },
		func(rq *Requester) error { _, _, err := rq.SMINValuePairsBatch(pairs, 4, 8); return err },
	}
	for prim := range prims {
		for round := uint8(0); round < 6; round++ {
			f.Add(uint8(prim), round, []byte{fuzzCiphertext, 1, fuzzCiphertext, 0, fuzzCiphertext, 5})
		}
		f.Add(uint8(prim), uint8(0), []byte{fuzzNil, fuzzCiphertext, 1})
		f.Add(uint8(prim), uint8(0), []byte{fuzzSmall, 1, fuzzSmall, 0})
		f.Add(uint8(prim), uint8(1), encodeFuzzInts([]*big.Int{new(big.Int).Lsh(big.NewInt(1), 64), nil}))
	}
	f.Fuzz(func(t *testing.T, prim, round uint8, data []byte) {
		// Fixed randomness streams per execution, so the coverage an input
		// reaches repeats: one for C1 and the fuzzed ciphertexts, one for
		// C2, whose reserve draws ahead on its raiser while C1 computes.
		random := mrand.New(mrand.NewSource(1))
		rp := NewResponder(sk, mrand.New(mrand.NewSource(2)))
		reply := decodeFuzzInts(t, rp, random, data)
		inner, calls := rp.Mux(), 0
		h := mpc.HandlerFunc(func(req *mpc.Message) (*mpc.Message, error) {
			calls++
			if calls-1 == int(round) {
				return &mpc.Message{Op: req.Op, Ints: reply}, nil
			}
			return inner.Handle(req)
		})
		c1Side, c2Side := mpc.ChanPipe()
		done := make(chan error, 1)
		go func() { done <- mpc.Serve(c2Side, h) }()
		defer func() {
			c1Side.Close()
			c2Side.Close()
			<-done
		}()
		err := prims[int(prim)%len(prims)](NewRequester(&sk.PublicKey, c1Side, random))
		var remote *mpc.RemoteError
		if err != nil && !errors.Is(err, ErrBadFrame) && !errors.As(err, &remote) && !errors.Is(err, ErrSBDVerify) {
			t.Fatalf("primitive %d, round %d fuzzed: %v", int(prim)%len(prims), round, err)
		}
	})
}
