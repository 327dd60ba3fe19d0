package core

import (
	"context"
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	mrand "math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/smc"
)

// handlerMux returns the C2 dispatch mux for direct handler-level tests.
func handlerMux(t *testing.T) (*mpc.Mux, *paillier.PrivateKey) {
	t.Helper()
	sk := testKey()
	return NewCloudC2(sk, nil).Mux(), sk
}

func encRaw(t *testing.T, sk *paillier.PrivateKey, v int64) *big.Int {
	t.Helper()
	ct, err := sk.Encrypt(rand.Reader, big.NewInt(v))
	if err != nil {
		t.Fatal(err)
	}
	return ct.Raw()
}

func TestHandleRankOrdersAndTies(t *testing.T) {
	mux, sk := handlerMux(t)
	// distances 9, 3, 3, 7 → top-3 = indices 1, 2 (tie in index order), 3.
	payload := []*big.Int{big.NewInt(3),
		encRaw(t, sk, 9), encRaw(t, sk, 3), encRaw(t, sk, 3), encRaw(t, sk, 7)}
	resp, err := mux.Handle(&mpc.Message{Op: OpRank, Ints: payload})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 3}
	for i, w := range want {
		if resp.Ints[i].Int64() != w {
			t.Errorf("δ[%d] = %v, want %d", i, resp.Ints[i], w)
		}
	}
}

func TestHandleRankValidation(t *testing.T) {
	mux, sk := handlerMux(t)
	cases := []struct {
		name string
		msg  *mpc.Message
	}{
		{"empty", &mpc.Message{Op: OpRank}},
		{"k too large", &mpc.Message{Op: OpRank, Ints: []*big.Int{big.NewInt(5), encRaw(t, sk, 1)}}},
		{"k zero", &mpc.Message{Op: OpRank, Ints: []*big.Int{big.NewInt(0), encRaw(t, sk, 1)}}},
		{"bad ciphertext", &mpc.Message{Op: OpRank, Ints: []*big.Int{big.NewInt(1), big.NewInt(0)}}},
		{"huge k", &mpc.Message{Op: OpRank, Ints: []*big.Int{new(big.Int).Lsh(big.NewInt(1), 80), encRaw(t, sk, 1)}}},
		{"nil k", &mpc.Message{Op: OpRank, Ints: []*big.Int{nil, encRaw(t, sk, 1)}}}, // an in-process peer can send one
	}
	for _, tc := range cases {
		if _, err := mux.Handle(tc.msg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestHandleHelloValidation(t *testing.T) {
	mux, sk := handlerMux(t)
	if _, err := mux.Handle(&mpc.Message{Op: OpHello}); err == nil {
		t.Error("empty hello accepted")
	}
	wrong := []*big.Int{big.NewInt(12345)}
	if _, err := mux.Handle(&mpc.Message{Op: OpHello, Ints: wrong}); !errors.Is(err, ErrHello) {
		t.Errorf("wrong-N hello error = %v", err)
	}
	ok := []*big.Int{new(big.Int).Set(sk.N)}
	if _, err := mux.Handle(&mpc.Message{Op: OpHello, Ints: ok}); err != nil {
		t.Errorf("matching hello rejected: %v", err)
	}
}

// corruptedC2 returns C1's end of a link to a key cloud whose replies to
// op carry what corrupt makes of the elements the handler built.
func corruptedC2(t *testing.T, sk *paillier.PrivateKey, op mpc.Op, corrupt func([]*big.Int) []*big.Int) mpc.Conn {
	inner := NewCloudC2(sk, nil).Mux()
	h := mpc.HandlerFunc(func(req *mpc.Message) (*mpc.Message, error) {
		resp, err := inner.Handle(req)
		if err == nil && req.Op == op {
			resp.Ints = corrupt(resp.Ints)
		}
		return resp, err
	})
	c1Side, c2Side := mpc.ChanPipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = mpc.Serve(c2Side, h) // C1 drops a link it refused
	}()
	t.Cleanup(func() {
		c2Side.Close() // ends the serve loop even where C1 never closed its end
		<-done
	})
	return c1Side
}

// TestC1RefusesMalformedReplies: C1 decodes C2's hello echo and its
// reveal reply at the boundary. A hello echo that is not one modulus
// (a nil element among them, which an in-process link can carry) is
// ErrBadFrame as well as ErrHello; another modulus is ErrHello alone.
// A revealed value must be a residue mod N: nil, negative or N itself
// fail the query with ErrBadFrame.
func TestC1RefusesMalformedReplies(t *testing.T) {
	sk := testKey()
	tbl, err := dataset.Generate(3, 4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}
	n := new(big.Int).Set(sk.N)
	for _, tc := range []struct {
		name     string
		echo     []*big.Int
		badFrame bool
	}{
		{"nil", []*big.Int{nil}, true},
		{"empty", nil, true},
		{"two moduli", []*big.Int{n, n}, true},
		{"another modulus", []*big.Int{big.NewInt(12345)}, false},
	} {
		t.Run("hello echo "+tc.name, func(t *testing.T) {
			echo := func([]*big.Int) []*big.Int { return tc.echo }
			c1, err := NewCloudC1(encTable, []mpc.Conn{corruptedC2(t, sk, OpHello, echo)}, nil)
			if err == nil {
				c1.Close()
			}
			if !errors.Is(err, ErrHello) || errors.Is(err, ErrBadFrame) != tc.badFrame {
				t.Errorf("err = %v, want ErrHello, ErrBadFrame %v", err, tc.badFrame)
			}
		})
	}
	bob := NewClient(&sk.PublicKey, nil)
	q, err := bob.EncryptQuery([]uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]*big.Int{"nil": nil, "negative": big.NewInt(-1), "N": n} {
		t.Run("revealed "+name, func(t *testing.T) {
			e := newEngine(t, encTable, 1, func() []mpc.Conn {
				return []mpc.Conn{corruptedC2(t, sk, OpReveal, func(ints []*big.Int) []*big.Int { ints[0] = v; return ints })}
			})
			if _, _, err := e.BasicQuery(context.Background(), q, 1); !errors.Is(err, ErrBadFrame) {
				t.Errorf("err = %v, want ErrBadFrame", err)
			}
		})
	}
}

func TestHandleRevealDecrypts(t *testing.T) {
	mux, sk := handlerMux(t)
	payload := []*big.Int{encRaw(t, sk, 123), encRaw(t, sk, 456)}
	resp, err := mux.Handle(&mpc.Message{Op: OpReveal, Ints: payload})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ints[0].Int64() != 123 || resp.Ints[1].Int64() != 456 {
		t.Errorf("reveal = %v", resp.Ints)
	}
	if _, err := mux.Handle(&mpc.Message{Op: OpReveal}); err == nil {
		t.Error("empty reveal accepted")
	}
	if _, err := mux.Handle(&mpc.Message{Op: OpReveal, Ints: []*big.Int{big.NewInt(0)}}); err == nil {
		t.Error("garbage reveal accepted")
	}
}

// TestCloudC2OpcodeSet pins the key cloud's attack surface to the opcode
// table in docs/PROTOCOLS.md: exactly the handlers of the frames the
// engine sends are reachable by a C1 peer. The paper primitives' opcodes
// 16–19 and the paper's one-hot select 66 (internal/reference's key cloud
// serves them) and the retired 20, 21, 22 and 68 (the cluster ranking's
// plaintext argmin, which decrypted β) are not among them, and a frame
// carrying one is answered with an OpError naming the unknown opcode
// while the serve loop carries on.
func TestCloudC2OpcodeSet(t *testing.T) {
	sk := testKey()
	c2 := NewCloudC2(sk, nil)
	want := []mpc.Op{
		mpc.OpPing,
		smc.OpSSEDPack, smc.OpSBDPackBit,
		OpRank, OpReveal, OpHello,
	}
	if got := c2.Mux().Ops(); !reflect.DeepEqual(got, want) {
		t.Errorf("C2 serves opcodes %v, want %v", got, want)
	}

	c1Side, c2Side := mpc.ChanPipe()
	done := make(chan error, 1)
	go func() { done <- c2.Serve(c2Side) }()
	refused := []mpc.Op{smc.OpSM, smc.OpSBDLsb, smc.OpSBDVerify, smc.OpSMIN, 20, 21, 22, 66, 68}
	for _, op := range refused {
		// The shape of the last frame opcodes 21 and 22 carried: [count, valueBits, group].
		_, err := mpc.RoundTrip(c1Side, &mpc.Message{Op: op, Ints: []*big.Int{big.NewInt(1), big.NewInt(8), encRaw(t, sk, 3)}})
		var remote *mpc.RemoteError
		if !errors.As(err, &remote) || !strings.Contains(remote.Msg, mpc.ErrUnknownOp.Error()) {
			t.Errorf("opcode %d answered %v, want a remote %q", op, err, mpc.ErrUnknownOp)
		}
	}
	if _, err := mpc.RoundTrip(c1Side, &mpc.Message{Op: mpc.OpPing}); err != nil {
		t.Errorf("serve loop did not survive the refused opcodes: %v", err)
	}
	if err := mpc.SendClose(c1Side); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Errorf("C2 serve loop: %v", err)
	}
}

// The fuzzer's byte string spells a payload element by element: a tag
// byte selects nil, a small signed integer (header fields), an arbitrary
// big-endian value of up to 255 bytes (in or out of the ciphertext group,
// oversized header fields) or a well-formed encryption of a small
// plaintext — zero among them, so a mutated β can hold a minimum — and a
// mutated frame can get past the group checks into a handler's
// decrypting half.
const (
	c2FuzzNil = iota
	c2FuzzSmall
	c2FuzzBig
	c2FuzzCiphertext
	c2FuzzKinds
)

func decodeC2Fuzz(t *testing.T, sk *paillier.PrivateKey, random io.Reader, data []byte) []*big.Int {
	var out []*big.Int
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for len(data) > 0 && len(out) < 48 { // a few dozen decryptions per execution
		switch next() % c2FuzzKinds {
		case c2FuzzNil:
			out = append(out, nil)
		case c2FuzzSmall:
			out = append(out, big.NewInt(int64(int8(next()))))
		case c2FuzzBig:
			n := min(int(next()), len(data))
			out = append(out, new(big.Int).SetBytes(data[:n]))
			data = data[n:]
		case c2FuzzCiphertext:
			ct, err := sk.Encrypt(random, big.NewInt(int64(next())))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ct.Raw())
		}
	}
	return out
}

// encodeC2Fuzz spells a payload of nils, int8-range integers and
// non-negative big values in the fuzzer's byte language (seeds only).
func encodeC2Fuzz(ints []*big.Int) []byte {
	var out []byte
	for _, v := range ints {
		switch {
		case v == nil:
			out = append(out, c2FuzzNil)
		case v.IsInt64() && v.Int64() == int64(int8(v.Int64())):
			out = append(out, c2FuzzSmall, byte(v.Int64()))
		default:
			b := v.Bytes()
			out = append(append(out, c2FuzzBig, byte(len(b))), b...)
		}
	}
	return out
}

// FuzzCloudC2Frame throws arbitrary frames at the key cloud's own
// handlers — the protocol opcodes core.CloudC2.Mux() adds to the smc
// kernels' — and at the bit peel's output round, whose header the
// engine's selection network sizes: whatever the payload, Handle must not
// panic, and must return either an error or a reply to the same opcode
// whose length the request alone determines and whose elements are all
// present. A frame carrying a paper primitive's opcode (16–19), the
// paper's one-hot select (66) or the retired cluster argmin (68) must
// fail as an unknown opcode.
func FuzzCloudC2Frame(f *testing.F) {
	sk := testKey()
	const minSelect, retiredMinIndex mpc.Op = 66, 68 // internal/reference's one-hot select; the retired cluster argmin
	paper := []mpc.Op{smc.OpSM, smc.OpSBDLsb, smc.OpSBDVerify, smc.OpSMIN, minSelect}
	ops := append([]mpc.Op{OpRank, OpReveal, OpHello, retiredMinIndex, smc.OpSBDPackBit}, paper...)
	sel := func(op mpc.Op) uint8 {
		for i, o := range ops {
			if o == op {
				return uint8(i)
			}
		}
		f.Fatalf("opcode %d is not fuzzed", op)
		return 0
	}
	// The bit peel's output round as the network sends it — [count,
	// valueBits, shift = valueBits−1, per, opBits], the remainder groups,
	// the operand groups — at count = 2 and valueBits = 9: well formed with
	// one operand per value and with a record chunk beside it, then with
	// per and opBits lying, missing or out of range.
	pb := sel(smc.OpSBDPackBit)
	out := func(per, opBits byte, groups ...byte) []byte {
		b := []byte{c2FuzzSmall, 2, c2FuzzSmall, 9, c2FuzzSmall, 8, c2FuzzSmall, per, c2FuzzSmall, opBits}
		for _, g := range groups {
			b = append(b, c2FuzzCiphertext, g)
		}
		return b
	}
	for _, seed := range [][]byte{
		out(1, 9, 200, 9),          // one operand per value: both fit one group each
		out(2, 37, 200, 9, 4),      // distance and one record chunk per value
		out(2, 9, 200, 9),          // per lies high: the operand groups run short
		out(1, 9, 200, 9, 4),       // an operand group too many
		out(1, 9, 200),             // no operand group at all
		out(0, 9, 200, 9),          // no operand per value
		out(0xff, 9, 200, 9),       // negative per
		out(1, 0, 200, 9),          // opBits zero
		out(1, 120, 200, 9),        // opBits wider than a slot
		out(1, 0x80, 200, 9),       // negative opBits
		out(3, 9, 200, 9, 4, 2),    // three operands a value, six in all
		out(0x7f, 9, 200, 9, 4, 2), // per past the operands carried
		{c2FuzzSmall, 2, c2FuzzSmall, 9, c2FuzzSmall, 8, c2FuzzNil, c2FuzzSmall, 9, c2FuzzCiphertext, 200, c2FuzzCiphertext, 9},
		{c2FuzzSmall, 2, c2FuzzSmall, 9, c2FuzzSmall, 8, c2FuzzSmall, 1, c2FuzzNil, c2FuzzCiphertext, 200, c2FuzzCiphertext, 9},
		{c2FuzzSmall, 2, c2FuzzSmall, 9, c2FuzzSmall, 8, c2FuzzBig, 4, 0x7f, 0xff, 0xff, 0xff, c2FuzzSmall, 9, c2FuzzCiphertext, 200},
		{c2FuzzSmall, 2, c2FuzzSmall, 9, c2FuzzSmall, 8, c2FuzzCiphertext, 200, c2FuzzCiphertext, 9},            // the header without per and opBits
		{c2FuzzSmall, 2, c2FuzzSmall, 9, c2FuzzSmall, 3, c2FuzzSmall, 1, c2FuzzSmall, 9, c2FuzzCiphertext, 200}, // operand header on a peeling round
		{c2FuzzSmall, 2, c2FuzzSmall, 9, c2FuzzSmall, 3, c2FuzzCiphertext, 200},                                 // a peeling round
	} {
		f.Add(pb, seed)
	}
	// The paper's select, which only the reference's key cloud answers: as
	// internal/reference sends it, with a tie, and in the engine's old
	// fused shape.
	ms := sel(minSelect)
	f.Add(ms, []byte{c2FuzzSmall, 3, c2FuzzCiphertext, 0, c2FuzzCiphertext, 4, c2FuzzCiphertext, 0})
	f.Add(ms, []byte{c2FuzzSmall, 2, c2FuzzSmall, 1, c2FuzzSmall, 2, c2FuzzSmall, 8,
		c2FuzzCiphertext, 0, c2FuzzCiphertext, 5, c2FuzzCiphertext, 7, c2FuzzCiphertext, 9})
	// The retired cluster argmin's β frames: a zero, none, a nil element.
	f.Add(sel(retiredMinIndex), []byte{c2FuzzCiphertext, 3, c2FuzzCiphertext, 0})
	f.Add(sel(retiredMinIndex), []byte{c2FuzzCiphertext, 3, c2FuzzCiphertext, 5})
	f.Add(sel(retiredMinIndex), []byte{c2FuzzCiphertext, 0, c2FuzzNil, c2FuzzCiphertext, 0})
	f.Add(sel(OpRank), []byte{c2FuzzSmall, 1, c2FuzzCiphertext, 9, c2FuzzCiphertext, 4})
	f.Add(sel(OpRank), []byte{c2FuzzNil, c2FuzzCiphertext, 9})
	f.Add(sel(OpReveal), []byte{c2FuzzCiphertext, 9, c2FuzzNil})
	f.Add(sel(OpHello), encodeC2Fuzz([]*big.Int{sk.N}))
	f.Add(sel(OpHello), []byte{c2FuzzSmall, 5}) // another key's modulus
	for _, op := range paper[:4] {
		f.Add(sel(op), []byte{c2FuzzCiphertext, 3, c2FuzzCiphertext, 5}) // SM's shape: two operands
	}
	f.Fuzz(func(t *testing.T, op uint8, data []byte) {
		// One fixed randomness stream per execution, for the harness's
		// ciphertexts and C2's nonces alike: the coverage an input reaches
		// must repeat.
		random := mrand.New(mrand.NewSource(1))
		req := &mpc.Message{Op: ops[int(op)%len(ops)], Ints: decodeC2Fuzz(t, sk, random, data)}
		resp, err := NewCloudC2(sk, random).Mux().Handle(req)
		switch req.Op {
		case smc.OpSM, smc.OpSBDLsb, smc.OpSBDVerify, smc.OpSMIN, minSelect, retiredMinIndex:
			if !errors.Is(err, mpc.ErrUnknownOp) {
				t.Fatalf("unserved opcode %d answered %v, %v; want %v", req.Op, resp, err, mpc.ErrUnknownOp)
			}
			return
		}
		if err != nil {
			return
		}
		var want int
		switch req.Op {
		case OpRank:
			want = int(req.Ints[0].Int64()) // k
		case OpReveal:
			want = len(req.Ints)
		case smc.OpSBDPackBit:
			// count bits, and per products a value in the output round.
			want = int(req.Ints[0].Int64())
			if req.Ints[2].Int64() == req.Ints[1].Int64()-1 {
				want *= 1 + int(req.Ints[3].Int64())
			}
		case OpHello:
			want = 1
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

// TestReplyRandomizersNeverRepeat multiplexes two concurrent SkNNm
// sessions over one link to one CloudC2 serving concurrently, taps every
// frame C2 sends, and checks that no two reply ciphertexts share the
// fingerprint c mod N = ρ^N mod N, which anyone can compute without the
// key. Two replies under one nonce would share it: the check guards the
// reply-nonce reserve against handing a nonce out twice across
// concurrent handlers, and is the downlink half of an observer of the
// randomizers C2 sees and sends.
func TestReplyRandomizersNeverRepeat(t *testing.T) {
	const n, m, attrBits, k = 8, 6, 4, 2
	tbl, err := dataset.Generate(909, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	sk := testKey()
	encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCloudC2(sk, nil)
	var mu sync.Mutex
	var replies []*big.Int // every tapped reply element, under mu
	engine := newEngine(t, encTable, 1, func() []mpc.Conn {
		return []mpc.Conn{pipeServedBy(t, func(conn mpc.Conn) error {
			tapped := mpc.Tap(conn, func(dir mpc.Direction, msg *mpc.Message) {
				if dir != mpc.DirSend || (msg.Op != smc.OpSSEDPack && msg.Op != smc.OpSBDPackBit) {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				replies = append(replies, msg.Ints...)
			})
			return c2.Serve(tapped)
		})}
	})
	bob := NewClient(&sk.PublicKey, nil)
	queries := [][]uint64{{3, 9, 0, 15, 7, 1}, {12, 2, 8, 4, 0, 11}}
	var wg sync.WaitGroup
	for _, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eq, err := bob.EncryptQuery(q)
			if err != nil {
				t.Error(err)
				return
			}
			res, _, err := engine.SecureQuery(context.Background(), eq, k, 0)
			if err != nil {
				t.Error(err)
				return
			}
			rows, err := bob.Unmask(res)
			if err != nil {
				t.Error(err)
				return
			}
			assertMatchesOracle(t, tbl, q, k, rows)
		}()
	}
	wg.Wait()

	perQuery := predict(t, engine.Shape(), sk.Bits(), n, k, 1, 1).Secure.Encrypts
	mu.Lock()
	defer mu.Unlock()
	if want := len(queries) * perQuery; len(replies) != want {
		t.Fatalf("tapped %d reply ciphertexts, want %d", len(replies), want)
	}
	seen := make(map[string]int, len(replies))
	for i, c := range replies {
		fp := new(big.Int).Mod(c, sk.N).String()
		if j, ok := seen[fp]; ok {
			t.Fatalf("reply ciphertexts %d and %d share the fingerprint c mod N: one nonce, used twice", j, i)
		}
		seen[fp] = i
	}
}
