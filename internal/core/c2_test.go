package core

import (
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	mrand "math/rand"
	"reflect"
	"strings"
	"testing"

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

// selectOnly is an OpMinSelect payload that asks for the select
// alone — step 3(c) as printed, the frame internal/reference sends.
func selectOnly(betas ...*big.Int) []*big.Int {
	return append([]*big.Int{big.NewInt(int64(len(betas))), big.NewInt(0), big.NewInt(0), big.NewInt(8)}, betas...)
}

func TestHandleMinSelectOneHot(t *testing.T) {
	mux, sk := handlerMux(t)
	// β = [random, 0, random]: U must be one-hot at index 1.
	payload := selectOnly(encRaw(t, sk, 831), encRaw(t, sk, 0), encRaw(t, sk, 17))
	resp, err := mux.Handle(&mpc.Message{Op: OpMinSelect, Ints: payload})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Ints) != 3 {
		t.Fatalf("%d reply elements, want 3", len(resp.Ints))
	}
	for i, raw := range resp.Ints {
		ct, err := sk.FromRaw(raw)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if i == 1 {
			want = 1
		}
		if m.Int64() != want {
			t.Errorf("U[%d] = %v, want %d", i, m, want)
		}
	}
}

// TestHandleMinSelectMultipliesByU pins the fused round's reply: after
// U, the winner's sums operands, then every position's each operands
// times its Uⱼ — the operands laid position by position and packed across
// group boundaries.
func TestHandleMinSelectMultipliesByU(t *testing.T) {
	mux, sk := handlerMux(t)
	const n, sums, each, vb, w = 3, 2, 2, 10, 1
	codec, err := paillier.NewPacking(&sk.PublicKey, vb)
	if err != nil {
		t.Fatal(err)
	}
	ys := make([]*big.Int, n*(sums+each)) // position-major, as C1 lays them out
	for i := range ys {
		ys[i] = new(big.Int).Lsh(big.NewInt(int64(i+1)), vb+30) // blinded: wider than the payload
	}
	payload := []*big.Int{big.NewInt(n), big.NewInt(sums), big.NewInt(each), big.NewInt(vb)}
	for j := 0; j < n; j++ {
		beta := int64(3 + j)
		if j == w {
			beta = 0
		}
		payload = append(payload, encRaw(t, sk, beta))
	}
	for lo := 0; lo < len(ys); lo += codec.Slots {
		ct, err := codec.PackEncrypt(rand.Reader, ys[lo:min(len(ys), lo+codec.Slots)])
		if err != nil {
			t.Fatal(err)
		}
		payload = append(payload, ct.Raw())
	}
	resp, err := mux.Handle(&mpc.Message{Op: OpMinSelect, Ints: payload})
	if err != nil {
		t.Fatal(err)
	}
	var want []*big.Int
	for j := 0; j < n; j++ {
		want = append(want, big.NewInt(int64(boolInt(j == w))))
	}
	want = append(want, ys[w*(sums+each):w*(sums+each)+sums]...)
	for j := 0; j < n; j++ {
		for e := 0; e < each; e++ {
			want = append(want, new(big.Int).Mul(ys[j*(sums+each)+sums+e], big.NewInt(int64(boolInt(j == w)))))
		}
	}
	if len(resp.Ints) != len(want) {
		t.Fatalf("%d reply elements, want %d", len(resp.Ints), len(want))
	}
	for i, raw := range resp.Ints {
		ct, err := sk.FromRaw(raw)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want[i]) != 0 {
			t.Errorf("reply %d = %v, want %v", i, got, want[i])
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestHandleMinSelectTiesPickExactlyOne(t *testing.T) {
	mux, sk := handlerMux(t)
	// Two zeros: exactly one E(1) in the reply, at index 0 or 2.
	sawIdx := map[int]bool{}
	for trial := 0; trial < 12; trial++ {
		payload := selectOnly(encRaw(t, sk, 0), encRaw(t, sk, 44), encRaw(t, sk, 0))
		resp, err := mux.Handle(&mpc.Message{Op: OpMinSelect, Ints: payload})
		if err != nil {
			t.Fatal(err)
		}
		ones := 0
		for i, raw := range resp.Ints {
			ct, _ := sk.FromRaw(raw)
			m, _ := sk.Decrypt(ct)
			if m.Int64() == 1 {
				ones++
				sawIdx[i] = true
			}
		}
		if ones != 1 {
			t.Fatalf("trial %d: %d ones in U, want exactly 1", trial, ones)
		}
	}
	if sawIdx[1] {
		t.Error("selector chose a nonzero position")
	}
	// With 12 trials, both tied indices should essentially always appear;
	// tolerate the 2^-12 miss by only warning via failure when neither
	// alternative was ever taken.
	if !sawIdx[0] && !sawIdx[2] {
		t.Error("selector never chose any zero position")
	}
}

func TestHandleMinSelectNoZero(t *testing.T) {
	mux, sk := handlerMux(t)
	payload := selectOnly(encRaw(t, sk, 5), encRaw(t, sk, 6))
	_, err := mux.Handle(&mpc.Message{Op: OpMinSelect, Ints: payload})
	if !errors.Is(err, ErrNoZeroInBeta) {
		t.Errorf("no-zero error = %v, want ErrNoZeroInBeta", err)
	}
	if _, err := mux.Handle(&mpc.Message{Op: OpMinSelect}); err == nil {
		t.Error("empty min-select accepted")
	}
}

// badMinSelectFrames are OpMinSelect requests C2 must refuse, each with the
// error class it must refuse them with; they also seed FuzzCloudC2Frame.
// The well-formed frame they vary is n = 2 positions of sums = 1 chunk
// and each = 2 operands at valueBits = 8: six operands, three to a group
// at K = 256, so two groups.
func badMinSelectFrames(t testing.TB, sk *paillier.PrivateKey) []struct {
	name string
	ints []*big.Int
	want error
} {
	ct := func(v *big.Int) *big.Int {
		c, err := sk.Encrypt(rand.Reader, v)
		if err != nil {
			t.Fatal(err)
		}
		return c.Raw()
	}
	head := func(vals ...int64) []*big.Int {
		out := make([]*big.Int, len(vals))
		for i, v := range vals {
			out[i] = big.NewInt(v)
		}
		return out
	}
	zero, five, group := ct(big.NewInt(0)), ct(big.NewInt(5)), ct(big.NewInt(7))
	// One slot is 8 + 66 bits wide: a plaintext past it overfills a group
	// that declares a single value.
	overfull := ct(new(big.Int).Lsh(big.NewInt(1), 8+paillier.PackHeadroom))
	return []struct {
		name string
		ints []*big.Int
		want error
	}{
		{"empty", nil, ErrBadFrame},
		{"header only", head(2, 1, 2, 8), ErrBadFrame},
		{"nil header field", []*big.Int{big.NewInt(2), nil, big.NewInt(2), big.NewInt(8), zero, five, group, group}, ErrBadFrame},
		{"huge n", append(head(1<<40, 1, 2, 8), zero, five, group, group), ErrBadFrame},
		{"n past the frame", append(head(9, 1, 2, 8), zero, five, group, group), ErrBadFrame},
		{"no position", append(head(0, 1, 2, 8), group, group), ErrBadFrame},
		{"negative sums", append(head(2, -1, 2, 8), zero, five, group, group), ErrBadFrame},
		{"negative each", append(head(2, 1, -2, 8), zero, five, group, group), ErrBadFrame},
		{"sums lies high", append(head(2, 4, 2, 8), zero, five, group, group), ErrBadFrame},
		{"each lies high", append(head(2, 1, 5, 8), zero, five, group, group), ErrBadFrame},
		{"each beyond any record", append(head(2, 1, 1<<20, 8), zero, five, group, group), ErrBadFrame},
		{"valueBits zero", append(head(2, 1, 2, 0), zero, five, group, group), ErrBadFrame},
		{"valueBits wider than a slot", append(head(2, 1, 2, 200), zero, five, group, group), ErrBadFrame},
		{"valueBits past the codec", append(head(2, 1, 2, 1<<20), zero, five, group, group), ErrBadFrame},
		{"missing group", append(head(2, 1, 2, 8), zero, five, group), ErrBadFrame},
		{"extra group", append(head(2, 1, 2, 8), zero, five, group, group, group), ErrBadFrame},
		{"groups without operands", append(head(2, 0, 0, 8), zero, five, group), ErrBadFrame},
		{"invalid β", append(head(2, 1, 2, 8), big.NewInt(0), five, group, group), paillier.ErrInvalidCiphertext},
		{"invalid group", append(head(2, 1, 2, 8), zero, five, group, big.NewInt(0)), paillier.ErrInvalidCiphertext},
		{"overfull last group", append(head(2, 1, 1, 8), zero, five, group, overfull), paillier.ErrPackRange},
		{"no zero in β", append(head(2, 1, 2, 8), five, five, group, group), ErrNoZeroInBeta},
	}
}

// TestHandleMinSelectValidation drives the fused frame's header and
// length checks: every malformed frame is refused with its error class
// before any reply is built, and the frame they vary is accepted.
func TestHandleMinSelectValidation(t *testing.T) {
	mux, sk := handlerMux(t)
	for _, tc := range badMinSelectFrames(t, sk) {
		if _, err := mux.Handle(&mpc.Message{Op: OpMinSelect, Ints: tc.ints}); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	ok := []*big.Int{big.NewInt(2), big.NewInt(1), big.NewInt(2), big.NewInt(8),
		encRaw(t, sk, 0), encRaw(t, sk, 5), encRaw(t, sk, 7), encRaw(t, sk, 7)}
	resp, err := mux.Handle(&mpc.Message{Op: OpMinSelect, Ints: ok})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Ints) != 2+1+2*2 {
		t.Errorf("well-formed frame answered %d elements, want 7", len(resp.Ints))
	}
}

func TestHandshakeKeyMismatch(t *testing.T) {
	// C1's table is encrypted under a different key than C2 holds: the
	// hello handshake must fail at wiring time.
	skA := testKey()
	skB, err := paillier.GenerateKey(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	encTable, err := EncryptTable(rand.Reader, &skB.PublicKey, [][]uint64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCloudC2(skA, nil)
	c1Side, c2Side := mpc.ChanPipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = c2.Serve(c2Side)
	}()
	_, err = NewCloudC1(encTable, []mpc.Conn{c1Side}, nil)
	if err == nil {
		t.Fatal("mismatched keys accepted at handshake")
	}
	mpc.SendClose(c1Side)
	<-done
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
// 16–19 (internal/reference's key cloud serves them) and the retired 20,
// 21 and 22 are not among them, and a frame carrying one is answered with
// an OpError naming the unknown opcode while the serve loop carries on.
func TestCloudC2OpcodeSet(t *testing.T) {
	sk := testKey()
	c2 := NewCloudC2(sk, nil)
	want := []mpc.Op{
		mpc.OpPing,
		smc.OpSSEDPack, smc.OpSBDPackBit,
		OpRank, OpReveal, OpMinSelect, OpHello, OpMinIndex,
	}
	if got := c2.Mux().Ops(); !reflect.DeepEqual(got, want) {
		t.Errorf("C2 serves opcodes %v, want %v", got, want)
	}

	c1Side, c2Side := mpc.ChanPipe()
	done := make(chan error, 1)
	go func() { done <- c2.Serve(c2Side) }()
	refused := []mpc.Op{smc.OpSM, smc.OpSBDLsb, smc.OpSBDVerify, smc.OpSMIN, 20, 21, 22}
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
// kernels', which FuzzResponderFrame covers: whatever the payload, Handle
// must not panic, and must return either an error or a reply to the same
// opcode whose length the request alone determines and whose elements
// are all present. A frame carrying a paper primitive's opcode (16–19)
// must fail as an unknown opcode.
func FuzzCloudC2Frame(f *testing.F) {
	sk := testKey()
	paper := []mpc.Op{smc.OpSM, smc.OpSBDLsb, smc.OpSBDVerify, smc.OpSMIN}
	ops := append([]mpc.Op{OpRank, OpReveal, OpMinSelect, OpHello, OpMinIndex}, paper...)
	sel := func(op mpc.Op) uint8 {
		for i, o := range ops {
			if o == op {
				return uint8(i)
			}
		}
		f.Fatalf("opcode %d is not fuzzed", op)
		return 0
	}
	for _, tc := range badMinSelectFrames(f, sk) {
		f.Add(sel(OpMinSelect), encodeC2Fuzz(tc.ints))
	}
	ms := sel(OpMinSelect)
	// n = 2, sums = 1, each = 2, valueBits = 8: β = E(0), E(5), two groups.
	f.Add(ms, []byte{c2FuzzSmall, 2, c2FuzzSmall, 1, c2FuzzSmall, 2, c2FuzzSmall, 8,
		c2FuzzCiphertext, 0, c2FuzzCiphertext, 5, c2FuzzCiphertext, 7, c2FuzzCiphertext, 9})
	// The select alone, as internal/reference sends it, with a tie.
	f.Add(ms, []byte{c2FuzzSmall, 3, c2FuzzSmall, 0, c2FuzzSmall, 0, c2FuzzSmall, 12,
		c2FuzzCiphertext, 0, c2FuzzCiphertext, 4, c2FuzzCiphertext, 0})
	f.Add(sel(OpMinIndex), []byte{c2FuzzCiphertext, 3, c2FuzzCiphertext, 0})
	f.Add(sel(OpRank), []byte{c2FuzzSmall, 1, c2FuzzCiphertext, 9, c2FuzzCiphertext, 4})
	f.Add(sel(OpRank), []byte{c2FuzzNil, c2FuzzCiphertext, 9})
	f.Add(sel(OpReveal), []byte{c2FuzzCiphertext, 9, c2FuzzNil})
	f.Add(sel(OpHello), encodeC2Fuzz([]*big.Int{sk.N}))
	for _, op := range paper {
		f.Add(sel(op), []byte{c2FuzzCiphertext, 3, c2FuzzCiphertext, 5}) // SM's shape: two operands
	}
	f.Fuzz(func(t *testing.T, op uint8, data []byte) {
		// One fixed randomness stream per execution, for the harness's
		// ciphertexts and C2's nonces and tie-breaks alike: the coverage an
		// input reaches must repeat.
		random := mrand.New(mrand.NewSource(1))
		req := &mpc.Message{Op: ops[int(op)%len(ops)], Ints: decodeC2Fuzz(t, sk, random, data)}
		resp, err := NewCloudC2(sk, random).Mux().Handle(req)
		switch req.Op {
		case smc.OpSM, smc.OpSBDLsb, smc.OpSBDVerify, smc.OpSMIN:
			if !errors.Is(err, mpc.ErrUnknownOp) {
				t.Fatalf("paper opcode %d answered %v, %v; want %v", req.Op, resp, err, mpc.ErrUnknownOp)
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
		case OpMinSelect:
			n, sums, each := int(req.Ints[0].Int64()), int(req.Ints[1].Int64()), int(req.Ints[2].Int64())
			want = n + sums + n*each
		case OpHello, OpMinIndex:
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
