package core

import (
	"crypto/rand"
	"errors"
	"math/big"
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
	}
	for _, tc := range cases {
		if _, err := mux.Handle(tc.msg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestHandleMinSelectOneHot(t *testing.T) {
	mux, sk := handlerMux(t)
	// β = [random, 0, random]: U must be one-hot at index 1.
	payload := []*big.Int{encRaw(t, sk, 831), encRaw(t, sk, 0), encRaw(t, sk, 17)}
	resp, err := mux.Handle(&mpc.Message{Op: OpMinSelect, Ints: payload})
	if err != nil {
		t.Fatal(err)
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

func TestHandleMinSelectTiesPickExactlyOne(t *testing.T) {
	mux, sk := handlerMux(t)
	// Two zeros: exactly one E(1) in the reply, at index 0 or 2.
	sawIdx := map[int]bool{}
	for trial := 0; trial < 12; trial++ {
		payload := []*big.Int{encRaw(t, sk, 0), encRaw(t, sk, 44), encRaw(t, sk, 0)}
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
	payload := []*big.Int{encRaw(t, sk, 5), encRaw(t, sk, 6)}
	_, err := mux.Handle(&mpc.Message{Op: OpMinSelect, Ints: payload})
	if !errors.Is(err, ErrNoZeroInBeta) {
		t.Errorf("no-zero error = %v, want ErrNoZeroInBeta", err)
	}
	if _, err := mux.Handle(&mpc.Message{Op: OpMinSelect}); err == nil {
		t.Error("empty min-select accepted")
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
// table in docs/PROTOCOLS.md: exactly these handlers are reachable by a
// C1 peer, the retired opcodes 20 and 22 are not among them, and a frame
// carrying one is answered with an OpError naming the unknown opcode
// while the serve loop carries on.
func TestCloudC2OpcodeSet(t *testing.T) {
	sk := testKey()
	c2 := NewCloudC2(sk, nil)
	want := []mpc.Op{
		mpc.OpPing,
		smc.OpSM, smc.OpSBDLsb, smc.OpSBDVerify, smc.OpSMIN,
		smc.OpSMPack, smc.OpSSEDPack, smc.OpSBDPackBit,
		OpRank, OpReveal, OpMinSelect, OpHello, OpMinIndex,
	}
	if got := c2.Mux().Ops(); !reflect.DeepEqual(got, want) {
		t.Errorf("C2 serves opcodes %v, want %v", got, want)
	}

	c1Side, c2Side := mpc.ChanPipe()
	done := make(chan error, 1)
	go func() { done <- c2.Serve(c2Side) }()
	for _, retired := range []mpc.Op{20, 22} {
		// The shape of the last frame opcode 22 carried: [count, valueBits, group].
		_, err := mpc.RoundTrip(c1Side, &mpc.Message{Op: retired, Ints: []*big.Int{big.NewInt(1), big.NewInt(8), encRaw(t, sk, 3)}})
		var remote *mpc.RemoteError
		if !errors.As(err, &remote) || !strings.Contains(remote.Msg, mpc.ErrUnknownOp.Error()) {
			t.Errorf("opcode %d answered %v, want a remote %q", retired, err, mpc.ErrUnknownOp)
		}
	}
	if _, err := mpc.RoundTrip(c1Side, &mpc.Message{Op: mpc.OpPing}); err != nil {
		t.Errorf("serve loop did not survive the retired opcodes: %v", err)
	}
	if err := mpc.SendClose(c1Side); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Errorf("C2 serve loop: %v", err)
	}
}
