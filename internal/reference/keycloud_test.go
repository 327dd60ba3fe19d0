package reference

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"sknn/internal/core"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/smc"
	"sknn/internal/testkit"
)

// paperMux returns the reference's key cloud over the shared test key.
func paperMux(t *testing.T) (*mpc.Mux, *paillier.PrivateKey) {
	t.Helper()
	sk := testkit.Key(256)
	return KeyCloud(sk), sk
}

func encRaw(t *testing.T, sk *paillier.PrivateKey, v int64) *big.Int {
	t.Helper()
	ct, err := sk.Encrypt(rand.Reader, big.NewInt(v))
	if err != nil {
		t.Fatal(err)
	}
	return ct.Raw()
}

// selectOnly is an OpMinSelect payload, step 3(c) as printed: [n, β…].
func selectOnly(betas ...*big.Int) []*big.Int {
	return append([]*big.Int{big.NewInt(int64(len(betas)))}, betas...)
}

func TestHandleMinSelectOneHot(t *testing.T) {
	mux, sk := paperMux(t)
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

func TestHandleMinSelectTiesPickExactlyOne(t *testing.T) {
	mux, sk := paperMux(t)
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
	mux, sk := paperMux(t)
	payload := selectOnly(encRaw(t, sk, 5), encRaw(t, sk, 6))
	_, err := mux.Handle(&mpc.Message{Op: OpMinSelect, Ints: payload})
	if !errors.Is(err, ErrNoZeroInBeta) {
		t.Errorf("no-zero error = %v, want ErrNoZeroInBeta", err)
	}
	if _, err := mux.Handle(&mpc.Message{Op: OpMinSelect}); err == nil {
		t.Error("empty min-select accepted")
	}
}

// TestHandleMinSelectValidation drives the select's header and length
// checks: every malformed frame is refused with its error class before
// any reply is built, and the frame they vary is accepted.
func TestHandleMinSelectValidation(t *testing.T) {
	mux, sk := paperMux(t)
	zero, five := encRaw(t, sk, 0), encRaw(t, sk, 5)
	head := func(n int64, betas ...*big.Int) []*big.Int { return append([]*big.Int{big.NewInt(n)}, betas...) }
	for _, tc := range []struct {
		name string
		ints []*big.Int
		want error
	}{
		{"empty", nil, core.ErrBadFrame},
		{"header only", head(0), core.ErrBadFrame},
		{"nil header", append([]*big.Int{nil}, zero, five), core.ErrBadFrame},
		{"huge n", head(1<<40, zero, five), core.ErrBadFrame},
		{"n past the frame", head(3, zero, five), core.ErrBadFrame},
		{"n short of the frame", head(1, zero, five), core.ErrBadFrame},
		{"the engine's old fused header", append(head(2, big.NewInt(1), big.NewInt(2), big.NewInt(8)), zero, five), core.ErrBadFrame},
		{"invalid β", head(2, big.NewInt(0), five), paillier.ErrInvalidCiphertext},
		{"no zero in β", head(2, five, five), ErrNoZeroInBeta},
	} {
		if _, err := mux.Handle(&mpc.Message{Op: OpMinSelect, Ints: tc.ints}); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	resp, err := mux.Handle(&mpc.Message{Op: OpMinSelect, Ints: head(2, five, zero)})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Ints) != 2 {
		t.Errorf("well-formed frame answered %d elements, want 2", len(resp.Ints))
	}
}

// TestReplyParsesRefuseMalformed: the printed protocols decode C2's rank,
// min-select and reveal replies at the boundary. A nil element — which
// an in-process link carries as it is — a rank index past the table and
// a revealed value that is no residue mod N are each ErrBadFrame, never
// a panic.
func TestReplyParsesRefuseMalformed(t *testing.T) {
	sk := testkit.Key(256)
	pk := &sk.PublicKey
	table, err := core.EncryptTable(rand.Reader, pk, [][]uint64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	rows := table.Snapshot().Records
	q, err := core.NewClient(pk, nil).EncryptQuery([]uint64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	basic := func(rq *smc.Requester) error { _, err := SkNNb(rq, rows, q, 1); return err }
	secure := func(rq *smc.Requester) error { _, err := SkNNm(rq, rows, q, 1, 6); return err }
	for _, tc := range []struct {
		name string
		op   mpc.Op
		v    *big.Int // replaces the reply's first element
		run  func(rq *smc.Requester) error
	}{
		{"nil rank index", core.OpRank, nil, basic},
		{"rank index past the table", core.OpRank, big.NewInt(2), basic},
		{"nil min-select U", OpMinSelect, nil, secure},
		{"revealed N", core.OpReveal, new(big.Int).Set(sk.N), basic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := KeyCloud(sk)
			h := mpc.HandlerFunc(func(req *mpc.Message) (*mpc.Message, error) {
				resp, err := inner.Handle(req)
				if err == nil && req.Op == tc.op {
					resp.Ints[0] = tc.v
				}
				return resp, err
			})
			c1Side, c2Side := mpc.ChanPipe()
			done := make(chan error, 1)
			go func() { done <- mpc.Serve(c2Side, h) }()
			defer func() { c2Side.Close(); <-done }() // ends the serve loop on every path
			if err := tc.run(smc.NewRequester(pk, c1Side, nil)); !errors.Is(err, core.ErrBadFrame) {
				t.Errorf("err = %v, want ErrBadFrame", err)
			}
		})
	}
}
