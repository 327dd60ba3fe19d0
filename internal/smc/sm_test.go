package smc

import (
	"errors"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func TestSMPaperExample2(t *testing.T) {
	// Example 2 of the paper: a = 59, b = 58 ⇒ E(a·b) = E(3422).
	rq, sk := pair(t)
	got, err := rq.SM(enc(t, sk, 59), enc(t, sk, 58))
	if err != nil {
		t.Fatal(err)
	}
	if v := dec(t, sk, got); v != 3422 {
		t.Errorf("SM(59,58) = %d, want 3422", v)
	}
}

func TestSMZeroAndOne(t *testing.T) {
	rq, sk := pair(t)
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0}, {0, 7, 0}, {7, 0, 0}, {1, 1, 1}, {1, 9, 9},
	}
	for _, c := range cases {
		got, err := rq.SM(enc(t, sk, c.a), enc(t, sk, c.b))
		if err != nil {
			t.Fatal(err)
		}
		if v := dec(t, sk, got); v != c.want {
			t.Errorf("SM(%d,%d) = %d, want %d", c.a, c.b, v, c.want)
		}
	}
}

func TestSMNegativeOperand(t *testing.T) {
	// Protocol values are often N−x (i.e. −x); products must respect Z_N
	// arithmetic: (−3)·5 = −15 ≡ N−15.
	rq, sk := pair(t)
	got, err := rq.SM(enc(t, sk, -3), enc(t, sk, 5))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sk.DecryptSigned(got)
	if err != nil {
		t.Fatal(err)
	}
	if m.Int64() != -15 {
		t.Errorf("SM(-3,5) signed = %v, want -15", m)
	}
}

func TestSMBatch(t *testing.T) {
	rq, sk := pair(t)
	as := encVec(t, sk, 2, 3, 4, 5)
	bs := encVec(t, sk, 10, 20, 30, 40)
	rounds0 := rq.conn.Stats().Rounds()
	got, err := rq.SMBatch(as, bs)
	if err != nil {
		t.Fatal(err)
	}
	if r := rq.conn.Stats().Rounds() - rounds0; r != 1 {
		t.Errorf("SMBatch used %d rounds, want 1", r)
	}
	want := []int64{20, 60, 120, 200}
	for i := range want {
		if v := dec(t, sk, got[i]); v != want[i] {
			t.Errorf("batch[%d] = %d, want %d", i, v, want[i])
		}
	}
}

func TestSMBatchValidation(t *testing.T) {
	rq, sk := pair(t)
	if _, err := rq.SMBatch(encVec(t, sk, 1), encVec(t, sk, 1, 2)); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("mismatch error = %v", err)
	}
	if _, err := rq.SMBatch(nil, nil); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("empty error = %v", err)
	}
}

func TestSMPropertyRandomPairs(t *testing.T) {
	rq, sk := pair(t)
	f := func(a, b uint32) bool {
		got, err := rq.SM(enc(t, sk, int64(a)), enc(t, sk, int64(b)))
		if err != nil {
			return false
		}
		m, err := sk.Decrypt(got)
		if err != nil {
			return false
		}
		return m.Cmp(new(big.Int).Mul(big.NewInt(int64(a)), big.NewInt(int64(b)))) == 0
	}
	cfg := &quick.Config{MaxCount: 15, Rand: mrand.New(mrand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSMResultIsFreshCiphertext(t *testing.T) {
	// The SM output must be a new randomized encryption, not one of the
	// inputs echoed back.
	rq, sk := pair(t)
	a := enc(t, sk, 1)
	b := enc(t, sk, 6)
	got, err := rq.SM(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Equal(a) || got.Equal(b) {
		t.Error("SM returned an input ciphertext verbatim")
	}
}
