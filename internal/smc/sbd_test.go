package smc

import (
	"errors"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func TestSBDPaperExample4(t *testing.T) {
	// Example 4: z = 55, l = 6 ⇒ [55] = ⟨1,1,0,1,1,1⟩ (MSB first).
	rq, sk := pair(t)
	bits, err := rq.SBD(enc(t, sk, 55), 6)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 1, 0, 1, 1, 1}
	for i, w := range want {
		if v := dec(t, sk, bits[i]); v != w {
			t.Errorf("bit %d = %d, want %d", i, v, w)
		}
	}
	if v := decBits(t, sk, bits); v != 55 {
		t.Errorf("recomposed = %d, want 55", v)
	}
}

func TestSBDEdgeValues(t *testing.T) {
	rq, sk := pair(t)
	for _, tc := range []struct {
		z uint64
		l int
	}{
		{0, 4}, {1, 4}, {15, 4}, {8, 4}, {1, 1}, {0, 1}, {1023, 10},
	} {
		bits, err := rq.SBD(enc(t, sk, int64(tc.z)), tc.l)
		if err != nil {
			t.Fatalf("SBD(%d, l=%d): %v", tc.z, tc.l, err)
		}
		if len(bits) != tc.l {
			t.Fatalf("SBD(%d) returned %d bits, want %d", tc.z, len(bits), tc.l)
		}
		if v := decBits(t, sk, bits); v != tc.z {
			t.Errorf("SBD(%d, l=%d) decomposed to %d", tc.z, tc.l, v)
		}
	}
}

func TestSBDBatch(t *testing.T) {
	rq, sk := pair(t)
	zs := []int64{0, 7, 55, 58, 63}
	cts := encVec(t, sk, zs...)
	rounds0 := rq.conn.Stats().Rounds()
	out, err := rq.SBDBatch(cts, 6)
	if err != nil {
		t.Fatal(err)
	}
	// l LSB rounds + 1 verification round.
	if r := rq.conn.Stats().Rounds() - rounds0; r != 7 {
		t.Errorf("SBDBatch used %d rounds, want 7", r)
	}
	for i, z := range zs {
		if v := decBits(t, sk, out[i]); v != uint64(z) {
			t.Errorf("value %d decomposed to %d, want %d", i, v, z)
		}
	}
}

func TestSBDValidation(t *testing.T) {
	rq, sk := pair(t)
	if _, err := rq.SBDBatch(nil, 6); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("empty error = %v", err)
	}
	if _, err := rq.SBD(enc(t, sk, 3), 0); err == nil {
		t.Error("l=0 accepted")
	}
}

func TestSBDPropertyRoundTrip(t *testing.T) {
	rq, sk := pair(t)
	const l = 12
	f := func(z uint16) bool {
		v := uint64(z) & 0xFFF
		bits, err := rq.SBD(enc(t, sk, int64(v)), l)
		if err != nil {
			return false
		}
		return decBits(t, sk, bits) == v
	}
	cfg := &quick.Config{MaxCount: 8, Rand: mrand.New(mrand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRecomposeMatchesValue(t *testing.T) {
	rq, sk := pair(t)
	bits := encBits(t, sk, 45, 6)
	rec := Recompose(rq.PK(), bits)
	if v := dec(t, sk, rec); v != 45 {
		t.Errorf("Recompose = %d, want 45", v)
	}
}

func TestRecomposeSingleBit(t *testing.T) {
	rq, sk := pair(t)
	rec := Recompose(rq.PK(), encBits(t, sk, 1, 1))
	if v := dec(t, sk, rec); v != 1 {
		t.Errorf("Recompose([1]) = %d, want 1", v)
	}
}
