package smc

import (
	"errors"
	"testing"
)

func TestSBORTruthTable(t *testing.T) {
	rq, sk := pair(t)
	for _, c := range []struct{ a, b, want int64 }{
		{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1},
	} {
		got, err := rq.SBOR(enc(t, sk, c.a), enc(t, sk, c.b))
		if err != nil {
			t.Fatal(err)
		}
		if v := dec(t, sk, got); v != c.want {
			t.Errorf("SBOR(%d,%d) = %d, want %d", c.a, c.b, v, c.want)
		}
	}
}

func TestSBORBatchOneRound(t *testing.T) {
	rq, sk := pair(t)
	a := encVec(t, sk, 0, 0, 1, 1)
	b := encVec(t, sk, 0, 1, 0, 1)
	rounds0 := rq.Conn().Stats().Rounds()
	got, err := rq.SBORBatch(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := rq.Conn().Stats().Rounds() - rounds0; r != 1 {
		t.Errorf("SBORBatch used %d rounds, want 1", r)
	}
	want := []int64{0, 1, 1, 1}
	for i := range want {
		if v := dec(t, sk, got[i]); v != want[i] {
			t.Errorf("batch[%d] = %d, want %d", i, v, want[i])
		}
	}
}

func TestSBORBatchValidation(t *testing.T) {
	rq, sk := pair(t)
	if _, err := rq.SBORBatch(encVec(t, sk, 1), encVec(t, sk, 1, 0)); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("mismatch error = %v", err)
	}
}

// TestSBORMaxSaturation mirrors SkNNm's use: OR-ing a selector bit of 1
// into a distance bit vector must saturate it to all ones (2^l − 1).
func TestSBORMaxSaturation(t *testing.T) {
	rq, sk := pair(t)
	bits := encBits(t, sk, 13, 4)
	onesVec := encVec(t, sk, 1, 1, 1, 1)
	got, err := rq.SBORBatch(onesVec, bits)
	if err != nil {
		t.Fatal(err)
	}
	if v := decBits(t, sk, got); v != 15 {
		t.Errorf("saturated value = %d, want 15", v)
	}
}
