package smc

import (
	"errors"
	"testing"

	"sknn/internal/paillier"
)

// Records t1 and t2 of Table 1 in the paper.
var (
	tableT1 = []int64{63, 1, 1, 145, 233, 1, 3, 0, 6, 0}
	tableT2 = []int64{56, 1, 3, 130, 256, 1, 2, 1, 6, 2}
)

func TestSSEDPaperExample3(t *testing.T) {
	// Example 3: |t1 − t2|² = 813.
	rq, sk := pair(t)
	x := encVec(t, sk, tableT1...)
	y := encVec(t, sk, tableT2...)
	got, err := rq.SSED(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if v := dec(t, sk, got); v != 813 {
		t.Errorf("SSED(t1,t2) = %d, want 813", v)
	}
}

func TestSSEDZeroDistance(t *testing.T) {
	rq, sk := pair(t)
	x := encVec(t, sk, 5, 9, 2)
	y := encVec(t, sk, 5, 9, 2)
	got, err := rq.SSED(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if v := dec(t, sk, got); v != 0 {
		t.Errorf("SSED(x,x) = %d, want 0", v)
	}
}

func TestSSEDOneDimension(t *testing.T) {
	rq, sk := pair(t)
	got, err := rq.SSED(encVec(t, sk, 10), encVec(t, sk, 3))
	if err != nil {
		t.Fatal(err)
	}
	if v := dec(t, sk, got); v != 49 {
		t.Errorf("SSED([10],[3]) = %d, want 49", v)
	}
}

func TestSSEDSymmetry(t *testing.T) {
	rq, sk := pair(t)
	x := encVec(t, sk, 1, 2, 3)
	y := encVec(t, sk, 6, 5, 4)
	xy, err := rq.SSED(x, y)
	if err != nil {
		t.Fatal(err)
	}
	yx, err := rq.SSED(y, x)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := dec(t, sk, xy), dec(t, sk, yx); a != b || a != 25+9+1 {
		t.Errorf("SSED asymmetric: %d vs %d (want 35)", a, b)
	}
}

func TestSSEDValidation(t *testing.T) {
	rq, sk := pair(t)
	if _, err := rq.SSED(encVec(t, sk, 1, 2), encVec(t, sk, 1)); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("mismatch error = %v", err)
	}
	if _, err := rq.SSED(nil, nil); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("empty error = %v", err)
	}
}

// TestSSEDManyValidation: the batched SSED, SSEDManyPacked, refuses an
// empty batch, a record of another arity than the query, and a packed
// rendering of other rows.
func TestSSEDManyValidation(t *testing.T) {
	rq, sk := pair(t)
	q := encVec(t, sk, 1, 2)
	rows := [][]*paillier.Ciphertext{encVec(t, sk, 3, 4)}
	packed := packRows(t, rq.PK(), 8, rows)
	if _, err := rq.SSEDManyPacked(q, nil, packed); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("empty error = %v", err)
	}
	bad := [][]*paillier.Ciphertext{encVec(t, sk, 1)}
	if _, err := rq.SSEDManyPacked(q, bad, packRows(t, rq.PK(), 8, bad)); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("arity mismatch error = %v", err)
	}
	if _, err := rq.SSEDManyPacked(q, append(rows, rows[0]), packed); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("packed rows mismatch error = %v", err)
	}
}
