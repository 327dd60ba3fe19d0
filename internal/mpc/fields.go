package mpc

import (
	"errors"
	"fmt"
	"math/big"
)

// Fields reads a frame's integers in order: the one place a protocol
// decoder decides what a well-formed element is. Each read takes the
// next element, which must be present and pass the read's check. The
// first failure sticks, with its element index, and every later read
// returns the zero value unchecked — so check Err after a run of header
// fields, before one of them divides, sizes a make or bounds a later
// field, and Done once the frame is read.
type Fields struct {
	ints []*big.Int
	next int   // index of the next element
	err  error // the first failure
}

// ReadFields starts a reader at ints' first element.
func ReadFields(ints []*big.Int) *Fields { return &Fields{ints: ints} }

// Read returns the next element as valid accepts it: a ciphertext under
// the caller's key, say, which mpc cannot check. valid sees the element
// as it is, nil included, and its error stays wrapped, so the failure
// satisfies errors.Is for ErrBadFrame and for valid's own sentinel.
func Read[T any](f *Fields, valid func(*big.Int) (T, error)) T {
	var zero T
	if f.err == nil && f.next == len(f.ints) {
		f.err = fmt.Errorf("%w: element %d missing", ErrBadFrame, f.next)
	}
	if f.err != nil {
		return zero
	}
	f.next++
	t, err := valid(f.ints[f.next-1])
	if err != nil {
		f.err = fmt.Errorf("%w: element %d: %w", ErrBadFrame, f.next-1, err)
		return zero
	}
	return t
}

// Big returns the next element as it is, non-nil.
func (f *Fields) Big() *big.Int {
	return Read(f, func(v *big.Int) (*big.Int, error) {
		if v == nil {
			return nil, errors.New("nil")
		}
		return v, nil
	})
}

// Int64 returns the next element, an integer in [lo, hi].
func (f *Fields) Int64(lo, hi int64) int64 {
	return Read(f, func(v *big.Int) (int64, error) {
		if v == nil || !v.IsInt64() || v.Int64() < lo || v.Int64() > hi {
			return 0, fmt.Errorf("not an integer in [%d, %d]", lo, hi)
		}
		return v.Int64(), nil
	})
}

// Int returns the next element, an integer in [lo, hi].
func (f *Fields) Int(lo, hi int) int { return int(f.Int64(int64(lo), int64(hi))) }

// Uint64 returns the next element, an integer in [0, 2^64).
func (f *Fields) Uint64() uint64 {
	return Read(f, func(v *big.Int) (uint64, error) {
		if v == nil || !v.IsUint64() {
			return 0, errors.New("not a uint64")
		}
		return v.Uint64(), nil
	})
}

// ReadRest reads every element left, in order, as valid accepts it:
// none once the reader has failed, and none if one of them fails.
func ReadRest[T any](f *Fields, valid func(*big.Int) (T, error)) []T {
	if f.err != nil {
		return nil
	}
	out := make([]T, len(f.ints)-f.next)
	for i := range out {
		if out[i] = Read(f, valid); f.err != nil {
			return nil
		}
	}
	return out
}

// Err returns the first failure, nil while every read has succeeded.
func (f *Fields) Err() error { return f.err }

// Done ends the frame: the first failure, else an error if elements are
// left unread — nil exactly when every read succeeded and none is left.
func (f *Fields) Done() error {
	if f.err == nil && f.next < len(f.ints) {
		f.err = fmt.Errorf("%w: %d trailing elements from element %d", ErrBadFrame, len(f.ints)-f.next, f.next)
	}
	return f.err
}
