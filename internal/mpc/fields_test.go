package mpc

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"
)

// refused reports whether err is a reader refusal naming element i.
func refused(err error, i int) bool {
	return errors.Is(err, ErrBadFrame) && strings.Contains(err.Error(), fmt.Sprintf("element %d:", i))
}

// TestFieldsFirstFailureSticks: the first refusal is the one Err and
// Done report, with its element index, and every later read returns the
// zero value — a well-formed element after the failure included.
func TestFieldsFirstFailureSticks(t *testing.T) {
	f := ReadFields([]*big.Int{big.NewInt(5), big.NewInt(-1), big.NewInt(7), nil, big.NewInt(1)})
	if got := f.Int(0, 9); got != 5 || f.Err() != nil {
		t.Fatalf("first read = %d, %v; want 5, nil", got, f.Err())
	}
	if got := f.Int(0, 9); got != 0 {
		t.Errorf("refused read returned %d, want 0", got)
	}
	first := f.Err()
	if !refused(first, 1) {
		t.Fatalf("Err = %v, want a refusal of element 1", first)
	}
	if got := f.Int(0, 9); got != 0 {
		t.Errorf("read after the failure returned %d, want 0", got)
	}
	if f.Big() != nil || f.Uint64() != 0 || f.Int64(math.MinInt64, math.MaxInt64) != 0 {
		t.Error("reads after the failure returned values")
	}
	if got := Read(f, func(v *big.Int) (int, error) { t.Error("validator called after the failure"); return 1, nil }); got != 0 {
		t.Errorf("Read after the failure = %d, want 0", got)
	}
	if rest := ReadRest(f, func(v *big.Int) (*big.Int, error) { t.Error("validator called after the failure"); return v, nil }); len(rest) != 0 {
		t.Errorf("ReadRest after the failure = %d elements, want none", len(rest))
	}
	if f.Err() != first || f.Done() != first {
		t.Errorf("Err = %v, Done = %v; want the first failure %v", f.Err(), f.Done(), first)
	}
}

// TestFieldsNilMissingTrailing: a nil element is refused by every typed
// read but reaches a validator as it is; reading past the end is a
// refusal naming the missing index; elements left unread make Done fail.
func TestFieldsNilMissingTrailing(t *testing.T) {
	reads := map[string]func(f *Fields){
		"Big":    func(f *Fields) { f.Big() },
		"Int":    func(f *Fields) { f.Int(math.MinInt, math.MaxInt) },
		"Int64":  func(f *Fields) { f.Int64(math.MinInt64, math.MaxInt64) },
		"Uint64": func(f *Fields) { f.Uint64() },
	}
	for name, read := range reads {
		f := ReadFields([]*big.Int{nil})
		if read(f); !refused(f.Err(), 0) {
			t.Errorf("%s of a nil element: Err = %v", name, f.Err())
		}
		f = ReadFields([]*big.Int{big.NewInt(1)})
		read(f)
		if read(f); !errors.Is(f.Err(), ErrBadFrame) || !strings.Contains(f.Err().Error(), "element 1 missing") {
			t.Errorf("%s past the end: Err = %v", name, f.Err())
		}
	}
	sawNil := false
	f := ReadFields([]*big.Int{nil})
	Read(f, func(v *big.Int) (bool, error) { sawNil = v == nil; return true, nil })
	if !sawNil || f.Done() != nil {
		t.Errorf("Read of a nil element: validator saw nil %v, Done = %v", sawNil, f.Done())
	}

	f = ReadFields([]*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(3)})
	f.Int(0, 5)
	if err := f.Done(); !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "2 trailing elements from element 1") {
		t.Errorf("Done with two elements unread = %v", err)
	}
	asIs := func(v *big.Int) (*big.Int, error) { return v, nil }
	f = ReadFields([]*big.Int{big.NewInt(1), nil, big.NewInt(3)})
	f.Int(0, 5)
	if rest := ReadRest(f, asIs); len(rest) != 2 || rest[0] != nil || f.Done() != nil {
		t.Errorf("ReadRest = %v, then Done = %v; want the two elements left, then nil", rest, f.Done())
	}
	// One refused element refuses the rest, with its index.
	f = ReadFields([]*big.Int{big.NewInt(1), big.NewInt(2), nil, big.NewInt(4)})
	f.Int(0, 5)
	nonNil := func(v *big.Int) (*big.Int, error) {
		if v == nil {
			return nil, errors.New("nil")
		}
		return v, nil
	}
	if rest := ReadRest(f, nonNil); rest != nil || !refused(f.Done(), 2) {
		t.Errorf("ReadRest over a nil element = %v, Done = %v; want none and a refusal of element 2", rest, f.Done())
	}
	if err := ReadFields(nil).Done(); err != nil {
		t.Errorf("Done of an empty frame = %v", err)
	}
}

// TestFieldsIntBounds walks Int across both ends of its range and past
// int64.
func TestFieldsIntBounds(t *testing.T) {
	const lo, hi = -3, 9
	huge := new(big.Int).Lsh(big.NewInt(1), 63)                        // 2^63
	tiny := new(big.Int).Sub(big.NewInt(math.MinInt64), big.NewInt(1)) // −2^63 − 1
	for _, tc := range []struct {
		v  *big.Int
		ok bool
	}{
		{big.NewInt(lo - 1), false},
		{big.NewInt(lo), true},
		{big.NewInt(hi), true},
		{big.NewInt(hi + 1), false},
		{huge, false},
		{tiny, false},
		{new(big.Int).Lsh(big.NewInt(1), 200), false},
	} {
		f := ReadFields([]*big.Int{tc.v})
		got := f.Int(lo, hi)
		if ok := f.Done() == nil; ok != tc.ok || ok && int64(got) != tc.v.Int64() || !ok && (got != 0 || !refused(f.Err(), 0)) {
			t.Errorf("Int(%d, %d) of %v = %d, Done %v; want accepted %v", lo, hi, tc.v, got, f.Done(), tc.ok)
		}
	}
	f := ReadFields([]*big.Int{big.NewInt(math.MaxInt64), big.NewInt(math.MinInt64), huge})
	if a, b := f.Int64(math.MinInt64, math.MaxInt64), f.Int64(math.MinInt64, math.MaxInt64); a != math.MaxInt64 || b != math.MinInt64 || f.Err() != nil {
		t.Errorf("Int64 over the whole range = %d, %d, %v", a, b, f.Err())
	}
	if f.Int64(math.MinInt64, math.MaxInt64); !refused(f.Err(), 2) {
		t.Errorf("Int64 of 2^63: Err = %v", f.Err())
	}
}

// TestFieldsUint64 refuses a negative and 2^64, and takes both ends of
// [0, 2^64).
func TestFieldsUint64(t *testing.T) {
	top := new(big.Int).SetUint64(math.MaxUint64)
	for _, tc := range []struct {
		v    *big.Int
		want uint64
		ok   bool
	}{
		{big.NewInt(0), 0, true},
		{top, math.MaxUint64, true},
		{big.NewInt(-1), 0, false},
		{new(big.Int).Add(top, big.NewInt(1)), 0, false},
	} {
		f := ReadFields([]*big.Int{tc.v})
		if got := f.Uint64(); got != tc.want || (f.Done() == nil) != tc.ok {
			t.Errorf("Uint64 of %v = %d, Done %v; want %d, accepted %v", tc.v, got, f.Done(), tc.want, tc.ok)
		}
	}
}

// TestFieldsReadWrapsValidator: a validator's refusal is ErrBadFrame and
// the validator's own sentinel at once, and names the element.
func TestFieldsReadWrapsValidator(t *testing.T) {
	errOwn := errors.New("not a ciphertext")
	f := ReadFields([]*big.Int{big.NewInt(1), big.NewInt(2)})
	f.Int(0, 1)
	got := Read(f, func(v *big.Int) (*big.Int, error) { return v, fmt.Errorf("%w: %v", errOwn, v) })
	err := f.Done()
	if got != nil || !errors.Is(err, ErrBadFrame) || !errors.Is(err, errOwn) || !strings.Contains(err.Error(), "element 1:") {
		t.Errorf("Read = %v, Done = %v; want nil and a refusal of element 1 wrapping both sentinels", got, err)
	}
}

// FuzzFields drives any sequence of reads over any payload against a
// model of the reader: no read panics, each returns its element's value
// while the reader holds and the zero value after, and Done is nil
// exactly when every read succeeded and nothing is left.
func FuzzFields(f *testing.F) {
	// Payload bytes: 0 nil, 1 a small signed integer, 2 and 3 a positive
	// and a negative integer of up to 255 magnitude bytes. Reads: 0 Big,
	// 1 Int over a small range, 2 Int64 over int64, 3 Uint64, 4 Read with
	// a validator refusing nil and odd values, 5 ReadRest through it.
	f.Add([]byte{1, 5, 1, 0x80, 0, 2, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{1, 0, 10, 1, 0x80, 0x7f, 0, 2})
	f.Add([]byte{1, 2, 3, 1, 7}, []byte{4, 3, 5})
	f.Add([]byte{3, 8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{2, 3})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{0, 0}, []byte{4, 4})
	errOdd := errors.New("odd")
	even := func(w *big.Int) (*big.Int, error) {
		if w == nil || w.Bit(0) == 1 {
			return w, errOdd
		}
		return w, nil
	}
	f.Fuzz(func(t *testing.T, payload, ops []byte) {
		var ints []*big.Int
		for len(payload) > 0 && len(ints) < 32 {
			kind := payload[0] % 4
			payload = payload[1:]
			switch {
			case kind == 0:
				ints = append(ints, nil)
			case kind == 1 && len(payload) > 0:
				ints = append(ints, big.NewInt(int64(int8(payload[0]))))
				payload = payload[1:]
			case len(payload) > 0:
				n := min(int(payload[0]), len(payload)-1)
				v := new(big.Int).SetBytes(payload[1 : 1+n])
				if kind == 3 {
					v.Neg(v)
				}
				ints = append(ints, v)
				payload = payload[1+n:]
			}
		}
		r := ReadFields(ints)
		pos, failed := 0, false
		// next models one element read: the element, or nil and false
		// once the model has failed or run out.
		next := func() (*big.Int, bool) {
			if failed || pos == len(ints) {
				failed = true
				return nil, false
			}
			pos++
			return ints[pos-1], true
		}
		accept := func(ok bool) bool {
			failed = failed || !ok
			return !failed
		}
		for len(ops) > 0 {
			op := ops[0] % 6
			ops = ops[1:]
			switch op {
			case 0:
				v, _ := next()
				if got := r.Big(); accept(v != nil) != (got != nil) || got != nil && got != v {
					t.Fatalf("Big at %d = %v, model %v", pos, got, v)
				}
			case 1:
				lo, hi := -1, 1
				if len(ops) >= 2 {
					lo, hi = int(int8(ops[0])), int(int8(ops[1]))
					ops = ops[2:]
				}
				v, _ := next()
				ok := v != nil && v.IsInt64() && v.Int64() >= int64(lo) && v.Int64() <= int64(hi)
				if got := r.Int(lo, hi); accept(ok) && int64(got) != v.Int64() || !ok && got != 0 {
					t.Fatalf("Int(%d, %d) at %d = %d, model %v", lo, hi, pos, got, v)
				}
			case 2:
				v, _ := next()
				ok := v != nil && v.IsInt64()
				if got := r.Int64(math.MinInt64, math.MaxInt64); accept(ok) && got != v.Int64() || !ok && got != 0 {
					t.Fatalf("Int64 at %d = %d, model %v", pos, got, v)
				}
			case 3:
				v, _ := next()
				ok := v != nil && v.IsUint64()
				if got := r.Uint64(); accept(ok) && got != v.Uint64() || !ok && got != 0 {
					t.Fatalf("Uint64 at %d = %d, model %v", pos, got, v)
				}
			case 4:
				v, present := next()
				ok := present && v != nil && v.Bit(0) == 0
				got := Read(r, even)
				if accept(ok) != (got != nil) || got != nil && got != v {
					t.Fatalf("Read at %d = %v, model %v", pos, got, v)
				}
				if present && !ok && !errors.Is(r.Err(), errOdd) {
					t.Fatalf("Read refusal %v does not wrap the validator's", r.Err())
				}
			case 5:
				want := 0
				for !failed && pos < len(ints) {
					v, _ := next()
					accept(v != nil && v.Bit(0) == 0)
					want++
				}
				if failed {
					want = 0
				}
				got := ReadRest(r, even)
				if len(got) != want {
					t.Fatalf("ReadRest = %d elements, model %d", len(got), want)
				}
				for i, v := range got {
					if v != ints[pos-want+i] {
						t.Fatalf("ReadRest element %d = %v, model %v", i, v, ints[pos-want+i])
					}
				}
			}
			if (r.Err() == nil) != !failed {
				t.Fatalf("Err = %v, model failed %v", r.Err(), failed)
			}
		}
		done := r.Done()
		if want := !failed && pos == len(ints); (done == nil) != want {
			t.Fatalf("Done = %v with %d of %d elements read, model failed %v", done, pos, len(ints), failed)
		}
		if done != nil && !errors.Is(done, ErrBadFrame) {
			t.Fatalf("Done = %v, not ErrBadFrame", done)
		}
	})
}
