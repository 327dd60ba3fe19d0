package smc

import (
	"fmt"
	"math/big"

	"sknn/internal/paillier"
)

// This file holds the value-domain minimum: the same E(min) functionality
// as SMIN/SMINn, but computed over composed distance values instead of bit
// vectors. It is what the production engine runs the tournament of
// Algorithm 6 step 3(a) on.
//
// The bit-vector SMIN (Algorithm 3) pays, per comparison, l full-range
// multiplicative blinds at C1 (the Φ-masking of the L vector cannot use
// short exponents — a short blind at a pre-disagreement position would
// decrypt to N minus something small and hand C2 the position of the
// first disagreeing bit) plus l decryptions at C2. Those two terms are
// the floor of the whole protocol: SMINn is ≥60% of a query and rpi·Φ
// alone is a third of SMINn.
//
// The value-domain comparison sidesteps the L vector entirely:
//
//	t = 2^l + a − b ∈ [1, 2^(l+1))   (a, b < 2^l)
//
// has its bit l — the MSB of the l+1-bit decomposition — equal to
// [a ≥ b]. One packed bit peel (msbOncePacked) extracts α = [a ≥ b]
// without either party seeing t, and selects the minimum value
//
//	min(a,b) = a + α·(b − a)
//
// in its own output round: C2 reads the coin-masked bit y = α XOR lsb(r)
// there anyway, so the round also carries w = b − a + 2^l + ρ (offset
// clear of the sign, ρ a short blind) and returns E(y) beside E(y·w). C1
// recovers α·(b − a) from the two with one short exponentiation, so a
// comparison costs the peel's l + 1 rounds and no secure multiplication
// round after them.
//
// Everything C2 sees is the peel's uplink (slotwise short-blinded
// remainders and operands) and, in the output round, y — α masked by a
// fair coin only C1 knows, the same class as the coin-masked outcome
// Algorithm 3's SMIN hands C2, and no more than it: C2 learns nothing
// about α, and C1 never sees y. The bit-vector path's other costs —
// the L vector and its full-range Φ-masks — have no counterpart.
// Like the other packed kernels it relies on a semi-honest C2 for
// correctness (no recomposition verify); the bit path (SMIN here, SMINn
// in internal/reference) is the differential oracle.

// SMINValuePair is one independent minimum instance over composed
// values: A = E(a), B = E(b) with a, b < 2^l.
type SMINValuePair struct {
	A, B *paillier.Ciphertext
}

// SMINValuePairsBatch computes E(min(aᵢ,bᵢ)) for every pair in l+1 round
// trips total — the shifted packed bit rounds, the last of which also
// selects — independent of the number of pairs. Requires a key that fits
// an (l+1)-bit slot; callers gate on NewPacking(pk, l+1) succeeding.
func (rq *Requester) SMINValuePairsBatch(pairs []SMINValuePair, l int) ([]*paillier.Ciphertext, error) {
	if len(pairs) == 0 {
		return nil, ErrEmptyInput
	}
	if l < 1 || l+1 > packMaxValueBits {
		return nil, fmt.Errorf("smc: value SMIN domain l=%d", l)
	}
	codec, err := rq.packCodec(l + 1)
	if err != nil {
		return nil, fmt.Errorf("smc: value SMIN codec: %w", err)
	}
	n := len(pairs)
	pow := new(big.Int).Lsh(oneBig, uint(l)) // 2^l

	// t = 2^l + a − b and the select operand b − a + 2^l, both in
	// [1, 2^(l+1)).
	ts := make([]*paillier.Ciphertext, n)
	diffs := make([]*paillier.Ciphertext, n)
	for i, p := range pairs {
		if p.A == nil || p.B == nil {
			return nil, fmt.Errorf("%w: value SMIN pair %d", ErrEmptyInput, i)
		}
		ts[i] = rq.pk.AddPlain(rq.pk.Sub(p.A, p.B), pow)
		diffs[i] = rq.pk.AddPlain(rq.pk.Sub(p.B, p.A), pow)
	}

	// α = [a ≥ b], the MSB of t's l+1-bit decomposition, extracted by the
	// shifted packed peel — exact against an honest C2 (short slot blinds
	// never wrap, so no recomposition verify is needed) — whose output
	// round returns E(y) and E(y·w) for y = α XOR flip, w = b − a + 2^l + ρ.
	outs, err := rq.msbOncePacked(ts, diffs, l+1, codec)
	if err != nil {
		return nil, fmt.Errorf("smc: value SMIN bit extraction: %w", err)
	}

	// y·(b − a) = y·w − y·(ρ + 2^l), so with e = ρ + 2^l
	//	flip = 0 (α = y):     min = a + y·(b−a) = a + y·w − e·y
	//	flip = 1 (α = 1 − y): min = b − y·(b−a) = b − y·w + e·y
	// — one short exponentiation per pair, the inversions batched.
	toInvert := make([]*paillier.Ciphertext, n)
	for i, o := range outs {
		if o.Flip {
			toInvert[i] = o.YW
		} else {
			toInvert[i] = o.Y
		}
	}
	inv := rq.pk.InvMany(toInvert)
	out := make([]*paillier.Ciphertext, n)
	_ = paillier.ForEach(n, func(i int) error { // cannot fail
		o, p := outs[i], pairs[i]
		e := new(big.Int).Add(o.Rho, pow)
		if o.Flip {
			out[i] = rq.pk.Add(rq.pk.Add(p.B, inv[i]), rq.pk.ScalarMul(o.Y, e))
		} else {
			out[i] = rq.pk.Add(rq.pk.Add(p.A, o.YW), rq.pk.ScalarMul(inv[i], e))
		}
		return nil
	})
	return out, nil
}

// SMINnValues folds n composed values to E(min) through a ⌈log₂ n⌉-level
// tournament of SMINValuePairsBatch calls, every level fused into a
// constant number of frames.
func (rq *Requester) SMINnValues(ds []*paillier.Ciphertext, l int) (*paillier.Ciphertext, error) {
	if len(ds) == 0 {
		return nil, ErrEmptyInput
	}
	live := make([]*paillier.Ciphertext, len(ds))
	copy(live, ds)
	for len(live) > 1 {
		pairs := make([]SMINValuePair, 0, len(live)/2)
		for i := 0; i+1 < len(live); i += 2 {
			pairs = append(pairs, SMINValuePair{A: live[i], B: live[i+1]})
		}
		mins, err := rq.SMINValuePairsBatch(pairs, l)
		if err != nil {
			return nil, fmt.Errorf("smc: SMINnValues level of %d: %w", len(live), err)
		}
		next := mins
		if len(live)%2 == 1 {
			next = append(next, live[len(live)-1])
		}
		live = next
	}
	return live[0], nil
}
