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
// [a ≥ b]. One packed bit peel (msbOncePacked) extracts E(α) = E([a ≥ b])
// without either party seeing t, and one packed secure multiplication
// selects the minimum value:
//
//	min(a,b) = a + α·(b − a + 2^l) − α·2^l
//
// Everything C2 sees is the peel's uplink (slotwise short-blinded
// remainders) and the packed SM uplink. Unlike Algorithm 3, C2 never
// learns even the coin-masked comparison outcome: α stays encrypted end
// to end, so the value path leaks strictly less to C2 than the bit path
// it replaces.
// Like the other packed kernels it relies on a semi-honest C2 for
// correctness (no recomposition verify); the bit path (SMIN here, SMINn
// in internal/reference) is the differential oracle.

// SMINValuePair is one independent minimum instance over composed
// values: A = E(a), B = E(b) with a, b < 2^l.
type SMINValuePair struct {
	A, B *paillier.Ciphertext
}

// SMINValuePairsBatch computes E(min(aᵢ,bᵢ)) for every pair in l+2 round
// trips total (l+1 shifted packed bit rounds plus one packed SM),
// independent of the number of pairs. Requires a key that fits an
// (l+1)-bit slot; callers gate on NewPacking(pk, l+1) succeeding.
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

	// t = 2^l + a − b and the selector operand b − a + 2^l, both in
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

	// E(α) = E([a ≥ b]): the MSB of t's l+1-bit decomposition, extracted
	// by the shifted packed peel — exact against an honest C2 (short slot
	// blinds never wrap, so no recomposition verify is needed) and free
	// of full-range exponentiations.
	alphas, err := rq.msbOncePacked(ts, l+1, codec)
	if err != nil {
		return nil, fmt.Errorf("smc: value SMIN bit extraction: %w", err)
	}

	// α·(b − a + 2^l) via the packed SM uplink; α is a bit and the
	// operand is below 2^(l+1).
	prods, err := rq.SMBatchBounded(alphas, diffs, 1, l+1)
	if err != nil {
		return nil, fmt.Errorf("smc: value SMIN select: %w", err)
	}

	out := make([]*paillier.Ciphertext, n)
	for i, p := range pairs {
		// min = a + α(b−a+2^l) − α·2^l; the 2^l exponent is l+1 bits, so
		// the correction is a cheap short exponentiation.
		sel := rq.pk.Sub(prods[i], rq.pk.ScalarMul(alphas[i], pow))
		out[i] = rq.pk.Add(p.A, sel)
	}
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
