package smc

import (
	"fmt"
	"math/big"

	"sknn/internal/paillier"
)

// This file holds the value-domain minimum: the same E(min) functionality
// as SMIN/SMINn, but computed over composed distance values instead of bit
// vectors. Every comparator of the production engine's selection network
// (Algorithm 6's step 3, reshaped) and its cluster-ranking tournament
// runs on it.
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
// round after them. A record riding the comparison is selected the same
// way, in the same round: each of its chunks is one more operand
// w = rec_b − rec_a + 2^recBits + ρ, and rec_a + α·(rec_b − rec_a) is the
// minimum's record — one comparator of the engine's selection network,
// which also keeps max = a + b − min, linearly, where it needs it.
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

// SMINValuePair is one comparator over composed values: A = E(a),
// B = E(b) with a, b < 2^l, and the records RecA and RecB riding it —
// equally many chunks, each below 2^recBits — or none.
type SMINValuePair struct {
	A, B       *paillier.Ciphertext
	RecA, RecB []*paillier.Ciphertext
}

// SMINValuePairsBatch is the comparator kernel: E(min(aᵢ,bᵢ)) for every
// pair, and the minimum's record — RecB where aᵢ ≥ bᵢ, RecA otherwise —
// chunk by chunk (nil when the pairs carry none), in l+1 round trips
// total, the shifted packed bit rounds, the last of which also selects,
// independent of the number of pairs and of their chunks. Every pair
// carries as many chunks as the first. Requires a key that fits an
// (l+1)-bit slot; callers gate on NewPacking(pk, l+1) succeeding.
func (rq *Requester) SMINValuePairsBatch(pairs []SMINValuePair, l, recBits int) ([]*paillier.Ciphertext, [][]*paillier.Ciphertext, error) {
	if len(pairs) == 0 {
		return nil, nil, ErrEmptyInput
	}
	chunks := len(pairs[0].RecA)
	opBits := l + 1
	if chunks > 0 {
		opBits = max(opBits, recBits+1)
	}
	if l < 1 || opBits > packMaxValueBits || (chunks > 0 && recBits < 1) {
		return nil, nil, fmt.Errorf("smc: value SMIN domain l=%d, records of %d bits", l, recBits)
	}
	codec, err := rq.packCodec(l + 1)
	if err != nil {
		return nil, nil, fmt.Errorf("smc: value SMIN codec: %w", err)
	}
	n := len(pairs)
	pow := new(big.Int).Lsh(oneBig, uint(l)) // 2^l
	recPow := new(big.Int)                   // 2^recBits, where records ride
	if chunks > 0 {
		recPow.Lsh(oneBig, uint(recBits))
	}

	// t = 2^l + a − b, and the select operands b − a + 2^l, both in
	// [1, 2^(l+1)), and rec_b − rec_a + 2^recBits per chunk. Every
	// subtrahend is known before any round trip: one batch inversion for
	// all the pairs, B, A and RecA's chunks pair by pair.
	per := 2 + chunks
	negs := make([]*paillier.Ciphertext, 0, n*per)
	for i, p := range pairs {
		if p.A == nil || p.B == nil || len(p.RecA) != chunks || len(p.RecB) != chunks {
			return nil, nil, fmt.Errorf("%w: value SMIN pair %d", ErrEmptyInput, i)
		}
		for g, a := range p.RecA {
			if a == nil || p.RecB[g] == nil {
				return nil, nil, fmt.Errorf("%w: value SMIN pair %d record chunk %d", ErrEmptyInput, i, g)
			}
		}
		negs = append(append(negs, p.B, p.A), p.RecA...)
	}
	negs = rq.pk.InvMany(negs)
	ts := make([]*paillier.Ciphertext, n)
	ops := make([][]*paillier.Ciphertext, n)
	for i, p := range pairs {
		neg := negs[i*per : (i+1)*per]
		ts[i] = rq.pk.AddPlain(rq.pk.Add(p.A, neg[0]), pow)
		ops[i] = append(make([]*paillier.Ciphertext, 0, 1+chunks), rq.pk.AddPlain(rq.pk.Add(p.B, neg[1]), pow))
		for g, b := range p.RecB {
			ops[i] = append(ops[i], rq.pk.AddPlain(rq.pk.Add(b, neg[2+g]), recPow))
		}
	}

	// α = [a ≥ b], the MSB of t's l+1-bit decomposition, extracted by the
	// shifted packed peel — exact against an honest C2 (short slot blinds
	// never wrap, so no recomposition verify is needed) — whose output
	// round returns E(y) and E(y·w) for y = α XOR flip and every operand
	// w = x_b − x_a + offset + ρ.
	outs, err := rq.msbOncePacked(ts, ops, opBits, l+1, codec)
	if err != nil {
		return nil, nil, fmt.Errorf("smc: value SMIN bit extraction: %w", err)
	}

	// y·(x_b − x_a) = y·w − y·(ρ + offset), so with e = ρ + offset
	//	flip = 0 (α = y):     x_min = x_a + y·w − e·y
	//	flip = 1 (α = 1 − y): x_min = x_b − y·w + e·y
	// — one short exponentiation per operand, the inversions batched.
	var toInvert []*paillier.Ciphertext
	at := make([]int, n) // where pair i's inversions start
	for i, o := range outs {
		at[i] = len(toInvert)
		if o.Flip {
			toInvert = append(toInvert, o.YW...)
		} else {
			toInvert = append(toInvert, o.Y)
		}
	}
	inv := rq.pk.InvMany(toInvert)
	mins := make([]*paillier.Ciphertext, n)
	var recs [][]*paillier.Ciphertext
	if chunks > 0 {
		recs = make([][]*paillier.Ciphertext, n)
	}
	_ = paillier.ForEach(n, func(i int) error { // cannot fail
		o, p := outs[i], pairs[i]
		pick := func(e int, a, b *paillier.Ciphertext, offset *big.Int) *paillier.Ciphertext {
			exp := new(big.Int).Add(o.Rho[e], offset)
			if o.Flip {
				return rq.pk.Add(rq.pk.Add(b, inv[at[i]+e]), rq.pk.ScalarMul(o.Y, exp))
			}
			return rq.pk.Add(rq.pk.Add(a, o.YW[e]), rq.pk.ScalarMul(inv[at[i]], exp))
		}
		mins[i] = pick(0, p.A, p.B, pow)
		if chunks > 0 {
			recs[i] = make([]*paillier.Ciphertext, chunks)
			for g := range recs[i] {
				recs[i][g] = pick(1+g, p.RecA[g], p.RecB[g], recPow)
			}
		}
		return nil
	})
	return mins, recs, nil
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
		mins, _, err := rq.SMINValuePairsBatch(pairs, l, 0)
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
