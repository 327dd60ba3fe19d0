package smc

import (
	"fmt"
	"math/big"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// SBD is Secure Bit-Decomposition: given E(z) with 0 ≤ z < 2^l, C1 learns
// the encryptions of z's individual bits ⟨E(z₁),…,E(z_l)⟩ (z₁ = MSB) and
// neither party learns z.
//
// The paper uses the Samanthula–Jiang construction (ASIACCS 2013, its
// reference [21]), which this implements: l iterations of an encrypted
// least-significant-bit gadget followed by a randomized verification.
//
// One LSB round, for the current remainder E(z'):
//
//  1. C1 blinds: Y = E(z' + r) for fresh uniform r ∈ Z_N.
//  2. C2 decrypts y = z' + r mod N and returns E(y mod 2).
//  3. C1 unblinds: lsb(z') = lsb(y) ⊕ lsb(r), provided z' + r did not
//     wrap mod N. Homomorphically: E(z'_lsb) = E(y mod 2) if r is even,
//     and E(1 − (y mod 2)) otherwise.
//  4. C1 halves: E(z”) = ( E(z') · E(z'_lsb)^(−1) )^(2⁻¹ mod N).
//
// The wraparound in step 3 happens with probability z'/N ≈ 2^l/N — hence
// "probabilistic" — and is caught by the verification step (VerifySBD),
// which recomputes E(Σ zᵢ·2^(l−i)) from the bits, subtracts E(z), blinds
// multiplicatively, and asks C2 whether the result decrypts to zero. On
// failure the decomposition is retried with fresh randomness.
func (rq *Requester) SBD(z *paillier.Ciphertext, l int) ([]*paillier.Ciphertext, error) {
	out, err := rq.SBDBatch([]*paillier.Ciphertext{z}, l)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// SBDBatch decomposes many values at once: each of the l LSB rounds and
// the final verification sends one frame covering all values. The SkNNm
// protocol decomposes all n distances up front, so this turns n·(l+1)
// round trips into l+1.
func (rq *Requester) SBDBatch(zs []*paillier.Ciphertext, l int) ([][]*paillier.Ciphertext, error) {
	if len(zs) == 0 {
		return nil, ErrEmptyInput
	}
	if l <= 0 {
		return nil, fmt.Errorf("smc: SBD domain size l=%d", l)
	}
	n := len(zs)
	bits := make([][]*paillier.Ciphertext, n)
	pending := make([]int, n) // indices still needing (re)decomposition
	for i := range pending {
		pending[i] = i
	}
	for attempt := 0; attempt <= sbdMaxRetries && len(pending) > 0; attempt++ {
		sub := make([]*paillier.Ciphertext, len(pending))
		for j, idx := range pending {
			sub[j] = zs[idx]
		}
		decomposed, err := rq.sbdOnce(sub, l)
		if err != nil {
			return nil, err
		}
		ok, err := rq.verifySBD(sub, decomposed, l)
		if err != nil {
			return nil, err
		}
		var still []int
		for j, idx := range pending {
			if ok[j] {
				bits[idx] = decomposed[j]
			} else {
				still = append(still, idx)
			}
		}
		pending = still
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("%w (%d values)", ErrSBDVerify, len(pending))
	}
	return bits, nil
}

// sbdOnce performs one unverified decomposition pass over all values.
func (rq *Requester) sbdOnce(zs []*paillier.Ciphertext, l int) ([][]*paillier.Ciphertext, error) {
	n := len(zs)
	rem := make([]*paillier.Ciphertext, n)
	copy(rem, zs)
	// lsbFirst[i] collects bits least-significant first; reversed at the end.
	lsbFirst := make([][]*paillier.Ciphertext, n)
	for i := range lsbFirst {
		lsbFirst[i] = make([]*paillier.Ciphertext, 0, l)
	}
	// 2⁻¹ mod N for the halving: N is odd, so 2·(N+1)/2 = N+1 ≡ 1.
	invTwo := new(big.Int).Rsh(new(big.Int).Add(rq.pk.N, oneBig), 1)

	rs := make([]*big.Int, n)
	for round := 0; round < l; round++ {
		payload := make([]*paillier.Ciphertext, n)
		for i := 0; i < n; i++ {
			r, err := rq.pk.RandomZN(rq.rand)
			if err != nil {
				return nil, fmt.Errorf("smc: SBD blind: %w", err)
			}
			rs[i] = r
			payload[i] = rq.pk.AddPlain(rem[i], r)
		}
		lsbs, err := rq.exchange(OpSBDLsb, nil, payload, n)
		if err != nil {
			return nil, fmt.Errorf("smc: SBD round %d: %w", round, err)
		}
		for i := 0; i < n; i++ {
			var bit *paillier.Ciphertext
			if rs[i].Bit(0) == 0 {
				bit = lsbs[i]
			} else {
				// lsb(z') = 1 − lsb(y): E(1)·E(lsb y)^(−1).
				bit = rq.pk.AddPlain(rq.pk.Neg(lsbs[i]), big.NewInt(1))
			}
			lsbFirst[i] = append(lsbFirst[i], bit)
			// rem = (rem − bit) / 2 (mod N); the numerator is even.
			half := rq.pk.ScalarMul(rq.pk.Sub(rem[i], bit), invTwo)
			rem[i] = half
		}
	}

	out := make([][]*paillier.Ciphertext, n)
	for i := range lsbFirst {
		msbFirst := make([]*paillier.Ciphertext, l)
		for j := 0; j < l; j++ {
			msbFirst[j] = lsbFirst[i][l-1-j]
		}
		out[i] = msbFirst
	}
	return out, nil
}

// verifySBD checks each decomposition by homomorphic recomposition and a
// blinded zero test at C2. C2 learns only whether each (uniformly
// blinded) difference is zero, which is exactly the leakage [21] proves
// simulatable.
func (rq *Requester) verifySBD(zs []*paillier.Ciphertext, bits [][]*paillier.Ciphertext, l int) ([]bool, error) {
	n := len(zs)
	payload := make([]*paillier.Ciphertext, n)
	for i := 0; i < n; i++ {
		rec := Recompose(rq.pk, bits[i])
		diff := rq.pk.Sub(rec, zs[i])
		rho, err := rq.pk.RandomNonzeroZN(rq.rand)
		if err != nil {
			return nil, fmt.Errorf("smc: SBD verify blind: %w", err)
		}
		payload[i] = rq.pk.ScalarMul(diff, rho)
	}
	f, err := rq.RoundTrip(OpSBDVerify, nil, payload)
	if err != nil {
		return nil, fmt.Errorf("smc: SBD verify: %w", err)
	}
	ok := make([]bool, n)
	for i := range ok {
		ok[i] = f.Int(0, 1) == 1
	}
	if err := f.Done(); err != nil {
		return nil, fmt.Errorf("smc: SBD verify flags: %w", err)
	}
	return ok, nil
}

// Recompose folds an encrypted bit vector (MSB first) back into the
// encryption of the value: E(z) = Π E(z_{γ+1})^(2^(l−γ−1)), the identity
// SkNNm applies at step 3(b) of Algorithm 6.
func Recompose(pk *paillier.PublicKey, bits []*paillier.Ciphertext) *paillier.Ciphertext {
	l := len(bits)
	acc := pk.ScalarMulInt64(bits[l-1], 1) // copy of LSB term
	weight := new(big.Int).SetInt64(2)
	for j := l - 2; j >= 0; j-- {
		acc = pk.Add(acc, pk.ScalarMul(bits[j], weight))
		weight = new(big.Int).Lsh(weight, 1)
	}
	return acc
}

// handleSBDLsb is C2's half of one LSB round: decrypt each blinded value
// and return a fresh encryption of its low bit. The decrypted y is
// uniform in Z_N.
func (rp *Responder) handleSBDLsb(req *mpc.Message) (*mpc.Message, error) {
	ys, err := rp.ciphertexts(req, 1)
	if err != nil {
		return nil, err
	}
	ms, nonces, err := rp.Decrypt(ys, nil, len(ys))
	if err != nil {
		return nil, fmt.Errorf("smc: SBD lsb: %w", err)
	}
	lsbs := make([]*big.Int, len(ms))
	for i, y := range ms {
		lsbs[i] = new(big.Int).SetUint64(uint64(y.Bit(0)))
	}
	return &mpc.Message{Op: OpSBDLsb, Ints: rp.encryptReply(nonces, lsbs)}, nil
}

// handleSBDVerify is C2's half of the verification: report, per value,
// whether the blinded recomposition difference decrypts to zero.
func (rp *Responder) handleSBDVerify(req *mpc.Message) (*mpc.Message, error) {
	diffs, err := rp.ciphertexts(req, 1)
	if err != nil {
		return nil, err
	}
	ms, _, err := rp.Decrypt(diffs, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("smc: SBD verify: %w", err)
	}
	out := make([]*big.Int, len(ms))
	for i, d := range ms {
		if d.Sign() == 0 {
			out[i] = big.NewInt(1)
		} else {
			out[i] = big.NewInt(0)
		}
	}
	return &mpc.Message{Op: OpSBDVerify, Ints: out}, nil
}
