package smc

import (
	"crypto/rand"
	"fmt"
	"math/big"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// SMIN is the paper's novel Secure Minimum protocol (Algorithm 3): given
// two bit-decomposed encrypted values [u] and [v] (MSB first, equal
// length l), C1 learns [min(u,v)] bit-by-bit while neither party learns
// u, v, or which operand was smaller.
//
// C1 flips a private coin F ∈ {u>v, v>u} and evaluates the chosen
// comparison obliviously:
//
//   - Wᵢ encrypts 1 exactly at positions where the F-ordering holds
//     strictly (e.g. uᵢ=1, vᵢ=0 for F: u>v);
//   - Gᵢ = E(uᵢ⊕vᵢ) marks disagreeing positions;
//   - the H-chain (Hᵢ = H_{i−1}^{rᵢ}·Gᵢ) equals E(1) exactly at the
//     first disagreement and random values after it;
//   - Φᵢ = E(−1)·Hᵢ is then E(0) only at that first disagreement, and
//     Lᵢ = Wᵢ·Φᵢ^{r′ᵢ} reveals W at that one position once decrypted;
//   - Γᵢ carries E(±(vᵢ−uᵢ)) additively blinded with r̂ᵢ, which C1 later
//     unblinds to reconstruct the minimum's bits.
//
// C1 permutes Γ and L with independent permutations before sending, so
// C2's view is a shuffled vector containing at most one 1 among random
// values. C2 sets α := 1 iff some decrypted Lᵢ is 1 — i.e. α is the
// truth value of the coin-masked comparison F — and returns M′ᵢ = Γ′ᵢ^α
// and E(α), both freshly re-randomized: without re-randomization C1
// could read α off the wire by comparing M′ with the Γ′ it sent.
//
// Finally C1 computes E(min(u,v)ᵢ) = E(uᵢ)·λᵢ (for F: u>v), where
// λᵢ = M̃ᵢ·E(α)^{−r̂ᵢ} = E(α·(vᵢ−uᵢ)); i.e. min = u + α(v−u).
func (rq *Requester) SMIN(u, v []*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	if len(u) != len(v) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(u), len(v))
	}
	l := len(u)
	if l == 0 {
		return nil, ErrEmptyInput
	}

	// Step 1(a): choose the functionality F by private coin.
	coin, err := rand.Int(rq.rand, big.NewInt(2))
	if err != nil {
		return nil, fmt.Errorf("smc: SMIN coin: %w", err)
	}
	fUGreaterV := coin.Int64() == 1

	// E(uᵢ·vᵢ) for all i in one round.
	uv, err := rq.SMBatch(u, v)
	if err != nil {
		return nil, fmt.Errorf("smc: SMIN bit products: %w", err)
	}

	gamma := make([]*paillier.Ciphertext, l)
	lvec := make([]*paillier.Ciphertext, l)
	rhats := make([]*big.Int, l)
	hPrev, err := rq.EncryptZero() // H₀ = E(0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < l; i++ {
		var w, gammaRawDiff *paillier.Ciphertext
		if fUGreaterV {
			// Wᵢ = E(uᵢ)·E(uᵢvᵢ)^(−1) = E(uᵢ(1−vᵢ))
			w = rq.pk.Sub(u[i], uv[i])
			gammaRawDiff = rq.pk.Sub(v[i], u[i])
		} else {
			w = rq.pk.Sub(v[i], uv[i])
			gammaRawDiff = rq.pk.Sub(u[i], v[i])
		}
		// Γᵢ = E(±(vᵢ−uᵢ) + r̂ᵢ), r̂ᵢ uniform in Z_N.
		rhat, err := rq.pk.RandomZN(rq.rand)
		if err != nil {
			return nil, fmt.Errorf("smc: SMIN r̂: %w", err)
		}
		rhats[i] = rhat
		gamma[i] = rq.pk.AddPlain(gammaRawDiff, rhat)

		// Gᵢ = E(uᵢ⊕vᵢ) = E(uᵢ+vᵢ−2uᵢvᵢ)
		g := rq.pk.Add(rq.pk.Add(u[i], v[i]), rq.pk.ScalarMulInt64(uv[i], -2))
		// Hᵢ = H_{i−1}^{rᵢ}·Gᵢ with rᵢ random nonzero.
		ri, err := rq.pk.RandomNonzeroZN(rq.rand)
		if err != nil {
			return nil, fmt.Errorf("smc: SMIN rᵢ: %w", err)
		}
		h := rq.pk.Add(rq.pk.ScalarMul(hPrev, ri), g)
		hPrev = h
		// Φᵢ = E(−1)·Hᵢ
		phi := rq.pk.AddPlain(h, big.NewInt(-1))
		// Lᵢ = Wᵢ·Φᵢ^{r′ᵢ}
		rpi, err := rq.pk.RandomNonzeroZN(rq.rand)
		if err != nil {
			return nil, fmt.Errorf("smc: SMIN r′ᵢ: %w", err)
		}
		lvec[i] = rq.pk.Add(w, rq.pk.ScalarMul(phi, rpi))
	}

	// Steps 1(c)-(d): permute Γ and L independently and ship to C2.
	pi1, err := NewPermutation(rq.rand, l)
	if err != nil {
		return nil, err
	}
	pi2, err := NewPermutation(rq.rand, l)
	if err != nil {
		return nil, err
	}
	gammaP := applyPerm(pi1, gamma)
	lvecP := applyPerm(pi2, lvec)
	reply, err := rq.exchange(OpSMIN, nil, append(gammaP, lvecP...), l+1)
	if err != nil {
		return nil, fmt.Errorf("smc: SMIN step 2: %w", err)
	}
	mPrime, encAlpha := reply[:l], reply[l]

	// Step 3: unpermute, unblind, and assemble the minimum's bits.
	// λᵢ = M̃ᵢ · E(α)^(−r̂ᵢ) = M̃ᵢ · Inv(E(α))^(r̂ᵢ): one inversion shared
	// across all bits, then positive exponents.
	mTilde := applyPerm(pi1.Inverse(), mPrime)
	aInv := rq.pk.Inv(encAlpha)
	out := make([]*paillier.Ciphertext, l)
	for i := 0; i < l; i++ {
		lambda := rq.pk.Add(mTilde[i], rq.pk.ScalarMul(aInv, rhats[i]))
		if fUGreaterV {
			out[i] = rq.pk.Add(u[i], lambda)
		} else {
			out[i] = rq.pk.Add(v[i], lambda)
		}
	}
	return out, nil
}

// handleSMIN is C2's half of SMIN (Algorithm 3, step 2). The payload is
// Γ′ followed by L′ (l each); the reply is M′ (l values) followed by
// E(α). Both are re-randomized so the reply ciphertexts are fresh.
func (rp *Responder) handleSMIN(req *mpc.Message) (*mpc.Message, error) {
	cts, err := rp.ciphertexts(req, 2)
	if err != nil {
		return nil, err
	}
	l := len(cts) / 2
	gammas, lvecP := cts[:l], cts[l:]
	// α ← 1 iff some decrypted L′ᵢ equals 1. Every L′ᵢ is decrypted:
	// short-circuiting would make the responder's running time depend on
	// the secret position. The l re-randomisations and E(α) take their
	// nonces from the same call.
	ms, nonces, err := rp.Decrypt(lvecP, nil, l+1)
	if err != nil {
		return nil, fmt.Errorf("smc: SMIN L′: %w", err)
	}
	alpha := uint64(0)
	for _, m := range ms {
		if m.Cmp(oneBig) == 0 {
			alpha = 1
		}
	}

	alphaBig := new(big.Int).SetUint64(alpha)
	out := make([]*big.Int, 0, l+1)
	for i, ct := range gammas {
		mp := rp.sk.RerandomizeWith(nonces[i], rp.sk.ScalarMul(ct, alphaBig))
		out = append(out, mp.Raw())
	}
	out = append(out, rp.sk.EncryptWith(nonces[l], alphaBig).Raw())
	return &mpc.Message{Op: OpSMIN, Ints: out}, nil
}
