package smc

import (
	"fmt"

	"sknn/internal/paillier"
)

// SBOR is Secure Bit-OR: given E(o₁) and E(o₂) for bits o₁, o₂, C1
// learns E(o₁∨o₂) via the identity o₁∨o₂ = o₁ + o₂ − o₁∧o₂, where the
// AND is one secure multiplication (for bits, o₁·o₂ = o₁∧o₂).
func (rq *Requester) SBOR(o1, o2 *paillier.Ciphertext) (*paillier.Ciphertext, error) {
	out, err := rq.SBORBatch([]*paillier.Ciphertext{o1}, []*paillier.Ciphertext{o2})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// SBORBatch computes element-wise OR over two bit vectors in one round
// trip. SkNNm's disqualification step ORs the selector bit into all l
// bits of all n distances, i.e. n·l SBORs per iteration — batching these
// is the single biggest communication win in the protocol.
func (rq *Requester) SBORBatch(o1s, o2s []*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	if len(o1s) != len(o2s) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(o1s), len(o2s))
	}
	ands, err := rq.SMBatch(o1s, o2s)
	if err != nil {
		return nil, fmt.Errorf("smc: SBOR products: %w", err)
	}
	out := make([]*paillier.Ciphertext, len(o1s))
	for i := range o1s {
		out[i] = rq.pk.Sub(rq.pk.Add(o1s[i], o2s[i]), ands[i])
	}
	return out, nil
}
