package smc

import (
	"fmt"

	"sknn/internal/paillier"
)

// SSED is the Secure Squared Euclidean Distance protocol (Algorithm 2):
// given attribute-wise encryptions E(X) and E(Y) of two m-dimensional
// vectors, C1 learns E(|X−Y|²) and neither party learns X or Y.
//
// C1 first computes E(xᵢ−yᵢ) locally, squares each difference with one
// batched SM call, and accumulates the encrypted sum homomorphically.
func (rq *Requester) SSED(x, y []*paillier.Ciphertext) (*paillier.Ciphertext, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(x), len(y))
	}
	if len(x) == 0 {
		return nil, ErrEmptyInput
	}
	diffs := make([]*paillier.Ciphertext, len(x))
	for i := range x {
		diffs[i] = rq.pk.Sub(x[i], y[i])
	}
	squares, err := rq.SMBatch(diffs, diffs)
	if err != nil {
		return nil, fmt.Errorf("smc: SSED squaring: %w", err)
	}
	return rq.pk.Product(squares), nil
}
