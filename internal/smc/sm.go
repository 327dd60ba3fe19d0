package smc

import (
	"fmt"
	"math/big"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// SM is Secure Multiplication (Algorithm 1): given E(a) and E(b), C1
// learns E(a·b) and neither party learns a or b. It relies on the
// identity
//
//	a·b = (a+rₐ)(b+r_b) − a·r_b − b·rₐ − rₐ·r_b   (mod N)
//
// C1 additively blinds both inputs, C2 decrypts and multiplies the blinded
// values, and C1 strips the three cross terms homomorphically.
func (rq *Requester) SM(a, b *paillier.Ciphertext) (*paillier.Ciphertext, error) {
	out, err := rq.SMBatch([]*paillier.Ciphertext{a}, []*paillier.Ciphertext{b})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// SMBatch runs SM element-wise over two equal-length vectors in a single
// round trip. This is the batching the SkNN protocols lean on: SSED needs
// m multiplications per record and the SBOR update needs n·l per
// iteration, all independent.
func (rq *Requester) SMBatch(as, bs []*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(as), len(bs))
	}
	if len(as) == 0 {
		return nil, ErrEmptyInput
	}
	n := len(as)
	ras := make([]*big.Int, n)
	rbs := make([]*big.Int, n)
	payload := make([]*paillier.Ciphertext, 0, 2*n)
	for i := 0; i < n; i++ {
		ra, err := rq.pk.RandomZN(rq.rand)
		if err != nil {
			return nil, fmt.Errorf("smc: SM blind: %w", err)
		}
		rb, err := rq.pk.RandomZN(rq.rand)
		if err != nil {
			return nil, fmt.Errorf("smc: SM blind: %w", err)
		}
		ras[i], rbs[i] = ra, rb
		// a′ = E(a)·E(rₐ) = E(a+rₐ); AddPlain saves the encryption.
		aPrime := rq.pk.AddPlain(as[i], ra)
		bPrime := rq.pk.AddPlain(bs[i], rb)
		payload = append(payload, aPrime, bPrime)
	}

	hs, err := rq.exchange(OpSM, nil, payload, n)
	if err != nil {
		return nil, fmt.Errorf("smc: SM round trip: %w", err)
	}

	out := make([]*paillier.Ciphertext, n)
	for i := 0; i < n; i++ {
		// s  = h′ · E(a)^(−r_b)
		s := rq.pk.Add(hs[i], rq.pk.ScalarMul(as[i], new(big.Int).Neg(rbs[i])))
		// s′ = s · E(b)^(−rₐ)
		s = rq.pk.Add(s, rq.pk.ScalarMul(bs[i], new(big.Int).Neg(ras[i])))
		// E(a·b) = s′ · E(−rₐ·r_b)
		cross := new(big.Int).Mul(ras[i], rbs[i])
		out[i] = rq.pk.AddPlain(s, cross.Neg(cross))
	}
	return out, nil
}

// handleSM is C2's half of SM: decrypt each blinded pair, multiply mod N,
// return fresh encryptions. The decrypted values (a+rₐ) and (b+r_b) are
// uniform in Z_N, so C2 learns nothing.
func (rp *Responder) handleSM(req *mpc.Message) (*mpc.Message, error) {
	cts, err := rp.ciphertexts(req, 2)
	if err != nil {
		return nil, err
	}
	n := len(cts) / 2
	ms, nonces, err := rp.Decrypt(cts, nil, n)
	if err != nil {
		return nil, fmt.Errorf("smc: SM: %w", err)
	}
	hs := make([]*big.Int, n)
	for i := range hs {
		h := ms[2*i].Mul(ms[2*i], ms[2*i+1])
		hs[i] = h.Mod(h, rp.sk.N)
	}
	return &mpc.Message{Op: OpSM, Ints: rp.encryptReply(nonces, hs)}, nil
}
