package paillier

import (
	"fmt"
	"math/big"
)

// NewPrivateKey rebuilds a private key from its prime factors, the only
// values a key file stores: everything else is derived here, so a
// corrupted or malicious file cannot desynchronize a cache or a CRT
// precomputation. p and q come from outside, so they are checked as
// GenerateKey guarantees them — odd, distinct, prime, and coprime to the
// totient — and anything else is ErrMalformedKey.
func NewPrivateKey(p, q *big.Int) (*PrivateKey, error) {
	if p == nil || q == nil || p.Sign() <= 0 || q.Sign() <= 0 || p.Cmp(q) == 0 ||
		p.Bit(0) == 0 || q.Bit(0) == 0 { // 2 is prime, and no factor of an odd N
		return nil, ErrMalformedKey
	}
	if !p.ProbablyPrime(20) || !q.ProbablyPrime(20) {
		return nil, fmt.Errorf("%w: factors are not prime", ErrMalformedKey)
	}
	// GenerateKey's invariant, which decryption (N invertible mod λ) and
	// the nonce kernel (hN mod p² of order dividing p−1) both need; a
	// pair like p = 2q+1 is prime and distinct yet breaks it.
	if !coprimeToTotient(p, q) {
		return nil, fmt.Errorf("%w: gcd(pq, (p-1)(q-1)) is not 1", ErrMalformedKey)
	}
	return newPrivateKey(p, q)
}

// Factors returns copies of the key's prime factors p and q, what
// NewPrivateKey rebuilds it from.
func (sk *PrivateKey) Factors() (p, q *big.Int) {
	return new(big.Int).Set(sk.p.prime), new(big.Int).Set(sk.q.prime)
}
