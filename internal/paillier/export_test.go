package paillier

import (
	"bytes"
	"encoding/gob"
	"math/big"
)

// wireEncoder builds raw serialized private keys (including invalid ones)
// so tests can exercise UnmarshalBinary's validation.
type wireEncoder struct{ p, q *big.Int }

func (w *wireEncoder) encode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(wirePrivateKey{P: w.p, Q: w.q})
	return buf.Bytes(), err
}

// Test-only accessors for unexported functionality.

// EncryptWithNonce exposes deterministic encryption for test vectors.
func (pk *PublicKey) EncryptWithNonce(m, r *big.Int) *Ciphertext {
	return pk.encryptWithNonce(m, r)
}

// DecryptNoCRT exposes the textbook decryption path for cross-checks.
func (sk *PrivateKey) DecryptNoCRT(ct *Ciphertext) (*big.Int, error) {
	return sk.decryptNoCRT(ct)
}

// NewPrivateKeyFromPrimes builds a key from fixed primes so tests can be
// fully deterministic.
func NewPrivateKeyFromPrimes(p, q *big.Int) *PrivateKey {
	sk, err := newPrivateKey(p, q)
	if err != nil {
		panic(err)
	}
	return sk
}

// Factors returns the prime factors for test assertions.
func (sk *PrivateKey) Factors() (p, q *big.Int) {
	return new(big.Int).Set(sk.p), new(big.Int).Set(sk.q)
}

// Comb wraps the unexported fixed-base comb so property and fuzz tests
// can compare it against big.Int.Exp directly.
type Comb struct{ c *comb }

// NewTestComb builds a comb for the given base and odd modulus.
func NewTestComb(base, mod *big.Int, maxExpBits int) *Comb {
	return &Comb{c: newComb(base, mod, maxExpBits)}
}

// Exp evaluates base^e via the comb; it panics out of range.
func (c *Comb) Exp(e *big.Int) *big.Int { return c.c.exp(e) }

// MontMul returns x·y mod m computed by the limb kernel: into Montgomery
// form, one product, and out again. alias picks the destination: 0 a
// fresh vector, 1 the first operand, 2 the second, 3 (x = y only) one
// vector for both operands and the destination.
func MontMul(m, x, y *big.Int, alias int) *big.Int {
	mm := newMontMod(m)
	n := len(mm.m)
	t := make([]uint64, n+1)
	xm, ym := mm.toMont(x), mm.toMont(y)
	z := make([]uint64, n)
	switch alias {
	case 1:
		z = xm
	case 2:
		z = ym
	case 3:
		z, ym = xm, xm
	}
	mm.mul(z, xm, ym, t)
	unit := make([]uint64, n)
	unit[0] = 1
	mm.mul(z, z, unit, t)
	return fromLimbs(z)
}

// FixedBasePow evaluates the randomizer power hN^a through the key's
// nonce kernel (CRT-split on a key built from the factorisation).
func (pk *PublicKey) FixedBasePow(a *big.Int) *big.Int { return pk.fb.pow(a) }

// FullExpRaises reports how many nonce powers this process has computed
// with a full-width big.Int.Exp: one per key constructed (its generator)
// plus EncryptWithNonce's test vectors — never an encryption.
func FullExpRaises() uint64 { return fullExpRaises.Load() }

// WirePublicKey gob-encodes a public key with an arbitrary (possibly
// hostile) modulus, for UnmarshalBinary's validation tests.
func WirePublicKey(n *big.Int) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(wirePublicKey{N: n})
	return buf.Bytes(), err
}

// HelpersInFlight reports how many fan-out helper goroutines are alive
// process-wide: the quantity ForEach's budget bounds.
func HelpersInFlight() int { return int(helpers.Load()) }
