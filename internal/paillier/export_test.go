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
	return newPrivateKey(p, q)
}

// Factors returns the prime factors for test assertions.
func (sk *PrivateKey) Factors() (p, q *big.Int) {
	return new(big.Int).Set(sk.p), new(big.Int).Set(sk.q)
}

// FBTable wraps the unexported fixed-base window table so property and
// fuzz tests can compare it against big.Int.Exp directly.
type FBTable struct{ t *fbTable }

// NewTestFBTable builds a window table for the given base and modulus.
func NewTestFBTable(base, mod *big.Int, maxExpBits int) *FBTable {
	return &FBTable{t: newFBTable(base, mod, maxExpBits)}
}

// Exp evaluates base^e via the table; ok is false out of range.
func (t *FBTable) Exp(e *big.Int) (*big.Int, bool) { return t.t.Exp(e) }

// FixedBaseHN returns h^N mod N² for cross-checks; nil when the
// fixed-base state is not enabled.
func (pk *PublicKey) FixedBaseHN() *big.Int {
	if pk.fb == nil {
		return nil
	}
	return new(big.Int).Set(pk.fb.hN)
}

// FixedBasePow evaluates the randomizer power hN^a through whichever
// path is installed (CRT-split when enabled via the private key).
func (pk *PublicKey) FixedBasePow(a *big.Int) (*big.Int, bool) {
	if pk.fb == nil {
		return nil, false
	}
	return pk.fb.pow(a)
}

// HelpersInFlight reports how many fan-out helper goroutines are alive
// process-wide: the quantity ForEach's budget bounds.
func HelpersInFlight() int { return int(helpers.Load()) }
