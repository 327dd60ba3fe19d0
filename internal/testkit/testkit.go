// Package testkit holds cross-package test fixtures. Its main export is
// a process-wide Paillier keyring: key generation (two safe primes) is
// by far the slowest part of any test, and every suite wants the same
// few modulus sizes, so the ring generates each size once and hands the
// same immutable key to every caller — including concurrent t.Parallel
// tests. paillier.KeygenCalls makes the no-regeneration property
// testable.
//
// The paillier package's own tests keep local generation (importing
// testkit from there would be a cycle); everything above it shares the
// ring.
package testkit

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"

	"sknn/internal/paillier"
)

var (
	ringMu sync.Mutex
	ring   = map[int]func() *paillier.PrivateKey{} // guarded by ringMu
)

// Key returns the shared Paillier private key for the given modulus
// size, generating it on first use. The returned key is immutable and
// safe to share across parallel tests; a given size is never generated
// twice in one process. Panics on generation failure (test-only code).
func Key(bits int) *paillier.PrivateKey {
	ringMu.Lock()
	once, ok := ring[bits]
	if !ok {
		once = sync.OnceValue(func() *paillier.PrivateKey {
			sk, err := paillier.GenerateKey(rand.Reader, bits)
			if err != nil {
				panic(fmt.Sprintf("testkit: generating %d-bit key: %v", bits, err))
			}
			return sk
		})
		ring[bits] = once
	}
	ringMu.Unlock()
	return once()
}

// HostileModuli are the values every decoder that builds a key from an
// outside modulus must refuse (paillier.NewPublicKey's checks): absent,
// zero, negative, one bit short of the minimum, and even — which
// Montgomery arithmetic cannot take and no product of two odd primes is.
func HostileModuli() map[string]*big.Int {
	even := new(big.Int).Lsh(big.NewInt(1), 511)
	return map[string]*big.Int{
		"nil":      nil,
		"zero":     new(big.Int),
		"negative": new(big.Int).Neg(Key(256).N),
		"2^63":     new(big.Int).Lsh(big.NewInt(1), 63),
		"even":     even.Add(even, big.NewInt(6)),
	}
}
