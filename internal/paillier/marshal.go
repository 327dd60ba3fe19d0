package paillier

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/big"
)

// wirePublicKey and wirePrivateKey are the stable serialized forms. Only
// the defining values travel; caches and CRT precomputations are rebuilt
// on load so a corrupted or malicious file cannot desynchronize them.
type wirePublicKey struct {
	N *big.Int
}

type wirePrivateKey struct {
	P, Q *big.Int
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (pk *PublicKey) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wirePublicKey{N: pk.N}); err != nil {
		return nil, fmt.Errorf("paillier: encoding public key: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (pk *PublicKey) UnmarshalBinary(data []byte) error {
	var w wirePublicKey
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("paillier: decoding public key: %w", err)
	}
	key, err := NewPublicKey(w.N)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMalformedGobRemote, err)
	}
	*pk = *key
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler. Only p and q are
// stored; everything else is derivable.
func (sk *PrivateKey) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wirePrivateKey{P: sk.p, Q: sk.q}); err != nil {
		return nil, fmt.Errorf("paillier: encoding private key: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, rebuilding all
// precomputed values from p and q.
func (sk *PrivateKey) UnmarshalBinary(data []byte) error {
	var w wirePrivateKey
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("paillier: decoding private key: %w", err)
	}
	if w.P == nil || w.Q == nil || w.P.Sign() <= 0 || w.Q.Sign() <= 0 || w.P.Cmp(w.Q) == 0 ||
		w.P.Bit(0) == 0 || w.Q.Bit(0) == 0 { // 2 is prime, and no factor of an odd N
		return ErrMalformedGobRemote
	}
	if !w.P.ProbablyPrime(20) || !w.Q.ProbablyPrime(20) {
		return fmt.Errorf("%w: factors are not prime", ErrMalformedGobRemote)
	}
	// GenerateKey's invariant, which decryption (N invertible mod λ) and
	// the nonce kernel (hN mod p² of order dividing p−1) both need; a
	// pair like p = 2q+1 is prime and distinct yet breaks it.
	if !coprimeToTotient(w.P, w.Q) {
		return fmt.Errorf("%w: gcd(pq, (p-1)(q-1)) is not 1", ErrMalformedGobRemote)
	}
	key, err := newPrivateKey(w.P, w.Q)
	if err != nil {
		return err
	}
	*sk = *key
	return nil
}
