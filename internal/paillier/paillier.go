// Package paillier implements the Paillier public-key cryptosystem
// (Paillier, EUROCRYPT 1999), the additively homomorphic encryption
// substrate the SkNN protocols are built on.
//
// The implementation uses the standard g = N+1 simplification, so
// encryption needs one modular exponentiation (r^N mod N²) and decryption
// uses the Chinese Remainder Theorem for a ~4x speedup. Ciphertexts are
// values in Z*_{N²}; plaintexts live in Z_N.
//
// Homomorphic properties used throughout the repository:
//
//	Add:       E(a) * E(b)      mod N² = E(a+b mod N)
//	ScalarMul: E(a)^k           mod N² = E(a*k mod N)
//	Sub:       E(a) * E(b)^(N-1) mod N² = E(a-b mod N)
//
// All operations on PublicKey and PrivateKey are safe for concurrent use;
// the key material is never mutated after generation.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"
)

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// Common errors returned by this package.
var (
	ErrKeyTooSmall       = errors.New("paillier: key size must be at least 64 bits")
	ErrMessageOutOfRange = errors.New("paillier: message out of range")
	ErrInvalidCiphertext = errors.New("paillier: invalid ciphertext")
	ErrNilCiphertext     = errors.New("paillier: nil ciphertext")
	ErrRandomnessExhaust = errors.New("paillier: could not sample suitable randomness")
	ErrMalformedKey      = errors.New("paillier: malformed private key factors")
	ErrInvalidModulus    = errors.New("paillier: modulus must be odd and between 64 and 8192 bits")
)

// PublicKey holds the public parameters (N, g) with g fixed to N+1.
type PublicKey struct {
	// N is the RSA-style modulus p*q.
	N *big.Int
	// NSquared caches N² since every ciphertext operation reduces mod N².
	NSquared *big.Int

	// fb is the nonce kernel every encryption under this key draws from
	// (see fixedbase.go), and n2 is N² prepared for limb Montgomery
	// products (mont.go), which MultiScalarMul runs on. Both are built by
	// the constructor and immutable — which is why a key comes from
	// NewPublicKey, GenerateKey or NewPrivateKey, never from a
	// struct literal.
	fb *pkFixedBase
	n2 *montMod
}

// maxModulusBits bounds what NewPublicKey will build a comb for: the
// construction costs one exponentiation mod N², and N may have come off
// a wire.
const maxModulusBits = 8192

// NewPublicKey builds the public key for modulus n, nonce kernel
// included. It is the one place a modulus from outside — a key file, a
// snapshot header, a gateway welcome, a shard hello — is validated: n
// must be odd (Montgomery arithmetic needs it, and every p·q is) and of
// 64 to 8192 bits, else ErrInvalidModulus.
func NewPublicKey(n *big.Int) (*PublicKey, error) {
	if n == nil || n.Sign() <= 0 || n.Bit(0) == 0 || n.BitLen() < 64 || n.BitLen() > maxModulusBits {
		return nil, ErrInvalidModulus
	}
	nSquared := new(big.Int).Mul(n, n)
	pk := &PublicKey{N: n, NSquared: nSquared, n2: newMontMod(nSquared)}
	hN, err := pk.fixedBaseGenerator()
	if err != nil {
		return nil, err
	}
	pk.fb = &pkFixedBase{pub: newComb(hN, pk.n2, n.BitLen())}
	return pk, nil
}

// PrivateKey holds the factorization of N and the precomputed CRT values
// used for fast decryption. It embeds the corresponding PublicKey.
type PrivateKey struct {
	PublicKey

	p, q     *big.Int // prime factors of N
	pSquared *big.Int // p²
	qSquared *big.Int // q²
	pMinus1  *big.Int // p-1
	qMinus1  *big.Int // q-1
	hp       *big.Int // ( L_p(g^{p-1} mod p²) )⁻¹ mod p
	hq       *big.Int // ( L_q(g^{q-1} mod q²) )⁻¹ mod q
	qInvP    *big.Int // q⁻¹ mod p, for CRT recombination
}

// Bits reports the bit length of the modulus N.
func (pk *PublicKey) Bits() int { return pk.N.BitLen() }

// Equal reports whether two public keys share the same modulus.
func (pk *PublicKey) Equal(other *PublicKey) bool {
	return other != nil && pk.N.Cmp(other.N) == 0
}

// GenerateKey creates a Paillier key pair whose modulus N has exactly
// `bits` bits. Randomness is read from random (use crypto/rand.Reader in
// production; tests may pass a deterministic reader).
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < 64 {
		return nil, ErrKeyTooSmall
	}
	for {
		p, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating p: %w", err)
		}
		q, err := rand.Prime(random, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		// gcd(N, (p-1)(q-1)) must be 1; with p, q of equal size and p≠q
		// this always holds, but verify to be safe.
		if !coprimeToTotient(p, q) {
			continue
		}
		keygenCalls.Add(1)
		return newPrivateKey(p, q)
	}
}

// coprimeToTotient reports whether gcd(pq, (p−1)(q−1)) = 1.
func coprimeToTotient(p, q *big.Int) bool {
	n := new(big.Int).Mul(p, q)
	tot := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
	return tot.GCD(nil, nil, n, tot).Cmp(one) == 0
}

// newPrivateKey assembles a private key (and its embedded public key) from
// the prime factors, precomputing everything decryption needs, the two
// CRT combs every encryption under it draws from, and the same N²
// Montgomery context a public-only key has: MultiScalarMul never uses
// the factorisation.
func newPrivateKey(p, q *big.Int) (*PrivateKey, error) {
	n := new(big.Int).Mul(p, q)
	nSquared := new(big.Int).Mul(n, n)
	priv := &PrivateKey{
		PublicKey: PublicKey{N: n, NSquared: nSquared, n2: newMontMod(nSquared)},
		p:         new(big.Int).Set(p),
		q:         new(big.Int).Set(q),
		pSquared:  new(big.Int).Mul(p, p),
		qSquared:  new(big.Int).Mul(q, q),
		pMinus1:   new(big.Int).Sub(p, one),
		qMinus1:   new(big.Int).Sub(q, one),
	}
	g := new(big.Int).Add(n, one) // g = N+1

	// hp = ( L_p(g^{p-1} mod p²) )⁻¹ mod p, and symmetrically hq.
	gp := new(big.Int).Exp(g, priv.pMinus1, priv.pSquared)
	priv.hp = new(big.Int).ModInverse(lFunc(gp, p), p)
	gq := new(big.Int).Exp(g, priv.qMinus1, priv.qSquared)
	priv.hq = new(big.Int).ModInverse(lFunc(gq, q), q)
	priv.qInvP = new(big.Int).ModInverse(q, p)

	hN, err := priv.fixedBaseGenerator()
	if err != nil {
		return nil, err
	}
	priv.fb = &pkFixedBase{crt: &crtCombs{
		p:       newComb(hN, newMontMod(priv.pSquared), priv.pMinus1.BitLen()),
		q:       newComb(hN, newMontMod(priv.qSquared), priv.qMinus1.BitLen()),
		pMinus1: priv.pMinus1,
		qMinus1: priv.qMinus1,
		q2InvP2: new(big.Int).ModInverse(priv.qSquared, priv.pSquared),
	}}
	return priv, nil
}

// lFunc is Paillier's L function: L(x) = (x-1)/d for x ≡ 1 (mod d).
func lFunc(x, d *big.Int) *big.Int {
	r := new(big.Int).Sub(x, one)
	return r.Div(r, d)
}

// RandomZN returns a uniform element of Z_N.
func (pk *PublicKey) RandomZN(random io.Reader) (*big.Int, error) {
	r, err := rand.Int(random, pk.N)
	if err != nil {
		return nil, fmt.Errorf("paillier: sampling Z_N: %w", err)
	}
	return r, nil
}

// RandomNonzeroZN returns a uniform element of Z_N \ {0}. Protocols use
// nonzero randomness where a zero factor would destroy a masking term
// (e.g. the multiplicative blinds in SMIN and SkNNm).
func (pk *PublicKey) RandomNonzeroZN(random io.Reader) (*big.Int, error) {
	for i := 0; i < 128; i++ {
		r, err := pk.RandomZN(random)
		if err != nil {
			return nil, err
		}
		if r.Sign() != 0 {
			return r, nil
		}
	}
	return nil, ErrRandomnessExhaust
}

// randomUnit samples r in Z*_N (invertible mod N). A non-invertible sample
// would reveal a factor of N; probability is about 2^-(bits/2), so the
// retry loop effectively never spins.
func (pk *PublicKey) randomUnit(random io.Reader) (*big.Int, error) {
	for i := 0; i < 128; i++ {
		r, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, fmt.Errorf("paillier: sampling unit: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
	return nil, ErrRandomnessExhaust
}

// reduceMessage maps an arbitrary integer (possibly negative) into Z_N.
// Protocols constantly encrypt values like "N - x" to represent -x; this
// helper centralizes that convention.
func (pk *PublicKey) reduceMessage(m *big.Int) *big.Int {
	r := new(big.Int).Mod(m, pk.N)
	return r
}

// Encrypt encrypts m (reduced into Z_N, so negative values encode N-|m|)
// under pk with fresh randomness: c = (1 + m*N) * ρ mod N², the nonce
// power ρ = hN^a drawn from the key's comb (fixedbase.go).
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	nc, err := pk.drawNonce(random)
	if err != nil {
		return nil, err
	}
	return pk.EncryptWith(nc, m), nil
}

// EncryptWith is the message-dependent half of an encryption: it
// assembles (1+mN)·ρ mod N² around nc's nonce power ρ (raising it first
// if nobody has), a few multiplications next to the exponentiation Raise
// pays. A nonce encrypts one message; nc must come from this key's
// DrawNonces.
func (pk *PublicKey) EncryptWith(nc *Nonce, m *big.Int) *Ciphertext {
	return pk.encryptWithNoncePower(m, nc.power())
}

// EncryptMany encrypts every message of ms under pk, drawing the nonces
// from random serially in index order and raising them across the idle
// cores (ForEach): the owner's table encryption. The ciphertexts are the
// ones a loop of Encrypt calls over the same reader produces.
func (pk *PublicKey) EncryptMany(random io.Reader, ms []*big.Int) ([]*Ciphertext, error) {
	nonces, err := pk.DrawNonces(random, len(ms))
	if err != nil {
		return nil, err
	}
	return pk.encryptEach(nonces, ms), nil
}

func (pk *PublicKey) encryptEach(nonces []*Nonce, ms []*big.Int) []*Ciphertext {
	out := make([]*Ciphertext, len(ms))
	_ = ForEach(len(ms), func(i int) error { // the tasks cannot fail
		out[i] = pk.EncryptWith(nonces[i], ms[i])
		return nil
	})
	return out
}

// EncryptInt64 is a convenience wrapper around Encrypt for small values.
func (pk *PublicKey) EncryptInt64(random io.Reader, m int64) (*Ciphertext, error) {
	return pk.Encrypt(random, big.NewInt(m))
}

// EncryptUint64 is a convenience wrapper around Encrypt for small values.
func (pk *PublicKey) EncryptUint64(random io.Reader, m uint64) (*Ciphertext, error) {
	return pk.Encrypt(random, new(big.Int).SetUint64(m))
}

// encryptCalls counts every fresh encryption performed by this process.
// It backs EncryptCalls, the metering hook persistence tests use to
// prove that loading a snapshot never re-encrypts.
var encryptCalls atomic.Uint64

// EncryptCalls reports how many Paillier encryptions (any Encrypt*
// entry point) this process has performed. Monotonic; compare deltas
// around an operation to assert its encryption cost.
func EncryptCalls() uint64 { return encryptCalls.Load() }

// keygenCalls counts every completed GenerateKey, mirroring
// encryptCalls: the metering hook the shared test keyring uses to prove
// keys are cached rather than regenerated.
var keygenCalls atomic.Uint64

// KeygenCalls reports how many Paillier key generations this process has
// performed. Monotonic; compare deltas to assert caching behavior.
func KeygenCalls() uint64 { return keygenCalls.Load() }

// fullExpRaises counts the nonce powers computed by a full-width
// big.Int.Exp: each key's generator and encryptWithNonce's test vectors.
// Tests read it (export_test.go) to prove no encryption path adds to it.
var fullExpRaises atomic.Uint64

// encryptWithNonce computes (1+mN) * r^N mod N². Exposed only to tests
// (deterministic vectors) via export_test.go.
func (pk *PublicKey) encryptWithNonce(m, r *big.Int) *Ciphertext {
	fullExpRaises.Add(1)
	return pk.encryptWithNoncePower(m, new(big.Int).Exp(r, pk.N, pk.NSquared))
}

// encryptWithNoncePower assembles (1+mN) · rn mod N² from a ready nonce
// power rn = r^N mod N².
func (pk *PublicKey) encryptWithNoncePower(m, rn *big.Int) *Ciphertext {
	encryptCalls.Add(1)
	mm := pk.reduceMessage(m)
	// g^m = (N+1)^m = 1 + m*N (mod N²), avoiding one exponentiation.
	gm := new(big.Int).Mul(mm, pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.NSquared)
	c := gm.Mul(gm, rn)
	c.Mod(c, pk.NSquared)
	return &Ciphertext{c: c}
}

// Decrypt recovers the plaintext in [0, N) using CRT.
func (sk *PrivateKey) Decrypt(ct *Ciphertext) (*big.Int, error) {
	if ct == nil || ct.c == nil {
		return nil, ErrNilCiphertext
	}
	if ct.c.Sign() <= 0 || ct.c.Cmp(sk.NSquared) >= 0 {
		return nil, ErrInvalidCiphertext
	}
	// mp = L_p(c^{p-1} mod p²) * hp mod p
	cp := new(big.Int).Exp(ct.c, sk.pMinus1, sk.pSquared)
	mp := lFunc(cp, sk.p)
	mp.Mul(mp, sk.hp)
	mp.Mod(mp, sk.p)
	// mq = L_q(c^{q-1} mod q²) * hq mod q
	cq := new(big.Int).Exp(ct.c, sk.qMinus1, sk.qSquared)
	mq := lFunc(cq, sk.q)
	mq.Mul(mq, sk.hq)
	mq.Mod(mq, sk.q)
	// CRT: m = mq + q * ((mp - mq) * qInvP mod p)
	m := new(big.Int).Sub(mp, mq)
	m.Mul(m, sk.qInvP)
	m.Mod(m, sk.p)
	m.Mul(m, sk.q)
	m.Add(m, mq)
	return m, nil
}

// DecryptSigned decrypts and maps the result from [0,N) to the symmetric
// range (-N/2, N/2], which recovers negative protocol values encoded as
// N - |x|.
func (sk *PrivateKey) DecryptSigned(ct *Ciphertext) (*big.Int, error) {
	m, err := sk.Decrypt(ct)
	if err != nil {
		return nil, err
	}
	half := new(big.Int).Rsh(sk.N, 1)
	if m.Cmp(half) > 0 {
		m.Sub(m, sk.N)
	}
	return m, nil
}

// decryptNoCRT is the slow textbook decryption; kept for the CRT ablation
// bench and as a cross-check in tests.
func (sk *PrivateKey) decryptNoCRT(ct *Ciphertext) (*big.Int, error) {
	if ct == nil || ct.c == nil {
		return nil, ErrNilCiphertext
	}
	lambda := new(big.Int).Mul(sk.pMinus1, sk.qMinus1)
	lambda.Div(lambda, new(big.Int).GCD(nil, nil, sk.pMinus1, sk.qMinus1))
	u := new(big.Int).Exp(ct.c, lambda, sk.NSquared)
	l := lFunc(u, sk.N)
	mu := new(big.Int).ModInverse(new(big.Int).Mod(lambda, sk.N), sk.N)
	l.Mul(l, mu)
	return l.Mod(l, sk.N), nil
}
