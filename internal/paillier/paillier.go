// Package paillier implements the Paillier public-key cryptosystem
// (Paillier, EUROCRYPT 1999), the additively homomorphic encryption
// substrate the SkNN protocols are built on.
//
// The implementation uses the standard g = N+1 simplification, so
// encryption needs one modular exponentiation (r^N mod N²) and decryption
// uses the Chinese Remainder Theorem for a ~4x speedup — or, for a
// plaintext known to sit well below the smaller prime factor, that
// factor's half of the CRT alone. Ciphertexts are values in Z*_{N²};
// plaintexts live in Z_N.
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
	// products (mont.go), which ScalarMul, MultiScalarMul and
	// PackCiphertexts exponentiate on. Both are built by
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

	p, q  crtHalf  // one half of the CRT per prime factor
	qInvP *big.Int // q⁻¹ mod p, for CRT recombination
	short *crtHalf // the half of the smaller factor: the one-prime path's
}

// crtHalf is one prime factor r's share of a decryption: m mod r =
// L_r(c^(r−1) mod r²)·h mod r. Decrypt recombines the two halves; a
// plaintext known to lie below the smaller factor needs only that half.
type crtHalf struct {
	prime  *big.Int // r
	minus1 *big.Int // r − 1
	h      *big.Int // ( L_r(g^(r−1) mod r²) )⁻¹ mod r
	square *montMod // r², prepared once: this half's exponentiation and the nonce comb mod r² share it
}

func newCRTHalf(r, g *big.Int) crtHalf {
	h := crtHalf{
		prime:  new(big.Int).Set(r),
		minus1: new(big.Int).Sub(r, one),
		square: newMontMod(new(big.Int).Mul(r, r)),
	}
	h.h = new(big.Int).ModInverse(lFunc(new(big.Int).Exp(g, h.minus1, h.square.big), r), r)
	return h
}

// decrypt returns c's plaintext mod r: one exponentiation mod r².
func (h *crtHalf) decrypt(c *big.Int) *big.Int {
	m := lFunc(h.square.exp(c, h.minus1), h.prime)
	m.Mul(m, h.h)
	return m.Mod(m, h.prime)
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
// CRT combs every encryption under it draws from — on the p² and q²
// Montgomery contexts its decryption halves prepared, one per modulus —
// and the same N² context a public-only key has: the exponentiations on
// ciphertexts never use the factorisation.
func newPrivateKey(p, q *big.Int) (*PrivateKey, error) {
	n := new(big.Int).Mul(p, q)
	nSquared := new(big.Int).Mul(n, n)
	g := new(big.Int).Add(n, one) // g = N+1
	priv := &PrivateKey{
		PublicKey: PublicKey{N: n, NSquared: nSquared, n2: newMontMod(nSquared)},
		p:         newCRTHalf(p, g),
		q:         newCRTHalf(q, g),
		qInvP:     new(big.Int).ModInverse(q, p),
	}
	priv.short = &priv.p
	if q.Cmp(p) < 0 {
		priv.short = &priv.q
	}

	hN, err := priv.fixedBaseGenerator()
	if err != nil {
		return nil, err
	}
	priv.fb = &pkFixedBase{crt: &crtCombs{
		p:       newComb(hN, priv.p.square, priv.p.minus1.BitLen()),
		q:       newComb(hN, priv.q.square, priv.q.minus1.BitLen()),
		pMinus1: priv.p.minus1,
		qMinus1: priv.q.minus1,
		q2InvP2: new(big.Int).ModInverse(priv.q.square.big, priv.p.square.big),
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
	return sk.DecryptBelow(ct, sk.N.BitLen())
}

// onePrimeSlack is how far below the smaller factor s a plaintext bound
// must sit for DecryptBelow to skip the other CRT half: σ = 64 bits plus
// one. An honest plaintext below 2^(bitlen(s)−65) is below s, so m mod s
// is m; a forged one reduces mod s to something below the bound with
// probability at most 2^(bitlen(s)−65) / 2^(bitlen(s)−1) = 2^−64, so a
// caller's range check still refuses it.
const onePrimeSlack = 65

// OnePrimeBits is the widest declared plaintext a keyBits-bit key of
// GenerateKey's balanced factors, the smaller one keyBits/2 bits long,
// decrypts under that factor alone: a packed group of count slots takes
// the one-prime path where count·Width ≤ OnePrimeBits(keyBits).
func OnePrimeBits(keyBits int) int { return keyBits/2 - onePrimeSlack }

// DecryptBelow decrypts a ciphertext whose honest plaintext has at most
// bits bits. Where bits ≤ bitlen(s) − onePrimeSlack, s the smaller
// factor, it returns m mod s from that factor's half alone — m itself
// for an honest ciphertext; otherwise it recombines both halves into m
// mod N. The caller range-checks the result against its bound. C2's
// one caller is smc.Responder.Decrypt, which passes a short packed
// group's count·Width and K elsewhere.
func (sk *PrivateKey) DecryptBelow(ct *Ciphertext, bits int) (*big.Int, error) {
	if ct == nil || ct.c == nil {
		return nil, ErrNilCiphertext
	}
	if ct.c.Sign() <= 0 || ct.c.Cmp(sk.NSquared) >= 0 {
		return nil, ErrInvalidCiphertext
	}
	if bits <= sk.short.prime.BitLen()-onePrimeSlack {
		onePrimeDecrypts.Add(1)
		return sk.short.decrypt(ct.c), nil
	}
	crtDecrypts.Add(1)
	mp, mq := sk.p.decrypt(ct.c), sk.q.decrypt(ct.c)
	// CRT: m = mq + q * ((mp - mq) * qInvP mod p)
	m := mp.Sub(mp, mq)
	m.Mul(m, sk.qInvP)
	m.Mod(m, sk.p.prime)
	m.Mul(m, sk.q.prime)
	return m.Add(m, mq), nil
}

// onePrimeDecrypts and crtDecrypts count decryptions by the path they
// took, process-wide, for DecryptCalls.
var onePrimeDecrypts, crtDecrypts atomic.Uint64

// DecryptCalls reports how many decryptions this process has performed
// by path: onePrime under the smaller factor alone (a short packed group),
// crt through both halves (every Decrypt and the wider groups).
// Monotonic; compare deltas around an operation.
func DecryptCalls() (onePrime, crt uint64) {
	return onePrimeDecrypts.Load(), crtDecrypts.Load()
}

// inverseCalls counts modular inversions mod N², process-wide, for
// InverseCalls.
var inverseCalls atomic.Uint64

// InverseCalls reports how many group inversions mod N² this process has
// started: one per Inv (Neg, Sub and a short negative ScalarMul go
// through it) and one per non-empty InvMany batch, whatever its length:
// each is one ModInverse (docs/KERNELS.md prices both). Monotonic;
// compare deltas around an operation.
func InverseCalls() uint64 { return inverseCalls.Load() }

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
	lambda := new(big.Int).Mul(sk.p.minus1, sk.q.minus1)
	lambda.Div(lambda, new(big.Int).GCD(nil, nil, sk.p.minus1, sk.q.minus1))
	u := new(big.Int).Exp(ct.c, lambda, sk.NSquared)
	l := lFunc(u, sk.N)
	mu := new(big.Int).ModInverse(new(big.Int).Mod(lambda, sk.N), sk.N)
	l.Mul(l, mu)
	return l.Mod(l, sk.N), nil
}
