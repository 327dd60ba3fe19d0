package paillier

import (
	"fmt"
	"io"
	"math/big"
)

// Ciphertext is a Paillier ciphertext: an element of Z*_{N²}. The zero
// value is not usable; ciphertexts are produced by Encrypt, the
// homomorphic operations on PublicKey, or FromRaw.
//
// Ciphertexts are immutable: every operation allocates a fresh value, so
// sharing a *Ciphertext across goroutines is safe.
type Ciphertext struct {
	c *big.Int
}

// Raw returns a copy of the underlying group element, suitable for
// serialization into protocol frames.
func (ct *Ciphertext) Raw() *big.Int {
	if ct == nil || ct.c == nil {
		return nil
	}
	return new(big.Int).Set(ct.c)
}

// String renders an abbreviated hex form, handy in traces.
func (ct *Ciphertext) String() string {
	if ct == nil || ct.c == nil {
		return "Ciphertext(nil)"
	}
	s := ct.c.Text(16)
	if len(s) > 16 {
		s = s[:16] + "…"
	}
	return "Ciphertext(0x" + s + ")"
}

// Equal reports whether two ciphertexts are the same group element.
// Note: semantically equal plaintexts almost never compare equal because
// encryptions are randomized; this is a byte-level identity check used by
// tests (e.g. verifying re-randomization actually changed the element).
func (ct *Ciphertext) Equal(other *Ciphertext) bool {
	if ct == nil || other == nil || ct.c == nil || other.c == nil {
		return false
	}
	return ct.c.Cmp(other.c) == 0
}

// FromRaw validates v as a ciphertext under pk and wraps it. Frames
// arriving from the network pass through here so a malformed peer cannot
// inject out-of-group values.
func (pk *PublicKey) FromRaw(v *big.Int) (*Ciphertext, error) {
	if v == nil {
		return nil, ErrNilCiphertext
	}
	if v.Sign() <= 0 || v.Cmp(pk.NSquared) >= 0 {
		return nil, fmt.Errorf("%w: value outside (0, N²)", ErrInvalidCiphertext)
	}
	return &Ciphertext{c: new(big.Int).Set(v)}, nil
}

// Add returns E(a+b mod N) = E(a)*E(b) mod N².
func (pk *PublicKey) Add(a, b *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(a.c, b.c)
	c.Mod(c, pk.NSquared)
	return &Ciphertext{c: c}
}

// AddPlain returns E(a+m mod N) without a second encryption:
// E(a) * (1+mN) mod N².
func (pk *PublicKey) AddPlain(a *Ciphertext, m *big.Int) *Ciphertext {
	gm := new(big.Int).Mul(pk.reduceMessage(m), pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.NSquared)
	gm.Mul(gm, a.c)
	gm.Mod(gm, pk.NSquared)
	return &Ciphertext{c: gm}
}

// ScalarMul returns E(a*k mod N) = E(a)^k mod N². Negative k of small
// magnitude is routed through the group inverse — Inv(a)^|k| — so the
// ubiquitous "multiply by −r" unblinding steps cost a modular inversion
// plus a short exponentiation instead of a full-width one. The result is
// a different group element than E(a)^{N-|k|} but encrypts the same
// plaintext, which is all any protocol step relies on.
func (pk *PublicKey) ScalarMul(a *Ciphertext, k *big.Int) *Ciphertext {
	if k.Sign() < 0 {
		abs := new(big.Int).Neg(k)
		abs.Mod(abs, pk.N)
		if abs.BitLen()+64 < pk.N.BitLen() {
			c := new(big.Int).Exp(pk.Inv(a).c, abs, pk.NSquared)
			return &Ciphertext{c: c}
		}
	}
	e := pk.reduceMessage(k)
	c := new(big.Int).Exp(a.c, e, pk.NSquared)
	return &Ciphertext{c: c}
}

// ScalarMulInt64 is ScalarMul with a small exponent.
func (pk *PublicKey) ScalarMulInt64(a *Ciphertext, k int64) *Ciphertext {
	return pk.ScalarMul(a, big.NewInt(k))
}

// Inv returns the group inverse of a, which encrypts −a mod N: a
// modular inversion (~1% of a full-width exponentiation) instead of the
// textbook E(a)^{N-1}. Non-invertible elements — impossible for honest
// ciphertexts, reachable only through FromRaw on adversarial values —
// fall back to the exponentiation, which is total.
func (pk *PublicKey) Inv(a *Ciphertext) *Ciphertext {
	if inv := new(big.Int).ModInverse(a.c, pk.NSquared); inv != nil {
		return &Ciphertext{c: inv}
	}
	e := new(big.Int).Sub(pk.N, one)
	c := new(big.Int).Exp(a.c, e, pk.NSquared)
	return &Ciphertext{c: c}
}

// InvMany inverts a batch of ciphertexts with Montgomery's trick: one
// modular inversion plus three multiplications per element, instead of
// one inversion each. Order is preserved. If the combined product is
// non-invertible (adversarial input), it falls back to per-element Inv.
func (pk *PublicKey) InvMany(cts []*Ciphertext) []*Ciphertext {
	n := len(cts)
	out := make([]*Ciphertext, n)
	if n == 0 {
		return out
	}
	// prefix[i] = c₀·…·c_i mod N².
	prefix := make([]*big.Int, n)
	acc := new(big.Int).Set(cts[0].c)
	prefix[0] = new(big.Int).Set(acc)
	for i := 1; i < n; i++ {
		acc.Mul(acc, cts[i].c)
		acc.Mod(acc, pk.NSquared)
		prefix[i] = new(big.Int).Set(acc)
	}
	inv := new(big.Int).ModInverse(acc, pk.NSquared)
	if inv == nil {
		for i, ct := range cts {
			out[i] = pk.Inv(ct)
		}
		return out
	}
	for i := n - 1; i >= 1; i-- {
		// inv = (c₀·…·c_i)⁻¹; c_i⁻¹ = inv · prefix[i−1].
		ci := new(big.Int).Mul(inv, prefix[i-1])
		ci.Mod(ci, pk.NSquared)
		out[i] = &Ciphertext{c: ci}
		inv.Mul(inv, cts[i].c)
		inv.Mod(inv, pk.NSquared)
	}
	out[0] = &Ciphertext{c: inv}
	return out
}

// Neg returns E(-a mod N). Since the group inverse of a valid ciphertext
// is itself a valid encryption of the negated plaintext, this is Inv.
func (pk *PublicKey) Neg(a *Ciphertext) *Ciphertext {
	return pk.Inv(a)
}

// Sub returns E(a-b mod N) = E(a) * E(b)^{N-1} mod N².
func (pk *PublicKey) Sub(a, b *Ciphertext) *Ciphertext {
	return pk.Add(a, pk.Neg(b))
}

// Rerandomize multiplies in a fresh encryption of zero, producing a
// ciphertext of the same plaintext that is statistically unlinkable to a.
func (pk *PublicKey) Rerandomize(random io.Reader, a *Ciphertext) (*Ciphertext, error) {
	nc, err := pk.drawNonce(random)
	if err != nil {
		return nil, err
	}
	return pk.RerandomizeWith(nc, a), nil
}

// Rerandomize on the private key draws the encryption of zero from the
// private-key nonce kernel, like (*PrivateKey).Encrypt.
func (sk *PrivateKey) Rerandomize(random io.Reader, a *Ciphertext) (*Ciphertext, error) {
	nc, err := sk.drawNonce(random)
	if err != nil {
		return nil, err
	}
	return sk.RerandomizeWith(nc, a), nil
}

// RerandomizeWith multiplies nc's nonce power into a: Rerandomize's
// counterpart of EncryptWith. It consumes the nonce (its storage becomes
// the result's).
func (pk *PublicKey) RerandomizeWith(nc *Nonce, a *Ciphertext) *Ciphertext {
	rn := nc.power()
	nc.rho = nil // spent: rn becomes the ciphertext
	rn.Mul(rn, a.c)
	rn.Mod(rn, pk.NSquared)
	return &Ciphertext{c: rn}
}

// EncryptUint64Vector encrypts each component of v attribute-wise, the
// way the data owner encrypts a record and Bob encrypts a query.
func (pk *PublicKey) EncryptUint64Vector(random io.Reader, v []uint64) ([]*Ciphertext, error) {
	out := make([]*Ciphertext, len(v))
	for i, x := range v {
		ct, err := pk.Encrypt(random, new(big.Int).SetUint64(x))
		if err != nil {
			return nil, fmt.Errorf("paillier: encrypting component %d: %w", i, err)
		}
		out[i] = ct
	}
	return out, nil
}

// Product multiplies a slice of ciphertexts together, i.e. computes the
// encryption of the sum of their plaintexts (Π E(x_i) = E(Σ x_i)). It is
// the homomorphic accumulation step of SSED and of SkNNm's record
// extraction. Panics on an empty slice (callers always have ≥1 term).
func (pk *PublicKey) Product(cts []*Ciphertext) *Ciphertext {
	if len(cts) == 0 {
		panic("paillier: Product of empty ciphertext slice")
	}
	acc := new(big.Int).Set(cts[0].c)
	for _, ct := range cts[1:] {
		acc.Mul(acc, ct.c)
		acc.Mod(acc, pk.NSquared)
	}
	return &Ciphertext{c: acc}
}
