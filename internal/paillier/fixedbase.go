package paillier

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
)

// This file is the nonce kernel: the one modular exponentiation an
// encryption costs, r^N mod N², for every party and every way a key
// comes into being. The base r varies per encryption, so the classic
// trick is to fix it: a key samples one random unit h when it is
// constructed, precomputes hN = h^N mod N², and draws each randomizer as
// hN^a for a fresh exponent a. hN^a = h^(N·a) is a random element of the
// group of N-th residues — the set honest randomizers live in — so
// ciphertexts keep their semantic-security argument under the standard
// fixed-generator assumption (see docs/PROTOCOLS.md).
//
// With the base fixed, hN^a is a Lim–Lee comb (CRYPTO '94): cut the
// B-bit exponent into combTeeth blocks of s = ⌈B/combTeeth⌉ bits,
// tabulate the 2^combTeeth − 1 products of the block bases hN^(2^(i·s)),
// and read one bit of every block per step — s − 1 squarings and at most
// s products on the limb-level Montgomery kernel of mont.go, against the
// ~1.5·B of square-and-multiply. A key built from the factorisation runs
// two combs, mod p² and mod q² (half the limbs, a quarter of the cost
// per product), on exponents below p−1 and q−1 — hN mod p² is an N-th
// residue, so its order divides p−1 — and recombines; a public-only key
// runs one comb mod N².

// combTeeth is the number of exponent blocks, one constant for every
// key: 15 table entries per comb, ≈ 2 KiB per key at a 512-bit N.
const combTeeth = 4

// comb evaluates base^e mod m for one fixed base and every exponent
// below 2^bits. Immutable after newComb; safe for concurrent use.
type comb struct {
	mod  *montMod
	bits int      // exponents are below 2^bits
	span int      // ⌈bits/combTeeth⌉: the block length, and the step count
	tab  []uint64 // flat; entry d = ∏ base^(2^(i·span)) over the set bits i of d, Montgomery form
}

func newComb(base, mod *big.Int, bits int) *comb {
	mm := newMontMod(mod)
	n := len(mm.m)
	c := &comb{mod: mm, bits: bits, span: (bits + combTeeth - 1) / combTeeth, tab: make([]uint64, (1<<combTeeth-1)*n)}
	t := make([]uint64, n+1)
	tooth := mm.toMont(base)
	for i := 0; i < combTeeth; i++ {
		// Entries 2^i … 2^(i+1)−1: tooth i alone, then times each entry
		// below it.
		copy(c.entry(1<<i), tooth)
		for d := 1; d < 1<<i; d++ {
			mm.mul(c.entry(1<<i|d), c.entry(d), tooth, t)
		}
		for s := 0; s < c.span && i+1 < combTeeth; s++ {
			mm.mul(tooth, tooth, tooth, t)
		}
	}
	return c
}

// entry returns table entry d, 1 ≤ d < 2^combTeeth.
func (c *comb) entry(d int) []uint64 {
	n := len(c.mod.m)
	return c.tab[(d-1)*n : d*n]
}

// exp returns base^e mod m. An exponent outside [0, 2^bits) is a bug in
// the caller: every draw of this package stays inside its comb's range.
func (c *comb) exp(e *big.Int) *big.Int {
	if e.Sign() < 0 || e.BitLen() > c.bits {
		panic("paillier: comb exponent out of range")
	}
	n := len(c.mod.m)
	ew := toLimbs(e, (combTeeth*c.span+63)/64)
	buf := make([]uint64, 3*n+1)
	acc, unit, t := buf[:n], buf[n:2*n], buf[2*n:]
	started := false
	for k := c.span - 1; k >= 0; k-- {
		if started {
			c.mod.mul(acc, acc, acc, t)
		}
		d := 0
		for i := combTeeth - 1; i >= 0; i-- {
			pos := i*c.span + k
			d = d<<1 | int(ew[pos>>6]>>(pos&63)&1)
		}
		switch {
		case d == 0:
		case started:
			c.mod.mul(acc, acc, c.entry(d), t)
		default:
			copy(acc, c.entry(d))
			started = true
		}
	}
	if !started { // e == 0
		return big.NewInt(1)
	}
	unit[0] = 1 // a product with the plain 1 leaves Montgomery form
	c.mod.mul(acc, acc, unit, t)
	return fromLimbs(acc)
}

// pkFixedBase is a key's nonce kernel, built with the key by the only
// constructors a key comes from (NewPublicKey, newPrivateKey) and
// immutable from then on. Unexported, so serialized keys never carry it:
// each process draws its own h.
type pkFixedBase struct {
	pub *comb     // hN mod N²: a public-only key
	crt *crtCombs // a key built from the factorisation — also what its embedded PublicKey, and copies of it, encrypt through
}

// crtCombs is the private-key half: combs for hN mod p² and mod q²,
// sized for exponents below p−1 and q−1, so each randomizer is two short
// walks on half-width limbs recombined mod N².
type crtCombs struct {
	p, q             *comb
	pMinus1, qMinus1 *big.Int
	q2InvP2          *big.Int // (q²)⁻¹ mod p²
}

// pow returns the x mod N² with x ≡ hN^ap (mod p²) and x ≡ hN^aq
// (mod q²): x = xq + q²·((xp − xq)·(q²)⁻¹ mod p²).
func (c *crtCombs) pow(ap, aq *big.Int) *big.Int {
	xp, xq := c.p.exp(ap), c.q.exp(aq)
	t := xp.Sub(xp, xq)
	t.Mul(t, c.q2InvP2)
	t.Mod(t, c.p.mod.big)
	t.Mul(t, c.q.mod.big)
	return t.Add(t, xq)
}

// pow evaluates hN^a for 0 ≤ a < N. With the factorisation a reduces mod
// p−1 and mod q−1, which changes nothing about the result (the orders of
// hN mod p² and mod q² divide them) — bit for bit hN^a mod N².
func (fb *pkFixedBase) pow(a *big.Int) *big.Int {
	if c := fb.crt; c != nil {
		return c.pow(new(big.Int).Mod(a, c.pMinus1), new(big.Int).Mod(a, c.qMinus1))
	}
	return fb.pub.exp(a)
}

// fixedBaseGenerator samples h from crypto/rand — never from a caller's
// reader, so seeded streams do not depend on how a key was obtained —
// and returns hN = h^N mod N², the one full-width exponentiation a key
// ever pays for its nonces.
func (pk *PublicKey) fixedBaseGenerator() (*big.Int, error) {
	h, err := pk.randomUnit(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("paillier: fixed-base generator: %w", err)
	}
	fullExpRaises.Add(1)
	return new(big.Int).Exp(h, pk.N, pk.NSquared), nil
}

// EnableFixedBase does nothing: every key is born with its nonce kernel.
// Kept only because bench/micro.go, which a product change may not edit,
// still calls it (ROADMAP item 1's shim list).
func (sk *PrivateKey) EnableFixedBase(io.Reader) error { return nil }

// Nonce is the message-independent half of one encryption or
// re-randomisation: the randomness, already drawn from the caller's
// reader, and — once Raise has run — its power ρ = hN^a mod N², an
// element of the group of N-th residues. Splitting the two lets a party
// draw serially, so the reader is never shared, and pay the
// exponentiation (all but a few multiplications of an encryption)
// wherever a core is free: C2 raises a reply's nonces in the same
// ForEach task list as the request's decryptions (RaiseAlongside). A
// Nonce is used once, by one goroutine at a time.
type Nonce struct {
	raise func() *big.Int // the pending exponentiation; reads no randomness
	rho   *big.Int        // its result, once raised
}

// Raise computes the nonce power. Calling it again is a no-op.
func (nc *Nonce) Raise() {
	if nc.rho == nil {
		nc.rho, nc.raise = nc.raise(), nil
	}
}

// power returns the raised nonce power, raising it now if nobody has.
func (nc *Nonce) power() *big.Int {
	nc.Raise()
	return nc.rho
}

// RaiseAlongside runs fn(0), …, fn(n−1) and raises every nonce as one
// ForEach task list: the shape of a C2 handler, whose n request
// decryptions and len(nonces) reply nonce powers are independent of one
// another. Errors and panics as ForEach.
func RaiseAlongside(nonces []*Nonce, n int, fn func(i int) error) error {
	return ForEach(n+len(nonces), func(t int) error {
		if t < n {
			return fn(t)
		}
		nonces[t-n].Raise()
		return nil
	})
}

// DrawNonces draws the randomness of count encryptions from random,
// serially, in the order count Encrypt calls would: a fresh exponent a
// each, ρ = hN^a. If random is nil, crypto/rand is used.
func (pk *PublicKey) DrawNonces(random io.Reader, count int) ([]*Nonce, error) {
	return drawNonces(count, random, pk.drawNonce)
}

// DrawNonces on the private key draws for the private-key randomizer
// kernel (see drawNonce below), like (*PrivateKey).Encrypt.
func (sk *PrivateKey) DrawNonces(random io.Reader, count int) ([]*Nonce, error) {
	return drawNonces(count, random, sk.drawNonce)
}

func drawNonces(count int, random io.Reader, draw func(io.Reader) (*Nonce, error)) ([]*Nonce, error) {
	out := make([]*Nonce, count)
	for i := range out {
		nc, err := draw(random)
		if err != nil {
			return nil, err
		}
		out[i] = nc
	}
	return out, nil
}

// drawNonce draws one public-key nonce: a fresh exponent a ← [0, N),
// ρ = hN^a.
func (pk *PublicKey) drawNonce(random io.Reader) (*Nonce, error) {
	if random == nil {
		random = rand.Reader
	}
	a, err := rand.Int(random, pk.N)
	if err != nil {
		return nil, fmt.Errorf("paillier: fixed-base exponent: %w", err)
	}
	fb := pk.fb
	return &Nonce{raise: func() *big.Int { return fb.pow(a) }}, nil
}

// drawNonce on the private key is the randomizer kernel every C2 reply
// encryption uses: the same two CRT combs, with the half-length
// exponents drawn independently, a_p ← [0, p−1) and a_q ← [0, q−1),
// instead of reduced from one a < N. ρ is then uniform over the product
// of ⟨hN mod p²⟩ and ⟨hN mod q²⟩ — a subgroup of the N-th residues that
// contains ⟨hN⟩ — so the fixed-generator assumption the public routine
// rests on covers it.
func (sk *PrivateKey) drawNonce(random io.Reader) (*Nonce, error) {
	if random == nil {
		random = rand.Reader
	}
	c := sk.fb.crt
	ap, err := rand.Int(random, c.pMinus1)
	if err != nil {
		return nil, fmt.Errorf("paillier: private nonce: %w", err)
	}
	aq, err := rand.Int(random, c.qMinus1)
	if err != nil {
		return nil, fmt.Errorf("paillier: private nonce: %w", err)
	}
	return &Nonce{raise: func() *big.Int { return c.pow(ap, aq) }}, nil
}
