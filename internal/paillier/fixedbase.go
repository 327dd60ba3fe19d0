package paillier

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
)

// This file implements fixed-base windowed exponentiation for the one
// modular exponentiation left on the encryption hot path: the nonce
// power r^N mod N². The base r varies per encryption, so the classic
// trick is to fix it: sample one random unit h at setup, precompute
// hN = h^N mod N², and draw each randomizer as hN^a for fresh a ∈ [0,N).
// hN^a = h^(N·a) is a random element of the group of N-th residues —
// the same set honest randomizers live in — so ciphertexts keep their
// semantic-security argument under the standard fixed-generator
// assumption (see docs/PROTOCOLS.md).
//
// With the base fixed, a window table tab[i][d] = base^(d·2^(w·i))
// turns the exponentiation into one multiplication per non-zero window
// of the exponent: ~⌈bits/w⌉ multiplications instead of ~1.5·bits for
// square-and-multiply, a ~9× cut. When the table is built from the
// private key, the evaluation runs CRT-split mod p² and q² (each
// multiplication on half-width operands costs a quarter) and on the
// exponent reduced mod p−1 and mod q−1 — hN mod p² is an N-th residue,
// so its order divides p−1 — which halves the window count again: at a
// 512-bit N, 2·43 half-width multiplications instead of 86 full-width
// ones.
//
// A private key needs no table at all to beat the public r^N: see
// (*PrivateKey).drawNonce at the bottom of this file, the kernel every
// C2 reply encryption rides.

// fbWindow is the window width in bits. 6 balances table size against
// the ~⌈bits/6⌉ multiplications per evaluation: ⌈bits/6⌉·63 entries of
// 2·bits each for the public table (≈ 0.7 MB at a 512-bit N, 2.7 MB at
// 1024), and half as much again for the two CRT tables together — each
// has half the windows on half-width entries.
const fbWindow = 6

// fbTable is a windowed fixed-base table for one (base, modulus) pair.
// The entries are held in Montgomery representation so the per-window
// multiply reduces by REDC instead of a full-width division; Exp
// converts out once at the end. Immutable after construction.
type fbTable struct {
	mod        *big.Int
	maxExpBits int
	mont       *montCtx
	tab        [][]*big.Int // tab[i][d-1] = Mont(base^(d·2^(fbWindow·i)) mod mod)
}

// newFBTable precomputes the window table for exponents below
// 2^maxExpBits. The moduli here (N², p², q²) are always odd, so the
// Montgomery context always exists.
func newFBTable(base, mod *big.Int, maxExpBits int) *fbTable {
	mc, ok := newMontCtx(mod)
	if !ok {
		panic("paillier: fixed-base modulus not odd")
	}
	numWin := (maxExpBits + fbWindow - 1) / fbWindow
	t := &fbTable{mod: mod, maxExpBits: maxExpBits, mont: mc, tab: make([][]*big.Int, numWin)}
	cur := mc.toMont(new(big.Int).Mod(base, mod)) // Mont(base^(2^(fbWindow·i)))
	for i := 0; i < numWin; i++ {
		row := make([]*big.Int, (1<<fbWindow)-1)
		row[0] = new(big.Int).Set(cur)
		for d := 2; d < 1<<fbWindow; d++ {
			row[d-1] = mc.mul(row[d-2], cur)
		}
		t.tab[i] = row
		if i+1 < numWin {
			cur = mc.mul(row[len(row)-1], cur) // cur^(2^fbWindow)
		}
	}
	return t
}

// Exp returns base^e mod mod for 0 ≤ e < 2^maxExpBits; ok is false when
// e is out of range (caller falls back to big.Int.Exp).
func (t *fbTable) Exp(e *big.Int) (*big.Int, bool) {
	if e.Sign() < 0 || e.BitLen() > t.maxExpBits {
		return nil, false
	}
	// Two accumulators swap roles as Montgomery product destinations, so
	// the whole walk reuses three buffers and allocates only at growth.
	var acc, spare, scratch big.Int
	have := false
	bits := e.BitLen()
	for i := 0; i*fbWindow < bits; i++ {
		d := 0
		for j := fbWindow - 1; j >= 0; j-- {
			d = d<<1 | int(e.Bit(i*fbWindow+j))
		}
		if d == 0 {
			continue
		}
		if !have {
			acc.Set(t.tab[i][d-1])
			have = true
		} else {
			t.mont.mulInto(&spare, &scratch, &acc, t.tab[i][d-1])
			acc, spare = spare, acc
		}
	}
	if !have { // e == 0
		return big.NewInt(1), true
	}
	t.mont.redcInto(&acc, &scratch)
	return &acc, true
}

// crtFB is the private-key half of the fixed-base state: tables for hN
// mod p² and mod q², sized for exponents below p−1 and q−1, so each
// randomizer is two short walks on half-width operands recombined by
// the key.
type crtFB struct {
	sk         *PrivateKey
	tabP, tabQ *fbTable
}

// pow evaluates hN^a mod N² for any a ≥ 0. hN mod p² lies in the
// subgroup of N-th residues, whose order is p−1, so reducing a mod p−1
// (and mod q−1 on the other side) changes nothing about the result —
// bit for bit what big.Int.Exp(hN, a, N²) returns.
func (c *crtFB) pow(a *big.Int) (*big.Int, bool) {
	xp, ok := c.tabP.Exp(new(big.Int).Mod(a, c.sk.pMinus1))
	if !ok {
		return nil, false
	}
	xq, ok := c.tabQ.Exp(new(big.Int).Mod(a, c.sk.qMinus1))
	if !ok {
		return nil, false
	}
	return c.sk.crtSquares(xp, xq), true
}

// pkFixedBase is the optional fast-randomizer state hung off a
// PublicKey. Immutable once published by EnableFixedBase.
type pkFixedBase struct {
	hN  *big.Int // h^N mod N²
	tab *fbTable // base hN mod N²
	crt *crtFB   // non-nil only when enabled through the private key
}

// pow evaluates hN^a, CRT-split when the private-key tables exist.
func (fb *pkFixedBase) pow(a *big.Int) (*big.Int, bool) {
	if fb.crt != nil {
		return fb.crt.pow(a)
	}
	return fb.tab.Exp(a)
}

// EnableFixedBase installs the fixed-base randomizer state on the public
// key: every subsequent Encrypt/Rerandomize draws nonce powers as hN^a
// instead of computing r^N from scratch. Call once at setup, before the
// key is shared across goroutines; enabling is not synchronized. If
// random is nil, crypto/rand is used. Calling again is a no-op.
func (pk *PublicKey) EnableFixedBase(random io.Reader) error {
	if pk.fb != nil {
		return nil
	}
	hN, err := pk.fixedBaseGenerator(random)
	if err != nil {
		return err
	}
	pk.fb = &pkFixedBase{hN: hN, tab: newFBTable(hN, pk.NSquared, pk.N.BitLen())}
	return nil
}

// fixedBaseGenerator samples h and returns hN = h^N mod N².
func (pk *PublicKey) fixedBaseGenerator(random io.Reader) (*big.Int, error) {
	if random == nil {
		random = rand.Reader
	}
	h, err := pk.randomUnit(random)
	if err != nil {
		return nil, fmt.Errorf("paillier: fixed-base generator: %w", err)
	}
	return new(big.Int).Exp(h, pk.N, pk.NSquared), nil
}

// FixedBaseEnabled reports whether the fast randomizer path is active.
func (pk *PublicKey) FixedBaseEnabled() bool { return pk.fb != nil }

// EnableFixedBase on the private key installs the same public state plus
// the CRT-split tables mod p² and q². When the embedded public key
// already carries a table (PublicKey.EnableFixedBase ran first, and the
// key may have been copied to other parties since), its h is kept and
// only the CRT half is added, so every holder keeps drawing from one
// generator. Same setup-time, single-goroutine contract as the
// PublicKey method; calling again is a no-op.
func (sk *PrivateKey) EnableFixedBase(random io.Reader) error {
	if sk.fb != nil && sk.fb.crt != nil {
		return nil
	}
	fb := &pkFixedBase{crt: &crtFB{sk: sk}}
	if pub := sk.fb; pub != nil {
		fb.hN, fb.tab = pub.hN, pub.tab
	} else {
		var err error
		if fb.hN, err = sk.fixedBaseGenerator(random); err != nil {
			return err
		}
	}
	// The tables are independent of one another; the public one — twice
	// the windows on full-width entries, two thirds of the work — leads so
	// the caller takes it while a helper builds the two CRT halves.
	builds := []func(){
		func() { fb.tab = newFBTable(fb.hN, sk.NSquared, sk.N.BitLen()) },
		func() { fb.crt.tabP = newFBTable(fb.hN, sk.pSquared, sk.pMinus1.BitLen()) },
		func() { fb.crt.tabQ = newFBTable(fb.hN, sk.qSquared, sk.qMinus1.BitLen()) },
	}
	if fb.tab != nil {
		builds = builds[1:]
	}
	_ = ForEach(len(builds), func(i int) error { // the builds cannot fail
		builds[i]()
		return nil
	})
	sk.fb = fb
	return nil
}

// Nonce is the message-independent half of one encryption or
// re-randomisation: the randomness, already drawn from the caller's
// reader, and — once Raise has run — its power ρ = r^N mod N², a uniform
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
// serially, in the order count Encrypt calls would — via the fixed-base
// table when enabled (a fresh exponent a, ρ = hN^a), else a fresh unit r
// (ρ = r^N). If random is nil, crypto/rand is used.
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

// drawNonce draws one public-key nonce.
func (pk *PublicKey) drawNonce(random io.Reader) (*Nonce, error) {
	if random == nil {
		random = rand.Reader
	}
	if fb := pk.fb; fb != nil {
		a, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, fmt.Errorf("paillier: fixed-base exponent: %w", err)
		}
		return &Nonce{raise: func() *big.Int {
			if x, ok := fb.pow(a); ok { // always: a < N is inside the tables' range
				return x
			}
			return new(big.Int).Exp(fb.hN, a, pk.NSquared)
		}}, nil
	}
	r, err := pk.randomUnit(random)
	if err != nil {
		return nil, err
	}
	return &Nonce{raise: func() *big.Int { return new(big.Int).Exp(r, pk.N, pk.NSquared) }}, nil
}

// drawNonce on the private key is the randomizer kernel every C2 reply
// encryption uses. With tables it is the public routine (whose CRT walk
// the key's tables shorten); without, it uses the factorisation directly:
//
//	ρ = CRT(x_p^p mod p², x_q^q mod q²),  x_p ← [1,p), x_q ← [1,q)
//
// x ↦ x^p mod p² maps [1,p) one-to-one onto the order-(p−1) subgroup of
// ℤ*_{p²} (the kernel of y ↦ y^p is the elements ≡ 1 mod p, so equal
// images force x ≡ x′ mod p), and that subgroup is exactly the N-th
// residues mod p² because gcd(N, (p−1)(q−1)) = 1 makes y ↦ y^q a
// permutation of ℤ*_{p²}. So ρ is uniform over the N-th residues mod N²
// — the distribution of r^N for uniform r ∈ ℤ*_N, with no
// fixed-generator assumption — at two half-length exponents on
// half-width moduli, the shape of Decrypt.
func (sk *PrivateKey) drawNonce(random io.Reader) (*Nonce, error) {
	if sk.fb != nil {
		return sk.PublicKey.drawNonce(random)
	}
	if random == nil {
		random = rand.Reader
	}
	xp, err := rand.Int(random, sk.pMinus1)
	if err != nil {
		return nil, fmt.Errorf("paillier: private nonce: %w", err)
	}
	xq, err := rand.Int(random, sk.qMinus1)
	if err != nil {
		return nil, fmt.Errorf("paillier: private nonce: %w", err)
	}
	return &Nonce{raise: func() *big.Int {
		xp.Exp(xp.Add(xp, one), sk.p, sk.pSquared)
		xq.Exp(xq.Add(xq, one), sk.q, sk.qSquared)
		return sk.crtSquares(xp, xq)
	}}, nil
}
