package paillier

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"
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
// With the base fixed, hN^a is a two-dimensional Lim–Lee comb (CRYPTO
// '94): cut the B-bit exponent into combTeeth teeth, and each tooth into
// combRows rows of b = ⌈⌈B/combTeeth⌉/combRows⌉ bits, so row j of tooth
// i holds bits (i·combRows + j)·b … +b−1. Table j holds the
// 2^combTeeth − 1 products of the bases hN^(2^((i·combRows + j)·b)) —
// table 0 raised to 2^(j·b) — and one step reads bit k of every row:
// b − 1 squarings and at most combRows·b products on the limb-level
// Montgomery kernel of mont.go, against the ~1.5·B of square-and-
// multiply. A key built from the factorisation runs two combs, mod p²
// and mod q² (half the limbs, a quarter of the cost per product), on
// exponents below p−1 and q−1 — hN mod p² is an N-th residue, so its
// order divides p−1 — and recombines; a public-only key runs one comb
// mod N².

// The comb's shape, one for every key: combRows tables of
// 2^combTeeth − 1 entries, 30 per comb — ≈ 3.75 KiB mod N² and ≈ 1.9 KiB
// mod p² or q² at a 512-bit N. A walk on a 256-bit exponent costs ≈ 91
// products, against ≈ 123 for one table of 4 teeth. Wider shapes walk
// faster still but double the table again, which every key pays for
// resident (TestCombTableBudget).
const (
	combTeeth = 4
	combRows  = 2
)

// comb evaluates base^e mod m for one fixed base and every exponent
// below 2^bits. Immutable after newComb; safe for concurrent use.
type comb struct {
	mod  *montMod
	bits int      // exponents are below 2^bits
	span int      // b: the row length, and the step count
	tab  []uint64 // flat, table by table; entry d of table j = ∏ base^(2^((i·combRows+j)·span)) over the set bits i of d, Montgomery form
}

// newComb tabulates base mod m on the prepared modulus mm.
func newComb(base *big.Int, mm *montMod, bits int) *comb {
	n := len(mm.m)
	span := ((bits+combTeeth-1)/combTeeth + combRows - 1) / combRows
	c := &comb{mod: mm, bits: bits, span: span, tab: make([]uint64, combRows*(1<<combTeeth-1)*n)}
	t := make([]uint64, n+1)
	row := mm.toMont(new(big.Int).Mod(base, mm.big), t)
	for r := 0; r < combTeeth*combRows; r++ {
		// row = base^(2^(r·span)): tooth i of table j. Entries 2^i …
		// 2^(i+1)−1 of table j: the tooth alone, then times each entry
		// below it.
		i, j := r/combRows, r%combRows
		copy(c.entry(j, 1<<i), row)
		for d := 1; d < 1<<i; d++ {
			mm.mul(c.entry(j, 1<<i|d), c.entry(j, d), row, t)
		}
		for s := 0; s < span && r+1 < combTeeth*combRows; s++ {
			mm.mul(row, row, row, t)
		}
	}
	return c
}

// entry returns entry d of table j, 1 ≤ d < 2^combTeeth.
func (c *comb) entry(j, d int) []uint64 {
	n := len(c.mod.m)
	k := j*(1<<combTeeth-1) + d
	return c.tab[(k-1)*n : k*n]
}

// exp returns base^e mod m. An exponent outside [0, 2^bits) is a bug in
// the caller: every draw of this package stays inside its comb's range.
func (c *comb) exp(e *big.Int) *big.Int {
	if e.Sign() < 0 || e.BitLen() > c.bits {
		panic("paillier: comb exponent out of range")
	}
	n := len(c.mod.m)
	ew := toLimbs(e, (combTeeth*combRows*c.span+63)/64)
	buf := make([]uint64, 3*n+1)
	acc, unit, t := buf[:n], buf[n:2*n], buf[2*n:]
	started := false
	for k := c.span - 1; k >= 0; k-- {
		if started {
			c.mod.mul(acc, acc, acc, t)
		}
		for j := 0; j < combRows; j++ {
			d := 0
			for i := combTeeth - 1; i >= 0; i-- {
				pos := (i*combRows+j)*c.span + k
				d = d<<1 | int(ew[pos>>6]>>(pos&63)&1)
			}
			switch {
			case d == 0:
			case started:
				c.mod.mul(acc, acc, c.entry(j, d), t)
			default:
				copy(acc, c.entry(j, d))
				started = true
			}
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
// still calls it (ROADMAP item 4(b)'s shim list).
func (sk *PrivateKey) EnableFixedBase(io.Reader) error { return nil }

// Nonce is the message-independent half of one encryption or
// re-randomisation: the randomness, already drawn from the caller's
// reader, and — once Raise has run — its power ρ = hN^a mod N², an
// element of the group of N-th residues. Splitting the two lets a party
// draw serially, so the reader is never shared, and pay the
// exponentiation (all but a few multiplications of an encryption)
// wherever a core is free: C2's NonceReserve raises its reply nonces
// before the request arrives, and C2's one door (smc.Responder.Decrypt)
// raises whatever is left in the same ForEach task list as the request's
// decryptions (RaiseAlongside). A Nonce encrypts one message; Raise may run on
// several goroutines at once — the reserve's raiser and the handler that
// took the nonce — and computes the power once.
type Nonce struct {
	once   sync.Once
	raise  func() *big.Int // the pending exponentiation; reads no randomness
	rho    *big.Int        // its result, once raised
	raised atomic.Bool     // rho is set: Raise has nothing left to do
}

// Raise computes the nonce power. A call that finds another one under
// way waits for its result; once raised, Raise is a no-op.
func (nc *Nonce) Raise() {
	nc.once.Do(func() {
		nc.rho, nc.raise = nc.raise(), nil
		nc.raised.Store(true)
	})
}

// power returns the raised nonce power, raising it now if nobody has.
func (nc *Nonce) power() *big.Int {
	nc.Raise()
	return nc.rho
}

// RaiseAlongside runs fn(0), …, fn(n−1) and raises every nonce not yet
// raised as one ForEach task list: the shape of every C2 request, whose
// n decryptions and reply nonce powers are independent of one another,
// and its one caller is C2's door, smc.Responder.Decrypt. A nonce the reserve's raiser has already raised gets no task;
// one it is still raising gets one, which waits for its result. Errors
// and panics as ForEach.
func RaiseAlongside(nonces []*Nonce, n int, fn func(i int) error) error {
	pending := unraised(nonces)
	return ForEach(n+len(pending), func(t int) error {
		if t < n {
			return fn(t)
		}
		pending[t-n].Raise()
		return nil
	})
}

// unraised returns the nonces whose power is not computed yet, in order.
func unraised(nonces []*Nonce) []*Nonce {
	var out []*Nonce
	for _, nc := range nonces {
		if !nc.raised.Load() {
			out = append(out, nc)
		}
	}
	return out
}

// DrawNonces draws the randomness of count encryptions from random,
// serially, in the order count Encrypt calls would: a fresh exponent a
// each, ρ = hN^a. If random is nil, crypto/rand is used.
func (pk *PublicKey) DrawNonces(random io.Reader, count int) ([]*Nonce, error) {
	return drawNonces(count, random, pk.drawNonce)
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
// encryption uses, through NonceReserve: the same two CRT combs, with
// the half-length exponents drawn independently, a_p ← [0, p−1) and
// a_q ← [0, q−1), instead of reduced from one a < N. ρ is then uniform
// over the product of ⟨hN mod p²⟩ and ⟨hN mod q²⟩ — a subgroup of the
// N-th residues that contains ⟨hN⟩ — so the fixed-generator assumption
// the public routine rests on covers it.
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
