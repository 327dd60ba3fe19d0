package paillier

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// Limb-level Montgomery arithmetic: the one product every hot
// exponentiation of this package multiplies with — the nonce combs
// (fixedbase.go) and the sliding-window exponentiation (multiexp.go)
// that decryption, ScalarMul, MultiScalarMul and PackCiphertexts run on.
// A residue is n little-endian 64-bit limbs below the modulus, in
// Montgomery form x·R mod m with R = 2^(64n). Values cross to and from
// big.Int as big-endian bytes, so nothing depends on the width of
// big.Word.
//
// The product has two bodies. On amd64 with BMI2 and ADX, a modulus of
// a multiple of 8 limbs — N² and p², q² at K = 512, 1024 and 2048 —
// multiplies in mont_amd64.s (MULX with two carry chains on ADCX and
// ADOX); every other modulus, and every other CPU and architecture,
// runs the math/bits body below, which the tests hold the assembly to.
// The choice is made once per modulus, by newMontMod, from CPUID (read
// at package init) and the limb count.
//
// A key's constructor (NewPublicKey, newPrivateKey) prepares its moduli
// once: N² for every key — the public comb and the exponentiations on
// ciphertexts share it — and p², q² for the private key's decryption
// halves and CRT combs. Preparing one is the only division; a value
// enters Montgomery form by one product with R² mod m.

// montMod is an odd modulus prepared for Montgomery products. Immutable
// after newMontMod; safe for concurrent use.
type montMod struct {
	big *big.Int // the modulus m
	m   []uint64 // m as limbs
	inv uint64   // −m⁻¹ mod 2^64
	rr  []uint64 // R² mod m: a product with it puts a value into Montgomery form
	adx bool     // mul runs montMulADX: the CPU has it and len(m) is a multiple of 8
}

// newMontMod prepares an odd modulus > 1. The moduli of this package
// (N², p², q² of a validated key) always are; anything else is a bug.
func newMontMod(mod *big.Int) *montMod {
	if mod.Bit(0) == 0 || mod.BitLen() < 2 {
		panic("paillier: Montgomery modulus must be odd and above 1")
	}
	n := (mod.BitLen() + 63) / 64
	mm := &montMod{big: mod, m: toLimbs(mod, n), adx: mulxAdx && n%8 == 0}
	// Newton's iteration doubles the correct low bits of m⁻¹ each round;
	// an odd m is its own inverse mod 8.
	inv := mm.m[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - mm.m[0]*inv
	}
	mm.inv = -inv
	rr := new(big.Int).Lsh(one, uint(128*n))
	mm.rr = toLimbs(rr.Mod(rr, mod), n)
	return mm
}

// toMont returns x·R mod m as limbs, x in Montgomery form, for
// 0 ≤ x < m: one product with R², no division. t is scratch of n+1
// limbs.
func (mm *montMod) toMont(x *big.Int, t []uint64) []uint64 {
	z := toLimbs(x, len(mm.m))
	mm.mul(z, z, mm.rr, t)
	return z
}

// toLimbs returns x, 0 ≤ x < 2^(64n), as n little-endian limbs.
func toLimbs(x *big.Int, n int) []uint64 {
	buf := x.FillBytes(make([]byte, 8*n))
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(buf[8*(n-1-i):])
	}
	return out
}

// fromLimbs is the inverse of toLimbs.
func fromLimbs(x []uint64) *big.Int {
	buf := make([]byte, 8*len(x))
	for i, w := range x {
		binary.BigEndian.PutUint64(buf[8*(len(x)-1-i):], w)
	}
	return new(big.Int).SetBytes(buf)
}

// mul sets z = x·y·R⁻¹ mod m, the Montgomery product. x, y < m hold n
// limbs each; t is scratch of n+1 limbs; z may alias x or y, t may alias
// nothing. Allocates nothing. Where mm.adx is set the product runs in
// mont_amd64.s; the math/bits body is finely integrated operand
// scanning: one pass per limb of y adds x·y[i] and the multiple u·m that
// clears the low limb, and stores the sum one limb down.
func (mm *montMod) mul(z, x, y, t []uint64) {
	m, n := mm.m, len(mm.m)
	x, y, z, t = x[:n], y[:n], z[:n], t[:n+1]
	if mm.adx {
		montMulADX(&z[0], &x[0], &y[0], &m[0], &t[0], n, mm.inv)
		return
	}
	for i := range t {
		t[i] = 0
	}
	// The inner loop's four views, cut to one length so it runs without
	// bounds checks: it reads x, m and t at j+1 and writes t at j.
	xs := x[1:]
	ms, tr, tw := m[1:][:len(xs)], t[1:][:len(xs)], t[:len(xs)]
	for _, yi := range y {
		hi, lo := bits.Mul64(x[0], yi)
		lo, c := bits.Add64(lo, t[0], 0)
		cx, _ := bits.Add64(hi, 0, c) // carry of the x·y[i] chain
		u := lo * mm.inv              // lo + u·m[0] ≡ 0 mod 2^64
		hi, lo2 := bits.Mul64(u, m[0])
		_, c = bits.Add64(lo2, lo, 0)
		cm, _ := bits.Add64(hi, 0, c) // carry of the u·m chain
		for j, xj := range xs {
			hi, lo := bits.Mul64(xj, yi)
			lo, c = bits.Add64(lo, tr[j], 0)
			hi, _ = bits.Add64(hi, 0, c)
			lo, c = bits.Add64(lo, cx, 0)
			cx, _ = bits.Add64(hi, 0, c)
			hi, lo2 := bits.Mul64(u, ms[j])
			lo2, c = bits.Add64(lo2, lo, 0)
			hi, _ = bits.Add64(hi, 0, c)
			lo2, c = bits.Add64(lo2, cm, 0)
			cm, _ = bits.Add64(hi, 0, c)
			tw[j] = lo2
		}
		lo, c = bits.Add64(t[n], cx, 0)
		t[n-1], cm = bits.Add64(lo, cm, 0)
		t[n] = c + cm
	}
	// t < 2m: one conditional subtraction finishes.
	var borrow uint64
	for j := range z {
		z[j], borrow = bits.Sub64(t[j], m[j], borrow)
	}
	if t[n] == 0 && borrow != 0 { // t < m: the subtraction was not due
		copy(z, t[:n])
	}
}
