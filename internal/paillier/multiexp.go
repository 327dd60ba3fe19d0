package paillier

import "math/big"

// This file is the multi-exponentiation kernel: Π bⱼ^eⱼ mod N² for many
// bases at once, the product C1 forms when it strips the blinds of a
// packed SSED record, one short exponent per attribute. Exponentiating
// each base on its own (ScalarMul) repeats the whole squaring chain per
// base; Straus's simultaneous exponentiation (1964) interleaves them —
// one chain of squarings serves every base, and each base only adds its
// window products. Each exponent is cut into sliding windows of at most
// multiExpWindow bits with an odd value d; base j tabulates its odd
// powers bⱼ^1, bⱼ^3, …, bⱼ^(2^w − 1), and the window of value d whose
// lowest bit sits at position p multiplies in bⱼ^d when the chain
// reaches p. For m bases and B-bit exponents that is B squarings plus
// about m·(B/(w+1) + 2^(w−1) + 1) products, against m·(B + B/(w+1) +
// 2^(w−1)) for m separate exponentiations.
//
// Everything runs on the key's N² Montgomery context (mont.go), built by
// the constructor: a base enters Montgomery form by one product with R²,
// and nothing divides unless an exponent lies outside [0, N).

// multiExpWindow is the sliding-window width w: 2^(w−1) table entries
// per base. Picked on BenchmarkMultiScalarMul at K = 512, m = 6 and
// 70-bit exponents (2-vCPU Xeon, median of three): w = 4 took 181 µs,
// w = 3 191 µs and w = 5 213 µs.
const multiExpWindow = 4

// expWindow is one sliding window of an exponent: the odd value d
// (1 ≤ d < 2^multiExpWindow) whose lowest bit is at position pos.
type expWindow struct{ pos, d int }

// slidingWindows cuts e ≥ 0 into its windows, highest first, so that
// e = Σ d·2^pos.
func slidingWindows(e *big.Int) []expWindow {
	var out []expWindow
	for i := e.BitLen() - 1; i >= 0; {
		if e.Bit(i) == 0 {
			i--
			continue
		}
		lo := max(i-multiExpWindow+1, 0)
		for e.Bit(lo) == 0 {
			lo++
		}
		d := 0
		for j := i; j >= lo; j-- {
			d = d<<1 | int(e.Bit(j))
		}
		out = append(out, expWindow{pos: lo, d: d})
		i = lo - 1
	}
	return out
}

// MultiScalarMul returns Π bases[j]^exps[j] mod N², which encrypts
// Σ aⱼ·eⱼ mod N when bases[j] encrypts aⱼ. Exponents are taken mod N, as
// ScalarMul takes them, so a negative eⱼ contributes bⱼ^(eⱼ mod N); the
// result is the group element a product of ScalarMul calls on the
// reduced exponents gives, bit for bit. Empty slices return the group
// identity 1 (a nonce-free encryption of 0), as does any call whose
// exponents are all ≡ 0; slices of different lengths are a bug in the
// caller and panic. The exponents are not modified; safe for concurrent
// use.
func (pk *PublicKey) MultiScalarMul(bases []*Ciphertext, exps []*big.Int) *Ciphertext {
	if len(bases) != len(exps) {
		panic("paillier: MultiScalarMul of mismatched lengths")
	}
	mm := pk.n2
	n := len(mm.m)
	const entries = 1 << (multiExpWindow - 1)
	t, sq := make([]uint64, n+1), make([]uint64, n)
	type operand struct {
		tab  []uint64 // bⱼ^(2i+1) in Montgomery form at [i·n, (i+1)·n)
		wins []expWindow
	}
	ops := make([]operand, 0, len(bases))
	top := 0
	for j, b := range bases {
		e := exps[j]
		if e.Sign() < 0 || e.Cmp(pk.N) >= 0 {
			e = new(big.Int).Mod(e, pk.N)
		}
		if e.Sign() == 0 {
			continue
		}
		op := operand{tab: make([]uint64, entries*n), wins: slidingWindows(e)}
		copy(op.tab, mm.toMont(b.c, t))
		mm.mul(sq, op.tab[:n], op.tab[:n], t)
		for i := 1; i < entries; i++ {
			mm.mul(op.tab[i*n:(i+1)*n], op.tab[(i-1)*n:i*n], sq, t)
		}
		ops = append(ops, op)
		top = max(top, e.BitLen())
	}

	acc := make([]uint64, n)
	started := false
	for pos := top - 1; pos >= 0; pos-- {
		if started {
			mm.mul(acc, acc, acc, t)
		}
		for j := range ops {
			op := &ops[j]
			if len(op.wins) == 0 || op.wins[0].pos != pos {
				continue
			}
			i := op.wins[0].d >> 1 // the entry of bⱼ^d
			op.wins = op.wins[1:]
			if started {
				mm.mul(acc, acc, op.tab[i*n:(i+1)*n], t)
			} else {
				copy(acc, op.tab[i*n:(i+1)*n])
				started = true
			}
		}
	}
	if !started {
		return &Ciphertext{c: big.NewInt(1)}
	}
	unit := make([]uint64, n)
	unit[0] = 1 // a product with the plain 1 leaves Montgomery form
	mm.mul(acc, acc, unit, t)
	return &Ciphertext{c: fromLimbs(acc)}
}
