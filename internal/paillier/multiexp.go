package paillier

import "math/big"

// This file is the exponentiation kernel: Π bⱼ^eⱼ mod m for one base
// or many, on a prepared modulus (mont.go) — the one routine every hot
// exponentiation of this package runs: decryption's c^(r−1) mod r²
// (crtHalf.decrypt), ScalarMul's single power, MultiScalarMul's product
// of powers (C1 stripping the blinds of a packed SSED record, one short
// exponent per attribute), and PackCiphertexts' Horner fold.
// Exponentiating each base on its own repeats the whole squaring chain
// per base; Straus's simultaneous exponentiation (1964) interleaves them
// — one chain of squarings serves every base, and each base only adds
// its window products. Each exponent is cut into sliding windows of at
// most multiExpWindow bits with an odd value d; base j tabulates its odd
// powers bⱼ^1, bⱼ^3, …, up to the largest d its windows use, and the
// window of value d whose lowest bit sits at position p multiplies in
// bⱼ^d when the chain reaches p. For m bases and B-bit exponents that is
// B squarings plus about m·(B/(w+1) + 2^(w−1) + 1) products, against
// m·(B + B/(w+1) + 2^(w−1)) for m separate exponentiations. A power of
// two has one window of value 1 and tabulates nothing, so the Horner
// fold Π cⱼ^(2^(j·W)) costs W squarings and one product per slot.
//
// A base enters Montgomery form by one product with R², and nothing
// divides unless a base is at or above m.

// multiExpWindow is the sliding-window width w: at most 2^(w−1) table
// entries per base. Picked on BenchmarkMultiScalarMul at K = 512, m = 6
// and 70-bit exponents (2-vCPU Xeon, median of three): w = 4 took
// 181 µs, w = 3 191 µs and w = 5 213 µs.
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
	bs, es := make([]*big.Int, len(bases)), make([]*big.Int, len(exps))
	for j, b := range bases {
		e := exps[j]
		if e.Sign() < 0 || e.Cmp(pk.N) >= 0 {
			e = new(big.Int).Mod(e, pk.N)
		}
		bs[j], es[j] = b.c, e
	}
	return &Ciphertext{c: pk.n2.multiExp(bs, es)}
}

// exp returns b^e mod m for e ≥ 0: multiExp of one base.
func (mm *montMod) exp(b, e *big.Int) *big.Int {
	return mm.multiExp([]*big.Int{b}, []*big.Int{e})
}

// multiExp returns Π bases[j]^exps[j] mod m for bases ≥ 0 and exponents
// ≥ 0, 1 for an empty product; the caller passes slices of one length.
// Neither slice's values are modified.
func (mm *montMod) multiExp(bases, exps []*big.Int) *big.Int {
	n := len(mm.m)
	t, sq := make([]uint64, n+1), make([]uint64, n)
	type operand struct {
		tab  []uint64 // bⱼ^(2i+1) in Montgomery form at [i·n, (i+1)·n)
		wins []expWindow
	}
	ops := make([]operand, 0, len(bases))
	top := 0
	for j, b := range bases {
		e := exps[j]
		if e.Sign() == 0 {
			continue
		}
		if b.Cmp(mm.big) >= 0 {
			b = new(big.Int).Mod(b, mm.big)
		}
		op := operand{wins: slidingWindows(e)}
		entries := 1
		for _, w := range op.wins {
			entries = max(entries, w.d/2+1)
		}
		op.tab = make([]uint64, entries*n)
		copy(op.tab, mm.toMont(b, t))
		if entries > 1 {
			mm.mul(sq, op.tab[:n], op.tab[:n], t)
		}
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
		return big.NewInt(1)
	}
	unit := make([]uint64, n)
	unit[0] = 1 // a product with the plain 1 leaves Montgomery form
	mm.mul(acc, acc, unit, t)
	return fromLimbs(acc)
}
