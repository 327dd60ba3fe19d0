package paillier

import (
	"bytes"
	"math/big"
	mrand "math/rand"
	"testing"
)

// randomOddModulus returns an odd modulus of exactly bits bits.
func randomOddModulus(rng *mrand.Rand, bits int) *big.Int {
	m := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(bits-1)))
	m.SetBit(m, bits-1, 1)
	return m.SetBit(m, 0, 1)
}

// TestMontMulMatchesBigInt pins the limb kernel against big.Int Mul/Mod
// on either side of every limb boundary a key size can land on (one limb
// short of full, full, one bit into the next), over the operands where a
// carry chain or the final subtraction goes wrong first — 0, 1, m−1 and
// R mod m — and with the destination aliasing either operand, or both.
func TestMontMulMatchesBigInt(t *testing.T) {
	rng := mrand.New(mrand.NewSource(23))
	for _, bits := range []int{63, 64, 65, 127, 128, 129, 511, 512, 1023, 1024} {
		for round := 0; round < 4; round++ {
			m := randomOddModulus(rng, bits)
			if round == 0 { // all ones: every limb of t + u·m carries
				m.Sub(new(big.Int).Lsh(one, uint(bits)), one)
			}
			r := new(big.Int).Lsh(one, uint(64*((bits+63)/64)))
			ops := []*big.Int{
				new(big.Int), big.NewInt(1), new(big.Int).Sub(m, one), r.Mod(r, m),
				new(big.Int).Rand(rng, m), new(big.Int).Rand(rng, m),
			}
			for _, x := range ops {
				for _, y := range ops {
					want := new(big.Int).Mul(x, y)
					want.Mod(want, m)
					for alias := 0; alias <= 2; alias++ {
						if got := MontMul(m, x, y, alias); got.Cmp(want) != 0 {
							t.Fatalf("%d bits, alias %d: %v·%v mod %v = %v, want %v", bits, alias, x, y, m, got, want)
						}
					}
				}
				want := new(big.Int).Mul(x, x)
				if got := MontMul(m, x, x, 3); got.Cmp(want.Mod(want, m)) != 0 {
					t.Fatalf("%d bits: %v² mod %v = %v, want %v", bits, x, m, got, want)
				}
			}
		}
	}
}

// TestLimbsRoundTrip: values cross between big.Int and limbs as bytes,
// so the conversion is the same on a 32-bit big.Word as on a 64-bit one.
func TestLimbsRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(29))
	for _, bits := range []int{1, 63, 64, 65, 200, 512} {
		x := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(bits)))
		n := (bits + 63) / 64
		limbs := toLimbs(x, n)
		if len(limbs) != n {
			t.Fatalf("%d bits: %d limbs, want %d", bits, len(limbs), n)
		}
		for i, w := range limbs { // little endian: limb i is bits 64i … 64i+63
			want := new(big.Int).Rsh(x, uint(64*i))
			if w != want.And(want, new(big.Int).SetUint64(^uint64(0))).Uint64() {
				t.Fatalf("%d bits: limb %d = %#x", bits, i, w)
			}
		}
		if got := fromLimbs(limbs); got.Cmp(x) != 0 {
			t.Fatalf("%d bits: round trip of %v = %v", bits, x, got)
		}
	}
}

func TestNewMontModRejectsEvenModulus(t *testing.T) {
	if !mustPanic(func() { newMontMod(big.NewInt(1 << 40)) }) {
		t.Error("an even modulus was accepted")
	}
}

// genericBody returns a copy of mm that multiplies on the math/bits
// body whatever the CPU: the reference the assembly is held to.
func genericBody(mm *montMod) *montMod {
	g := *mm
	g.adx = false
	return &g
}

// montOperands returns the values where a carry chain or the final
// subtraction goes wrong first — 0, 1, m−1 and R mod m — and random
// values below m, as limbs.
func montOperands(rng *mrand.Rand, mm *montMod) [][]uint64 {
	n := len(mm.m)
	r := new(big.Int).Lsh(one, uint(64*n))
	vals := []*big.Int{new(big.Int), big.NewInt(1), new(big.Int).Sub(mm.big, one), r.Mod(r, mm.big)}
	for len(vals) < 7 {
		vals = append(vals, new(big.Int).Rand(rng, mm.big))
	}
	out := make([][]uint64, len(vals))
	for i, v := range vals {
		out[i] = toLimbs(v, n)
	}
	return out
}

// checkBodies multiplies x by y on mm and on its generic copy, with the
// destination fresh or aliasing x, y or both (x = y), and fails unless
// both equal x·y·R⁻¹ mod m.
func checkBodies(t *testing.T, mm *montMod, x, y []uint64) {
	t.Helper()
	n := len(mm.m)
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(one, uint(64*n)), mm.big)
	product := func(a, b []uint64) *big.Int {
		p := new(big.Int).Mul(fromLimbs(a), fromLimbs(b))
		return p.Mul(p, rInv).Mod(p, mm.big)
	}
	scratch := make([]uint64, n+1)
	for _, body := range []*montMod{mm, genericBody(mm)} {
		for alias := 0; alias <= 3; alias++ {
			xs, ys := append([]uint64(nil), x...), append([]uint64(nil), y...)
			z, want := make([]uint64, n), product(x, y)
			switch alias {
			case 1:
				z = xs
			case 2:
				z = ys
			case 3:
				xs = append(xs[:0], y...)
				z, ys, want = xs, xs, product(y, y)
			}
			body.mul(z, xs, ys, scratch)
			if got := fromLimbs(z); got.Cmp(want) != 0 {
				t.Fatalf("%d limbs, adx %v, alias %d: x = %v, y = %v, m = %v: got %v, want %v",
					n, body.adx, alias, fromLimbs(x), fromLimbs(y), mm.big, got, want)
			}
		}
	}
}

// TestMontMulMatchesGeneric holds the assembly body to the math/bits
// one, and both to big.Int, at every limb count the repo's keys produce
// — p², q² and N² at K ∈ {256, 512, 1024, 2048} have 4, 8, 16, 32 and
// 64 limbs — and at 9, 12 and 24, over the edge operands with the
// destination aliasing either operand or both. It also pins the
// routing: the assembly runs exactly where CPUID allows it and the limb
// count is a multiple of 8.
func TestMontMulMatchesGeneric(t *testing.T) {
	if !mulxAdx {
		t.Log("no BMI2 and ADX: both bodies are the math/bits one")
	}
	rng := mrand.New(mrand.NewSource(31))
	for _, n := range []int{4, 8, 9, 12, 16, 24, 32, 64} {
		for round := 0; round < 3; round++ {
			var m *big.Int
			switch round {
			case 0: // all ones: every limb of acc + u·m carries
				m = new(big.Int).Sub(new(big.Int).Lsh(one, uint(64*n)), one)
			case 1:
				m = randomOddModulus(rng, 64*n)
			default: // the top limb barely set
				m = randomOddModulus(rng, 64*(n-1)+1)
			}
			mm := newMontMod(m)
			if len(mm.m) != n {
				t.Fatalf("%d-bit modulus has %d limbs, want %d", m.BitLen(), len(mm.m), n)
			}
			if want := mulxAdx && n%8 == 0; mm.adx != want {
				t.Fatalf("%d limbs: assembly body %v, want %v", n, mm.adx, want)
			}
			ops := montOperands(rng, mm)
			for _, x := range ops {
				for _, y := range ops {
					checkBodies(t, mm, x, y)
				}
			}
			scratch := make([]uint64, n+1)
			for _, body := range []*montMod{mm, genericBody(mm)} {
				if allocs := testing.AllocsPerRun(10, func() { body.mul(ops[4], ops[4], ops[5], scratch) }); allocs != 0 {
					t.Fatalf("%d limbs, adx %v: a product allocates %v times", n, body.adx, allocs)
				}
			}
		}
	}
}

// FuzzMontMul multiplies arbitrary operands under arbitrary odd moduli
// of 1 to 16 limbs on both bodies and checks them against big.Int: the
// modulus's limbs are the input bytes, its low bit and its top limb's
// second bit forced to 1, so it is odd, above 1 and of exactly that
// many limbs.
func FuzzMontMul(f *testing.F) {
	f.Add([]byte{0xff}, []byte{0x01}, []byte{0x02}, uint8(8))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 1}, []byte{0xff, 0xff}, []byte{0x7f}, uint8(16))
	f.Add([]byte{}, []byte{}, []byte{}, uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff}, []byte{0xff, 0xff, 0xff}, []byte{0xff, 0xff, 0xff}, uint8(9))
	full := bytes.Repeat([]byte{0xff, 0x5a, 0xc3}, 43)
	f.Add(full[:7], full, full[1:], uint8(7))
	f.Add(full[:5], full, full[2:], uint8(15))
	f.Fuzz(func(t *testing.T, mod, x, y []byte, limbs uint8) {
		n := int(limbs%16) + 1
		buf := make([]byte, 8*n)
		for i := range buf {
			if len(mod) > 0 {
				buf[i] = mod[i%len(mod)] ^ byte(i/len(mod))
			}
		}
		m := new(big.Int).SetBytes(buf)
		m.SetBit(m, 0, 1).SetBit(m, 64*(n-1)+1, 1)
		mm := newMontMod(m)
		xv, yv := new(big.Int).SetBytes(x), new(big.Int).SetBytes(y)
		checkBodies(t, mm, toLimbs(xv.Mod(xv, m), n), toLimbs(yv.Mod(yv, m), n))
	})
}
