package paillier

import (
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
