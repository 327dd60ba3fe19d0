package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// productOfScalarMuls is MultiScalarMul's specification: one ScalarMul
// per base on the exponent reduced mod N, folded with Add.
func productOfScalarMuls(pk *PublicKey, bases []*Ciphertext, exps []*big.Int) *Ciphertext {
	acc := &Ciphertext{c: big.NewInt(1)}
	for j, b := range bases {
		acc = pk.Add(acc, pk.ScalarMul(b, new(big.Int).Mod(exps[j], pk.N)))
	}
	return acc
}

// scalarMulByExp is ScalarMul's specification on big.Int.Exp: a^(k mod
// N) mod N², or (a⁻¹)^|k| for a negative k whose magnitude mod N is 64
// bits shorter than N.
func scalarMulByExp(pk *PublicKey, a *Ciphertext, k *big.Int) *big.Int {
	if k.Sign() < 0 {
		abs := new(big.Int).Mod(new(big.Int).Neg(k), pk.N)
		if abs.BitLen()+64 < pk.N.BitLen() {
			return new(big.Int).Exp(new(big.Int).ModInverse(a.c, pk.NSquared), abs, pk.NSquared)
		}
	}
	return new(big.Int).Exp(a.c, new(big.Int).Mod(k, pk.N), pk.NSquared)
}

// multiExpEdges returns the exponents where a sliding-window walk goes
// wrong first: 0, 1, a full window 2^w − 1 and the first two-window
// value 2^w, 70-bit values (SSED's unblinding width) and random values
// whose top bits sit at different heights, N − 1, and values at or
// above N or negative, which must act as their residue mod N.
func multiExpEdges(rng *mrand.Rand, n *big.Int) []*big.Int {
	w := big.NewInt(1 << multiExpWindow)
	out := []*big.Int{
		new(big.Int), big.NewInt(1), new(big.Int).Sub(w, one), w,
		new(big.Int).Sub(n, one), new(big.Int).Set(n), new(big.Int).Add(n, big.NewInt(5)),
		new(big.Int).Lsh(n, 1), new(big.Int).Add(new(big.Int).Lsh(n, 1), big.NewInt(3)),
		big.NewInt(-1), big.NewInt(-(1 << multiExpWindow)), new(big.Int).Neg(n), new(big.Int).Sub(new(big.Int).Neg(n), big.NewInt(3)),
	}
	for _, width := range []int{2, 5, 33, 64, 65, 70, 74, n.BitLen() - 1} {
		e := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(width)))
		out = append(out, e.SetBit(e, width-1, 1), new(big.Int).Neg(e))
	}
	return out
}

// TestMultiScalarMulMatchesScalarMuls pins the kernel against a product
// of ScalarMul calls — the same group element, not just the same
// plaintext — at key sizes on either side of a limb boundary of N², for
// 1 … 8 bases whose exponents are drawn from the edge set, and every
// ScalarMul on the edge set (0, 1, N − 1, negative k short and long)
// against big.Int.Exp. The bases include 1 and N² − 1, and one
// ciphertext often comes twice; every call runs on &sk.PublicKey and on
// a NewPublicKey copy of it, which must agree. N² has 2, 8 and 16 limbs
// here: the math/bits body and, where the CPU has it, the assembly.
func TestMultiScalarMulMatchesScalarMuls(t *testing.T) {
	for _, keyBits := range []int{64, 256, 512, 1024} {
		t.Run(fmt.Sprintf("K=%d", keyBits), func(t *testing.T) {
			t.Parallel()
			sk, err := GenerateKey(rand.Reader, keyBits)
			if err != nil {
				t.Fatal(err)
			}
			pub, err := NewPublicKey(sk.N)
			if err != nil {
				t.Fatal(err)
			}
			rng := mrand.New(mrand.NewSource(int64(keyBits)))
			edges := multiExpEdges(rng, sk.N)
			ct := func(v *big.Int) *Ciphertext {
				c, err := sk.FromRaw(v)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			// Bases are drawn with replacement, so the same ciphertext
			// often comes twice in one call.
			pool := []*Ciphertext{ct(one), ct(new(big.Int).Sub(sk.NSquared, one))}
			for len(pool) < 8 {
				x, err := sk.Encrypt(rand.Reader, new(big.Int).Rand(rng, sk.N))
				if err != nil {
					t.Fatal(err)
				}
				pool = append(pool, x)
			}
			for _, b := range pool {
				for _, e := range edges {
					want := scalarMulByExp(&sk.PublicKey, b, e)
					for _, pk := range []*PublicKey{&sk.PublicKey, pub} {
						if got := pk.ScalarMul(b, e); got.c.Cmp(want) != 0 {
							t.Fatalf("ScalarMul(%v, %v) = %v, want %v", b, e, got, want)
						}
					}
				}
			}
			for m := 1; m <= 8; m++ {
				for round := 0; round < 12; round++ {
					bases := make([]*Ciphertext, m)
					exps := make([]*big.Int, m)
					for j := range bases {
						bases[j] = pool[rng.Intn(len(pool))]
						exps[j] = edges[rng.Intn(len(edges))]
					}
					if m > 1 && round == 1 {
						bases[1] = bases[0]
					}
					if round == 0 { // every exponent ≡ 0: the identity
						for j := range exps {
							exps[j] = []*big.Int{new(big.Int), sk.N}[j%2]
						}
					}
					kept := make([]string, m)
					for j, e := range exps {
						kept[j] = e.String()
					}
					want := productOfScalarMuls(&sk.PublicKey, bases, exps)
					for name, pk := range map[string]*PublicKey{"&sk.PublicKey": &sk.PublicKey, "NewPublicKey": pub} {
						if got := pk.MultiScalarMul(bases, exps); !got.Equal(want) {
							t.Fatalf("m=%d, exponents %v, on %s: %v, want %v", m, exps, name, got, want)
						}
					}
					for j, e := range exps {
						if e.String() != kept[j] {
							t.Fatalf("exponent %d changed from %s to %v", j, kept[j], e)
						}
					}
				}
			}
		})
	}
}

// TestMultiScalarMulEmptyAndMismatched: no bases is the empty product,
// the identity 1; bases and exponents of different lengths panic.
func TestMultiScalarMulEmptyAndMismatched(t *testing.T) {
	sk := fbKey()
	for _, got := range []*Ciphertext{sk.MultiScalarMul(nil, nil), sk.MultiScalarMul([]*Ciphertext{}, []*big.Int{})} {
		if got.Raw().Cmp(one) != 0 {
			t.Errorf("empty product = %v, want 1", got)
		}
	}
	x, err := sk.Encrypt(rand.Reader, big.NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	if !mustPanic(func() { sk.MultiScalarMul([]*Ciphertext{x, x}, []*big.Int{one}) }) {
		t.Error("two bases with one exponent were accepted")
	}
	if !mustPanic(func() { sk.MultiScalarMul(nil, []*big.Int{one}) }) {
		t.Error("one exponent with no base was accepted")
	}
}

// FuzzMultiScalarMul feeds arbitrary exponent bytes — split into up to
// eight exponents, some negated — through the kernel and cross-checks a
// product of big.Int.Exp calls on the residues mod N.
func FuzzMultiScalarMul(f *testing.F) {
	sk := fbKey()
	bases := make([]*Ciphertext, 8)
	for j := range bases {
		x, err := sk.Encrypt(rand.Reader, big.NewInt(int64(1000+j)))
		if err != nil {
			f.Fatal(err)
		}
		bases[j] = x
	}
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Add([]byte{0x0f, 0x10}, uint8(2), uint8(2))
	f.Add(sk.N.Bytes(), uint8(1), uint8(0))
	f.Add(append(new(big.Int).Sub(sk.N, one).Bytes(), 0xff, 0x01), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, count, neg uint8) {
		m := int(count%8) + 1
		exps := make([]*big.Int, m)
		step := (len(raw) + m - 1) / m
		for j := range exps {
			lo := min(len(raw), j*step)
			exps[j] = new(big.Int).SetBytes(raw[lo:min(len(raw), lo+step)])
			if neg>>j&1 == 1 {
				exps[j].Neg(exps[j])
			}
		}
		want := big.NewInt(1)
		for j, e := range exps {
			want.Mul(want, new(big.Int).Exp(bases[j].c, new(big.Int).Mod(e, sk.N), sk.NSquared))
			want.Mod(want, sk.NSquared)
		}
		if got := sk.MultiScalarMul(bases[:m], exps); got.c.Cmp(want) != 0 {
			t.Fatalf("kernel diverges from big.Int.Exp for exponents %v", exps)
		}
	})
}
