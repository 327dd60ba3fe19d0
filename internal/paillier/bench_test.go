package paillier

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"sync"
	"testing"
)

// Benchmarks for the cryptosystem substrate. The Encrypt/Decrypt pair at
// 512 vs 1024 bits underlies the paper's "×~7 when K doubles"
// observation; BenchmarkAblationCRTDecrypt quantifies the CRT design
// choice (docs/KERNELS.md has both decryption paths' numbers).

var benchKeys sync.Map // bits -> *PrivateKey

func benchKey(b *testing.B, bits int) *PrivateKey {
	if sk, ok := benchKeys.Load(bits); ok {
		return sk.(*PrivateKey)
	}
	sk, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		b.Fatal(err)
	}
	benchKeys.Store(bits, sk)
	return sk
}

func BenchmarkEncrypt(b *testing.B) {
	for _, bits := range []int{512, 1024} {
		b.Run(fmt.Sprintf("K=%d", bits), func(b *testing.B) {
			sk := benchKey(b, bits)
			m := big.NewInt(123456)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sk.Encrypt(rand.Reader, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecrypt prices C2's two decryption paths on each body of the
// product: "crt" is Decrypt, both halves recombined, and "oneprime" the
// largest plaintext the smaller factor's half decrypts alone
// (DecryptBelow), one exponentiation mod s² — a short packed group's
// cost.
func BenchmarkDecrypt(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048} {
		sk := benchKey(b, bits)
		bound := sk.short.prime.BitLen() - onePrimeSlack
		ct, err := sk.Encrypt(rand.Reader, new(big.Int).Lsh(one, uint(bound-1)))
		if err != nil {
			b.Fatal(err)
		}
		for _, path := range []struct {
			name string
			bits int
		}{{"crt", bits}, {"oneprime", bound}} {
			for _, body := range benchBodies(b, bits) {
				b.Run(fmt.Sprintf("K=%d/%s/%s", bits, path.name, body.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := body.sk.DecryptBelow(ct, path.bits); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkAblationCRTDecrypt compares CRT decryption against the
// textbook path (C2 decrypts constantly, so this is the single most
// profitable micro-optimization).
func BenchmarkAblationCRTDecrypt(b *testing.B) {
	sk := benchKey(b, 512)
	ct, err := sk.Encrypt(rand.Reader, big.NewInt(55))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("crt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sk.Decrypt(ct); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("textbook", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sk.decryptNoCRT(ct); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMontMul prices one product of the limb kernel, on each body,
// at the two widths each key size multiplies at: p² and q² (8 limbs at
// K = 512) and N² (16). A CRT nonce at K = 512 is about 2·127 of the
// former, a public one 255 of the latter.
func BenchmarkMontMul(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048} {
		for _, body := range benchBodies(b, bits) {
			for _, mm := range []*montMod{body.sk.p.square, body.sk.n2} {
				n := len(mm.m)
				b.Run(fmt.Sprintf("K=%d/%dlimbs/%s", bits, n, body.name), func(b *testing.B) {
					x, y := toLimbs(new(big.Int).Sub(mm.big, two), n), toLimbs(new(big.Int).Rsh(mm.big, 1), n)
					z, t := make([]uint64, n), make([]uint64, n+1)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						mm.mul(z, x, y, t)
					}
				})
			}
		}
	}
}

// BenchmarkNonce prices the one exponentiation an encryption costs, by
// who computes it and on each body of the product: a party holding only
// N pays "public" (one comb mod N²), a party holding sk — C2, and
// whoever encrypts through &sk.PublicKey — pays "private" (two CRT
// combs).
func BenchmarkNonce(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048} {
		for _, body := range benchBodies(b, bits) {
			for _, bc := range []struct {
				name string
				fn   func(io.Reader) (*Nonce, error)
			}{
				{"public", body.pub.drawNonce},
				{"private", body.sk.drawNonce},
			} {
				b.Run(fmt.Sprintf("K=%d/%s/%s", bits, bc.name, body.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						nc, err := bc.fn(rand.Reader)
						if err != nil {
							b.Fatal(err)
						}
						nc.Raise()
					}
				})
			}
		}
	}
}

func BenchmarkHomomorphicOps(b *testing.B) {
	sk := benchKey(b, 512)
	x, _ := sk.Encrypt(rand.Reader, big.NewInt(42))
	y, _ := sk.Encrypt(rand.Reader, big.NewInt(17))
	scalar := big.NewInt(999)
	b.Run("Add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sk.Add(x, y)
		}
	})
	b.Run("ScalarMul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sk.ScalarMul(x, scalar)
		}
	})
	b.Run("Neg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sk.Neg(x)
		}
	})
}

// BenchmarkMultiScalarMul prices one product Π bⱼ^eⱼ of m bases with
// 70-bit exponents — the width of SSED's unblinding exponents 2cⱼ at
// small attribute widths — on each body of the product, by the one
// multi-exponentiation ("straus") and by the loop of ScalarMul and Add
// it replaced ("loop"). m = 6 is the benchmark's record arity.
func BenchmarkMultiScalarMul(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048} {
		sk := benchKey(b, bits)
		for _, m := range []int{1, 2, 6} {
			bases := make([]*Ciphertext, m)
			exps := make([]*big.Int, m)
			for j := range bases {
				x, err := sk.Encrypt(rand.Reader, big.NewInt(int64(j)))
				if err != nil {
					b.Fatal(err)
				}
				bases[j], exps[j] = x, benchExponent(b, 70)
			}
			for _, body := range benchBodies(b, bits) {
				pk := &body.sk.PublicKey
				b.Run(fmt.Sprintf("K=%d/m=%d/straus/%s", bits, m, body.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						pk.MultiScalarMul(bases, exps)
					}
				})
				b.Run(fmt.Sprintf("K=%d/m=%d/loop/%s", bits, m, body.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						acc := pk.ScalarMul(bases[0], exps[0])
						for j := 1; j < m; j++ {
							acc = pk.Add(acc, pk.ScalarMul(bases[j], exps[j]))
						}
					}
				})
			}
		}
	}
}

// BenchmarkScalarMul prices one power E(a)^k on each body of the
// product: "short" is a 78-bit k, the width of the one-hot select's
// blinded bits, and "full" a k of N's length, a full-range blind.
func BenchmarkScalarMul(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048} {
		sk := benchKey(b, bits)
		a, err := sk.Encrypt(rand.Reader, big.NewInt(7))
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []struct {
			name string
			k    *big.Int
		}{{"short", benchExponent(b, 78)}, {"full", benchExponent(b, bits-1)}} {
			for _, body := range benchBodies(b, bits) {
				b.Run(fmt.Sprintf("K=%d/%s/%s", bits, k.name, body.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						body.sk.ScalarMul(a, k.k)
					}
				})
			}
		}
	}
}

// BenchmarkPackCiphertexts prices the Horner fold of a full group of
// 12-bit values (78-bit slots, the bit peel's remainder width at
// secure_scan's shape) on each body of the product.
func BenchmarkPackCiphertexts(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048} {
		sk := benchKey(b, bits)
		for _, body := range benchBodies(b, bits) {
			codec, err := NewPacking(&body.sk.PublicKey, 12)
			if err != nil {
				b.Fatal(err)
			}
			cts := make([]*Ciphertext, codec.Slots)
			for j := range cts {
				if cts[j], err = sk.Encrypt(rand.Reader, big.NewInt(int64(j))); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(fmt.Sprintf("K=%d/slots=%d/%s", bits, codec.Slots, body.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := codec.PackCiphertexts(cts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkInverse prices a group inversion mod N² two ways: "inv" is
// one Inv, a ModInverse; "invmany" is one InvMany batch of 12 — the
// subtrahends of secure_scan's first comparator layer, 4 pairs × (B, A,
// one record chunk) — reported per element (ns/elem): one ModInverse
// shared by the batch plus three products mod N² each.
func BenchmarkInverse(b *testing.B) {
	const batch = 12
	for _, bits := range []int{512, 1024, 2048} {
		sk := benchKey(b, bits)
		cts := make([]*Ciphertext, batch)
		for j := range cts {
			var err error
			if cts[j], err = sk.Encrypt(rand.Reader, big.NewInt(int64(j))); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("K=%d/inv", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sk.Inv(cts[i%batch])
			}
		})
		b.Run(fmt.Sprintf("K=%d/invmany", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sk.InvMany(cts)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/elem")
		})
	}
}

// benchExponent returns a random exponent of exactly bits bits.
func benchExponent(b *testing.B, bits int) *big.Int {
	e, err := rand.Int(rand.Reader, new(big.Int).Lsh(one, uint(bits)))
	if err != nil {
		b.Fatal(err)
	}
	return e.SetBit(e, bits-1, 1)
}

// benchBody is a benchmark key on one body of the Montgomery product,
// with a public-only key for its N on the same body.
type benchBody struct {
	name string
	sk   *PrivateKey
	pub  *PublicKey
}

var bodyKeys sync.Map // bits -> []benchBody

// benchBodies returns the bodies a kernel benchmark runs at bits, each
// a copy of the benchmark key: "generic", every modulus on the
// math/bits product, and — where the CPU has BMI2 and ADX — "adx", the
// key as built, which multiplies on the assembly wherever the limb
// count allows it.
func benchBodies(b *testing.B, bits int) []benchBody {
	if bodies, ok := bodyKeys.Load(bits); ok {
		return bodies.([]benchBody)
	}
	sk := benchKey(b, bits)
	var bodies []benchBody
	for _, name := range []string{"generic", "adx"} {
		if name == "adx" && !mulxAdx {
			continue
		}
		body, err := newPrivateKey(sk.p.prime, sk.q.prime)
		if err != nil {
			b.Fatal(err)
		}
		pub, err := NewPublicKey(sk.N)
		if err != nil {
			b.Fatal(err)
		}
		for _, mm := range []*montMod{body.n2, body.p.square, body.q.square, pub.n2} {
			mm.adx = mm.adx && name == "adx"
		}
		bodies = append(bodies, benchBody{name, body, pub})
	}
	bodyKeys.Store(bits, bodies)
	return bodies
}
