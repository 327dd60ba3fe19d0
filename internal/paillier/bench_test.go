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
// choice from DESIGN.md §5.

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

func BenchmarkDecrypt(b *testing.B) {
	for _, bits := range []int{512, 1024} {
		b.Run(fmt.Sprintf("K=%d", bits), func(b *testing.B) {
			sk := benchKey(b, bits)
			ct, err := sk.Encrypt(rand.Reader, big.NewInt(987654))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sk.Decrypt(ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCRTDecrypt compares CRT decryption against the
// textbook path (DESIGN.md §5: C2 decrypts constantly, so this is the
// single most profitable micro-optimization).
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

// BenchmarkMontMul prices one product of the limb kernel at the two
// widths a 512-bit key multiplies at: 8 limbs (mod p², q²) and 16 (mod
// N²). A CRT nonce is about 2·127 of the former, a public one 255 of the
// latter.
func BenchmarkMontMul(b *testing.B) {
	sk := benchKey(b, 512)
	for _, mod := range []*big.Int{sk.pSquared, sk.NSquared} {
		mm := newMontMod(mod)
		n := len(mm.m)
		b.Run(fmt.Sprintf("%dlimbs", n), func(b *testing.B) {
			x, y := toLimbs(new(big.Int).Sub(mod, two), n), toLimbs(new(big.Int).Rsh(mod, 1), n)
			z, t := make([]uint64, n), make([]uint64, n+1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mm.mul(z, x, y, t)
			}
		})
	}
}

// BenchmarkNonce prices the one exponentiation an encryption costs, by
// who computes it: a party holding only N pays "public" (one comb mod
// N²), a party holding sk — C2, and whoever encrypts through
// &sk.PublicKey — pays "private" (two CRT combs). K = 512, the
// benchmark's key size.
func BenchmarkNonce(b *testing.B) {
	sk := benchKey(b, 512)
	pub, err := NewPublicKey(sk.N)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		fn   func(io.Reader) (*Nonce, error)
	}{
		{"public", pub.drawNonce},
		{"private", sk.drawNonce},
	} {
		b.Run(bc.name, func(b *testing.B) {
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
