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

// BenchmarkFixedBaseExp measures the fixed-base window walk — the
// Montgomery REDC hot loop — against direct big.Int.Exp of the same
// base and exponent (the r^N cost the table replaces). The interesting
// delta over time is table vs itself across commits: the REDC walk
// removed the per-window division.
func BenchmarkFixedBaseExp(b *testing.B) {
	sk := benchKey(b, 512)
	pk := sk.PublicKey // copy: the table stays off the shared bench key
	if err := pk.EnableFixedBase(rand.Reader); err != nil {
		b.Fatal(err)
	}
	exps := make([]*big.Int, 64)
	for i := range exps {
		e, err := rand.Int(rand.Reader, pk.N)
		if err != nil {
			b.Fatal(err)
		}
		exps[i] = e
	}
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := pk.fb.tab.Exp(exps[i%len(exps)]); !ok {
				b.Fatal("exponent out of range")
			}
		}
	})
	b.Run("bigint", func(b *testing.B) {
		hN := pk.fb.hN
		for i := 0; i < b.N; i++ {
			new(big.Int).Exp(hN, exps[i%len(exps)], pk.NSquared)
		}
	})
}

// BenchmarkNoncePower prices the one exponentiation an encryption
// costs, by who computes it and whether tables were built: a party
// without sk pays "public" (r^N mod N²) or "public-tables"; C2 pays
// "private" in a daemon that built no tables and "private-tables" in
// the facade. K = 512, the benchmark's key size.
func BenchmarkNoncePower(b *testing.B) {
	plain := benchKey(b, 512)
	p, q := plain.Factors()
	tabled := newPrivateKey(p, q)
	if err := tabled.EnableFixedBase(rand.Reader); err != nil {
		b.Fatal(err)
	}
	pubTabled := plain.PublicKey // copy: the table stays off the shared bench key
	if err := pubTabled.EnableFixedBase(rand.Reader); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		fn   func(io.Reader) (*Nonce, error)
	}{
		{"public", plain.PublicKey.drawNonce},
		{"public-tables", pubTabled.drawNonce},
		{"private", plain.drawNonce},
		{"private-tables", tabled.drawNonce},
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
