package smc

import (
	"fmt"
	"testing"

	"sknn/internal/paillier"
	"sknn/internal/testkit"
)

// Benchmarks for the primitive layer, including two DESIGN.md §5
// ablations: message batching (one frame per round vs one frame per
// element) and the SBD verification pass.

// benchPair wires a requester/responder for benchmarks (same shape as
// pair(t), reusing the TB-generic helpers from testkit_test.go).
func benchPair(b *testing.B) (*Requester, *paillier.PrivateKey) {
	return pair(b)
}

// pair is declared in testkit_test.go with a testing.TB parameter, so it
// serves both tests and benchmarks.

func BenchmarkSM(b *testing.B) {
	rq, sk := benchPair(b)
	x := enc(b, sk, 59)
	y := enc(b, sk, 58)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rq.SM(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBatchVsScalarSM compares 64 multiplications done as
// one batched frame vs 64 sequential scalar rounds.
func BenchmarkAblationBatchVsScalarSM(b *testing.B) {
	const width = 64
	rq, sk := benchPair(b)
	xs := make([]*paillier.Ciphertext, width)
	ys := make([]*paillier.Ciphertext, width)
	for i := range xs {
		xs[i] = enc(b, sk, int64(i))
		ys[i] = enc(b, sk, int64(i+1))
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rq.SMBatch(xs, ys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < width; j++ {
				if _, err := rq.SM(xs[j], ys[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkSSED(b *testing.B) {
	for _, m := range []int{6, 18} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			rq, sk := benchPair(b)
			x := make([]*paillier.Ciphertext, m)
			y := make([]*paillier.Ciphertext, m)
			for i := 0; i < m; i++ {
				x[i] = enc(b, sk, int64(i*3))
				y[i] = enc(b, sk, int64(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rq.SSED(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSBD(b *testing.B) {
	for _, l := range []int{6, 12} {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			rq, sk := benchPair(b)
			z := enc(b, sk, 55)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rq.SBD(z, l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSBDVerify isolates the cost of the verification pass
// by comparing the full verified decomposition against the raw
// decomposition rounds alone.
func BenchmarkAblationSBDVerify(b *testing.B) {
	const l = 8
	rq, sk := benchPair(b)
	z := enc(b, sk, 200)
	zs := []*paillier.Ciphertext{z}
	b.Run("verified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rq.SBDBatch(zs, l); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unverified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rq.sbdOnce(zs, l); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSMIN(b *testing.B) {
	for _, l := range []int{6, 12} {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			rq, sk := benchPair(b)
			u := encBits(b, sk, 21, l)
			v := encBits(b, sk, 44, l)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rq.SMIN(u, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSBORBatch(b *testing.B) {
	const width = 32
	rq, sk := benchPair(b)
	xs := make([]*paillier.Ciphertext, width)
	ys := make([]*paillier.Ciphertext, width)
	for i := range xs {
		xs[i] = enc(b, sk, int64(i%2))
		ys[i] = enc(b, sk, int64((i/2)%2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rq.SBORBatch(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMSBOncePacked times one bit peel of the value-domain SMIN —
// L rounds against a C2 that built no tables, as a daemon's does — at
// the benchmark's shape: K = 512, L = 13 (l = 12 distance bits), and the
// pair counts of a 32-record tournament's third and first levels.
func BenchmarkMSBOncePacked(b *testing.B) {
	const L = 13
	sk := testkit.Key(512)
	for _, pairs := range []int{4, 16} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
			rq := pairOn(b, sk)
			codec, err := rq.packCodec(L)
			if err != nil {
				b.Fatal(err)
			}
			zs := make([]*paillier.Ciphertext, pairs)
			for i := range zs {
				zs[i] = enc(b, sk, int64(1<<(L-1)+37*i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rq.msbOncePacked(zs, L, codec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
