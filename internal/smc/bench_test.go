package smc

import (
	"fmt"
	"testing"

	"sknn/internal/paillier"
	"sknn/internal/testkit"
)

// Benchmarks for the primitive layer, including two ablations: message
// batching (one frame per round vs one frame per element) and the SBD
// verification pass.

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
// L rounds, the last carrying one select operand per value, against a
// C2 whose key has its nonce comb (every key does) and whose reply
// nonces come from its reserve, raised between rounds as a daemon's are
// — at the benchmark's shape: K = 512, L = 12 (l = 11 distance bits),
// and the pair counts of a 32-record tournament's third and first
// levels. Most of a peel's wall clock is C2's handler, so this is the
// layer number behind C2's off-path nonce raising. It reports C1's group
// inversions per peel (paillier.InverseCalls), which must read 0: each
// peeled bit stays C2's reply bit, so no round inverts.
func BenchmarkMSBOncePacked(b *testing.B) {
	const L = 12
	sk := testkit.Key(512)
	for _, pairs := range []int{4, 16} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
			rq := pairOn(b, sk)
			codec, err := rq.packCodec(L)
			if err != nil {
				b.Fatal(err)
			}
			zs := make([]*paillier.Ciphertext, pairs)
			xs := make([][]*paillier.Ciphertext, pairs)
			for i := range zs {
				zs[i] = enc(b, sk, int64(1<<(L-1)+37*i))
				xs[i] = zs[i : i+1]
			}
			b.ResetTimer()
			before := paillier.InverseCalls()
			for i := 0; i < b.N; i++ {
				if _, err := rq.msbOncePacked(zs, xs, L, L, codec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(paillier.InverseCalls()-before)/float64(b.N), "inversions/op")
		})
	}
}

// BenchmarkSMINValuePairsBatch times one comparator layer the way the
// engine runs it — the subtractions' batch inversion, the l + 1 peel
// rounds with the output round's operand fold beside them, and the
// select — at secure_scan's first layer: 4 pairs, each riding one
// 24-bit record chunk (6 columns of 4 bits), K = 512, l = 11. Beside
// BenchmarkMSBOncePacked it prices what C1 adds around the peel.
func BenchmarkSMINValuePairsBatch(b *testing.B) {
	const l, recBits, pairs = 11, 24, 4
	sk := testkit.Key(512)
	rq := pairOn(b, sk)
	batch := make([]SMINValuePair, pairs)
	for i := range batch {
		batch[i] = SMINValuePair{
			A: enc(b, sk, int64(300+97*i)), B: enc(b, sk, int64(1500-211*i)),
			RecA: encVec(b, sk, int64(0xabcdef-i)), RecB: encVec(b, sk, int64(0x123456+i)),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rq.SMINValuePairsBatch(batch, l, recBits); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSEDManyPacked times one packed SSED scan — the uplink, C2's
// decryptions and reply encryptions, and C1's unblinding, one
// multi-exponentiation per record — against an in-process C2 at the
// benchmark's two shapes: basic_tcp's n = 32 records of m = 6 8-bit
// attributes and secure_scan's n = 8 of m = 6 4-bit ones, K = 512.
func BenchmarkSSEDManyPacked(b *testing.B) {
	sk := testkit.Key(512)
	for _, shape := range []struct{ n, m, bits int }{{32, 6, 8}, {8, 6, 4}} {
		b.Run(fmt.Sprintf("n=%d,m=%d,b=%d", shape.n, shape.m, shape.bits), func(b *testing.B) {
			rq := pairOn(b, sk)
			q := make([]*paillier.Ciphertext, shape.m)
			for j := range q {
				q[j] = enc(b, sk, int64(j*5)%(1<<shape.bits))
			}
			rows := make([][]*paillier.Ciphertext, shape.n)
			for i := range rows {
				rows[i] = make([]*paillier.Ciphertext, shape.m)
				for j := range rows[i] {
					rows[i][j] = enc(b, sk, int64(i*7+j*3)%(1<<shape.bits))
				}
			}
			packed := packRows(b, &sk.PublicKey, shape.bits, rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rq.SSEDManyPacked(q, rows, packed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
