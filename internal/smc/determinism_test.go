package smc

import (
	"fmt"
	mrand "math/rand"
	"runtime"
	"testing"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/testkit"
)

// TestFramesDeterministicAcrossGOMAXPROCS: the in-party fan-out
// (paillier.ForEach) draws all randomness serially before it spreads
// the exponentiations, so with the same deterministic readers on both
// parties a kernel puts byte-identical frames on the wire — uplink and
// downlink — whether it runs inline (GOMAXPROCS=1, no helper) or across
// four cores. Batches are sized past one slot group so the fan-out has
// something to share out. The kernels between them reach every smc
// handler behind C2's door (Responder.Decrypt): packed SSED, the bit
// peel, and the paper's SM, SBD's two rounds and SMIN.
func TestFramesDeterministicAcrossGOMAXPROCS(t *testing.T) {
	// Several slot groups at a 256-bit key, the last one short; five
	// attributes per record.
	checkFramesDeterministic(t, testKey(), 11, 5)
}

// TestFramesDeterministicOnePrime is the same check at K = 512, sized so
// that C2 decrypts some groups under one 256-bit prime factor — the
// peel's last group of one 78-bit slot, every record's two 70-bit SSED
// slots — and the rest through the CRT.
func TestFramesDeterministicOnePrime(t *testing.T) {
	onePrime, _ := paillier.DecryptCalls()
	checkFramesDeterministic(t, testkit.Key(512), 13, 2)
	if after, _ := paillier.DecryptCalls(); after == onePrime {
		t.Fatal("no group was decrypted under one prime")
	}
}

// checkFramesDeterministic runs each kernel over n value pairs and rows
// of m ≤ 5 attributes at GOMAXPROCS 1 and 4 and compares the
// transcripts.
func checkFramesDeterministic(t *testing.T, sk *paillier.PrivateKey, n, m int) {
	const l = 12
	as := make([]*paillier.Ciphertext, n)
	bs := make([]*paillier.Ciphertext, n)
	pairs := make([]SMINValuePair, n)
	for i := range as {
		as[i] = enc(t, sk, int64(37*i+5)%(1<<l))
		bs[i] = enc(t, sk, int64(101*i+9)%(1<<l))
		// Each comparator carries a two-chunk record, as the engine's do.
		pairs[i] = SMINValuePair{A: as[i], B: bs[i],
			RecA: encVec(t, sk, int64(i), 255), RecB: encVec(t, sk, 255-int64(i), 0)}
	}
	q := encVec(t, sk, []int64{3, 14, 7, 0, 9}[:m]...)
	rows := make([][]*paillier.Ciphertext, 6)
	for i := range rows {
		rows[i] = encVec(t, sk, []int64{int64(i), 15, int64(2 * i), 1, int64(15 - i)}[:m]...)
	}
	packed := packRows(t, &sk.PublicKey, 4, rows)
	// The paper's primitives: two l-bit vectors for SMIN, n bit pairs
	// for SBOR.
	u, v := encBits(t, sk, 0xa5c, l), encBits(t, sk, 0x5a3, l)
	o1s, o2s := make([]*paillier.Ciphertext, n), make([]*paillier.Ciphertext, n)
	for i := range o1s {
		o1s[i], o2s[i] = enc(t, sk, int64(i%2)), enc(t, sk, int64(i/2%2))
	}

	kernels := []struct {
		name string
		run  func(rq *Requester) ([]*paillier.Ciphertext, error)
	}{
		{"SSEDManyPacked", func(rq *Requester) ([]*paillier.Ciphertext, error) {
			return rq.SSEDManyPacked(q, rows, packed)
		}},
		{"SMINValuePairsBatch", func(rq *Requester) ([]*paillier.Ciphertext, error) {
			mins, recs, err := rq.SMINValuePairsBatch(pairs, l, 8)
			for _, rec := range recs {
				mins = append(mins, rec...)
			}
			return mins, err
		}},
		{"SMBatch", func(rq *Requester) ([]*paillier.Ciphertext, error) {
			return rq.SMBatch(as, bs)
		}},
		{"SBDBatch", func(rq *Requester) ([]*paillier.Ciphertext, error) {
			bits, err := rq.SBDBatch(as, l)
			var out []*paillier.Ciphertext
			for _, b := range bits {
				out = append(out, b...)
			}
			return out, err
		}},
		{"SMIN", func(rq *Requester) ([]*paillier.Ciphertext, error) {
			return rq.SMIN(u, v)
		}},
		{"SBORBatch", func(rq *Requester) ([]*paillier.Ciphertext, error) {
			return rq.SBORBatch(o1s, o2s)
		}},
	}
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			// transcript runs the kernel at the given GOMAXPROCS under
			// freshly seeded readers and returns every frame C1 sent and
			// received, plus the kernel's output.
			transcript := func(procs int) []string {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				rq := servedBy(t, sk, NewResponder(sk, mrand.New(mrand.NewSource(2))).Mux())
				rq.rand = mrand.New(mrand.NewSource(1))
				var frames []string
				rq.conn = mpc.Tap(rq.conn, func(dir mpc.Direction, m *mpc.Message) {
					frames = append(frames, fmt.Sprintf("%s op=%d %x", dir, m.Op, m.Ints))
				})
				out, err := k.run(rq)
				if err != nil {
					t.Fatal(err)
				}
				for _, ct := range out {
					frames = append(frames, fmt.Sprintf("out %x", ct.Raw()))
				}
				return frames
			}
			inline, fanned := transcript(1), transcript(4)
			if len(inline) < 2 || len(inline) != len(fanned) {
				t.Fatalf("%d frames at GOMAXPROCS=1, %d at 4", len(inline), len(fanned))
			}
			for i := range inline {
				if inline[i] != fanned[i] {
					t.Fatalf("frame %d differs between GOMAXPROCS 1 and 4:\n%.120s…\n%.120s…", i, inline[i], fanned[i])
				}
			}
		})
	}
}
