package smc

import (
	"fmt"
	mrand "math/rand"
	"runtime"
	"testing"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// TestFramesDeterministicAcrossGOMAXPROCS: the in-party fan-out
// (paillier.ForEach) draws all randomness serially before it spreads
// the exponentiations, so with the same deterministic readers on both
// parties a kernel puts byte-identical frames on the wire — uplink and
// downlink — whether it runs inline (GOMAXPROCS=1, no helper) or across
// four cores. Batches are sized past one slot group so the fan-out has
// something to share out.
func TestFramesDeterministicAcrossGOMAXPROCS(t *testing.T) {
	sk := testKey()
	const l = 12
	const n = 11 // several slot groups at a 256-bit key, last one short
	as := make([]*paillier.Ciphertext, n)
	bs := make([]*paillier.Ciphertext, n)
	pairs := make([]SMINValuePair, n)
	for i := range as {
		as[i] = enc(t, sk, int64(37*i+5)%(1<<l))
		bs[i] = enc(t, sk, int64(101*i+9)%(1<<l))
		pairs[i] = SMINValuePair{A: as[i], B: bs[i]}
	}
	q := encVec(t, sk, 3, 14, 7, 0, 9)
	rows := make([][]*paillier.Ciphertext, 6)
	for i := range rows {
		rows[i] = encVec(t, sk, int64(i), 15, int64(2*i), 1, int64(15-i))
	}
	packed := packRows(t, &sk.PublicKey, 4, rows)

	kernels := []struct {
		name string
		run  func(rq *Requester) ([]*paillier.Ciphertext, error)
	}{
		{"SMBatchBounded", func(rq *Requester) ([]*paillier.Ciphertext, error) {
			return rq.SMBatchBounded(as, bs, l, l)
		}},
		{"SSEDManyPacked", func(rq *Requester) ([]*paillier.Ciphertext, error) {
			return rq.SSEDManyPacked(q, rows, packed)
		}},
		{"SMINValuePairsBatch", func(rq *Requester) ([]*paillier.Ciphertext, error) {
			return rq.SMINValuePairsBatch(pairs, l)
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
