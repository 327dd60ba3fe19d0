package core

import (
	"context"
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/smc"
	"sknn/internal/testkit"
)

// predict is PredictCost, failing the test on error.
func predict(t *testing.T, shape dataset.Shape, keyBits, n, k, shards, links int) *QueryCost {
	t.Helper()
	c, err := PredictCost(shape, keyBits, n, k, shards, links)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// meter reads what the cost model predicts off C1's ends of the links:
// every frame C1 sends and its integers by opcode, the gates — the count
// of every peel frame's output round — and C2's reply encryptions, every
// element of an SSED or peel reply.
type meter struct {
	mu              sync.Mutex
	uplink          map[mpc.Op]Traffic
	gates, encrypts int
}

func (mt *meter) tap(conn mpc.Conn) mpc.Conn {
	return mpc.Tap(conn, func(dir mpc.Direction, msg *mpc.Message) {
		mt.mu.Lock()
		defer mt.mu.Unlock()
		switch {
		case dir == mpc.DirSend:
			up := mt.uplink[msg.Op]
			mt.uplink[msg.Op] = Traffic{Frames: up.Frames + 1, Ints: up.Ints + len(msg.Ints)}
			if msg.Op == smc.OpSBDPackBit && msg.Ints[2].Int64() == msg.Ints[1].Int64()-1 {
				mt.gates += int(msg.Ints[0].Int64())
			}
		case msg.Op == smc.OpSSEDPack || msg.Op == smc.OpSBDPackBit:
			mt.encrypts += len(msg.Ints)
		}
	})
}

// measure runs one query on e and returns what it cost, field for field
// as PredictCost reports it: rounds off the query's metrics and every
// pool's counters, SMINCount off the metrics, C2's decryptions off
// paillier.DecryptCalls, and the rest off mt. Nothing else may decrypt
// meanwhile.
func measure(t *testing.T, e *Engine, mt *meter, query func() *SecureMetrics) Cost {
	t.Helper()
	mt.mu.Lock()
	mt.uplink, mt.gates, mt.encrypts = map[mpc.Op]Traffic{}, 0, 0
	mt.mu.Unlock()
	shards := make([]mpc.StatsSnapshot, len(e.Workers))
	for i, w := range e.Workers {
		shards[i] = w.CommStats()
	}
	coord := e.ShardedC1.CommStats()
	onePrime0, crt0 := paillier.DecryptCalls()
	metrics := query()
	onePrime1, crt1 := paillier.DecryptCalls()
	c := Cost{
		Rounds:      int(metrics.Comm.Rounds),
		MergeRounds: int(e.ShardedC1.CommStats().Sub(coord).Rounds),
		SMINCount:   metrics.SMINCount,
		OnePrime:    int(onePrime1 - onePrime0),
		CRT:         int(crt1 - crt0),
	}
	for i, w := range e.Workers {
		c.ShardRounds = append(c.ShardRounds, int(w.CommStats().Sub(shards[i]).Rounds))
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	c.Gates, c.Encrypts, c.Uplink = mt.gates, mt.encrypts, mt.uplink
	return c
}

// costEngine outsources tbl's rows under sk at its width with featureM
// feature columns to an engine of shards workers, every pool links
// links tapped by mt and served by one C2.
func costEngine(t *testing.T, sk *paillier.PrivateKey, tbl *dataset.Table, featureM, shards, links int, mt *meter) *Engine {
	t.Helper()
	enc := encryptDataset(t, sk, tbl)
	enc, err := enc.WithFeatureColumns(featureM)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCloudC2(sk, nil)
	return newEngine(t, enc, shards, func() []mpc.Conn {
		conns := make([]mpc.Conn, links)
		for i := range conns {
			conns[i] = mt.tap(pipeTo(t, c2))
		}
		return conns
	})
}

// TestCostModelMatchesEngine draws small tables at random — n ≤ 12,
// k ≤ n, m ≤ 4 columns of which the first 1 … m are features, b ≤ 5,
// S ≤ 3 shards of 1 or 2 links, K ∈ {256, 512} (only 512 packs groups
// short enough for one prime) — runs both protocols through NewEngine,
// and requires PredictCost to equal every counted field. Three fixed
// draws come first: a two-column SSED group at b = 1 declares 2·67 = 134
// bits, which is OnePrimeBits(398) exactly and one bit past
// OnePrimeBits(396), so the one-prime bound is checked on its edge from
// both sides; and sixteen 5-bit columns at K = 256 ride as two row
// chunks, where every drawn record is one.
func TestCostModelMatchesEngine(t *testing.T) {
	type draw struct{ n, k, m, featureM, b, shards, links, keyBits int }
	draws := []draw{
		{n: 3, k: 1, m: 2, featureM: 2, b: 1, shards: 1, links: 1, keyBits: 398},
		{n: 3, k: 1, m: 2, featureM: 2, b: 1, shards: 1, links: 1, keyBits: 396},
		{n: 5, k: 2, m: 16, featureM: 2, b: 5, shards: 2, links: 2, keyBits: 256},
	}
	rng := mrand.New(mrand.NewSource(52))
	for len(draws) < 27 {
		n := 1 + rng.Intn(12)
		m := 1 + rng.Intn(4)
		draws = append(draws, draw{n: n, k: 1 + rng.Intn(n), m: m, featureM: 1 + rng.Intn(m), b: 1 + rng.Intn(5),
			shards: 1 + rng.Intn(min(3, n)), links: 1 + rng.Intn(2), keyBits: 256 << rng.Intn(2)})
	}
	for i, d := range draws {
		name := fmt.Sprintf("n=%d,k=%d,m=%d,f=%d,b=%d,S=%d,links=%d,K=%d", d.n, d.k, d.m, d.featureM, d.b, d.shards, d.links, d.keyBits)
		t.Run(name, func(t *testing.T) {
			tbl, err := dataset.Generate(int64(900+i), d.n, d.m, d.b)
			if err != nil {
				t.Fatal(err)
			}
			q, err := dataset.GenerateQuery(int64(950+i), d.featureM, d.b)
			if err != nil {
				t.Fatal(err)
			}
			sk := testkit.Key(d.keyBits)
			mt := &meter{uplink: map[mpc.Op]Traffic{}}
			e := costEngine(t, sk, tbl, d.featureM, d.shards, d.links, mt)
			bob := NewClient(&sk.PublicKey, nil)
			eq, err := bob.EncryptQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			want := predict(t, e.Shape(), d.keyBits, d.n, d.k, d.shards, d.links)
			for _, mode := range []struct {
				name string
				run  func(context.Context, EncryptedQuery, int) (*MaskedResult, *SecureMetrics, error)
				want Cost
			}{
				{"SkNNm", func(ctx context.Context, q EncryptedQuery, k int) (*MaskedResult, *SecureMetrics, error) {
					return e.SecureQuery(ctx, q, k, 0)
				}, want.Secure},
				{"SkNNb", e.BasicQuery, want.Basic},
			} {
				got := measure(t, e, mt, func() *SecureMetrics {
					res, metrics, err := mode.run(context.Background(), eq, d.k)
					if err != nil {
						t.Fatal(err)
					}
					if res.K != d.k {
						t.Fatalf("%s revealed %d records, want %d", mode.name, res.K, d.k)
					}
					return metrics
				})
				if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", mode.want); g != w {
					t.Errorf("%s counted\n%s\nmodel says\n%s", mode.name, g, w)
				}
			}
		})
	}
}

// TestCostAtPaperPoint prices the paper's SkNNm point, n = 2000, k = 25,
// m = 6, b = 4 (so l = 11), on one link, before any run reaches it. The
// network is 51 layers (15 sort the 32-wire chunks, six merge levels take
// six each, where k rounds of an ⌈log₂ n⌉-level tournament took 275) of
// 21 920 gates, so 1 SSED + 51·12 + 1 reveal = 614 round trips at every
// key size. C2 encrypts the 2000 distances and 14 replies per gate, and
// how it decrypts follows the key: at K = 512 a peel group of six 78-bit
// slots goes through the CRT and only a layer's last, short group fits
// one prime; at K = 2048 groups hold 26 slots and those of at most 12 fit.
// Beside it, secure_scan's shape (n = 8) and a gateway shard's (n = 4),
// both at k = 2: 12 and 4 gates.
func TestCostAtPaperPoint(t *testing.T) {
	if got := len(topKNetwork(2000, 25)); got != 51 || networkDepth(2000, 25) != 51 {
		t.Errorf("D(2000, 25) = %d layers (formula %d), want 51", got, networkDepth(2000, 25))
	}
	shape := dataset.Shape{M: 6, FeatureM: 6, AttrBits: 4}
	for _, tc := range []struct {
		n, k, keyBits                          int
		gates, rounds, encrypts, onePrime, crt int
	}{
		{2000, 25, 512, 21920, 614, 308880, 191, 54721},
		{2000, 25, 2048, 21920, 614, 308880, 2427, 12038},
		{8, 2, 512, 12, 50, 176, 24, 40},
		{4, 2, 512, 4, 26, 60, 24, 8},
	} {
		c := predict(t, shape, tc.keyBits, tc.n, tc.k, 1, 1).Secure
		got := [5]int{c.Gates, c.Rounds, c.Encrypts, c.OnePrime, c.CRT}
		if want := [5]int{tc.gates, tc.rounds, tc.encrypts, tc.onePrime, tc.crt}; got != want {
			t.Errorf("n=%d, k=%d, K=%d: gates, rounds, reply encryptions, one-prime and CRT decryptions %v, want %v",
				tc.n, tc.k, tc.keyBits, got, want)
		}
	}
}
