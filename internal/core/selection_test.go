package core

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"sync/atomic"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/smc"
	"sknn/internal/testkit"
)

// TestSelectionCostModel holds a one-link full scan to the cost model
// over a grid of n, k and l: the round trips and SMINCount PredictCost
// gives, and the plaintext oracle's answer. l is the table's, so the
// grid sweeps it through the shape: DomainBits(2, 4) = 6 and
// DomainBits(5, 4) = 12.
func TestSelectionCostModel(t *testing.T) {
	for _, attrBits := range []int{2, 5} {
		for _, n := range []int{2, 3, 5, 8, 9} {
			tbl, err := dataset.Generate(int64(700+n), n, 4, attrBits)
			if err != nil {
				t.Fatal(err)
			}
			c1, bob := newSystem(t, tbl, 1)
			l := c1.Shape().DomainBits()
			keyBits := testKey().Bits()
			q := []uint64{1, 2, 0, 3}
			eq, err := bob.EncryptQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 3, n} {
				if k > n || (k == n && k <= 3) {
					continue
				}
				t.Run(fmt.Sprintf("n=%d/k=%d/l=%d", n, k, l), func(t *testing.T) {
					res, metrics, err := c1.SecureQuery(context.Background(), eq, k, 0)
					if err != nil {
						t.Fatal(err)
					}
					rows, err := bob.Unmask(res)
					if err != nil {
						t.Fatal(err)
					}
					assertMatchesOracle(t, tbl, q, k, rows)
					want := predict(t, c1.Shape(), keyBits, n, k, 1, 1).Secure
					if metrics.Comm.Rounds != int64(want.Rounds) {
						t.Errorf("%d round trips, cost model says %d", metrics.Comm.Rounds, want.Rounds)
					}
					if metrics.SMINCount != want.SMINCount {
						t.Errorf("SMINCount = %d, cost model says %d", metrics.SMINCount, want.SMINCount)
					}
				})
			}
		}
	}
}

// TestReplyEncryptionsPerScan holds C2's encryption work per SkNNm scan
// on one link, counted by a handler wrapper, to the cost model: one SSED
// distance per record, then per gate one bit in each of the peel's l + 1
// rounds and per = 1 + chunks products in the output round — the gap and
// the record chunks. The reveal answers plaintexts. At secure_scan's
// shape (n = 8, m = 6, b = 4, k = 2) l = 11 and a record is one chunk:
// 8 + 12·14 = 176. At b = 1 the same n and m give l = 3, and at m = 3
// l = 2, where the farthest record sits at 2^l − 1.
func TestReplyEncryptionsPerScan(t *testing.T) {
	const n, k = 8, 2
	for _, shape := range []struct {
		m, attrBits int
		q           []uint64
		l, want     int // pinned at secure_scan's shape only
	}{
		{6, 4, []uint64{3, 9, 0, 15, 7, 1}, 11, 176},
		{6, 1, []uint64{1, 1, 1, 1, 1, 1}, 0, 0},
		{3, 1, []uint64{1, 1, 1}, 0, 0},
	} {
		m, attrBits := shape.m, shape.attrBits
		t.Run(fmt.Sprintf("m=%d,b=%d", m, attrBits), func(t *testing.T) {
			tbl, err := dataset.Generate(808, n, m, attrBits)
			if err != nil {
				t.Fatal(err)
			}
			if attrBits == 1 {
				tbl.Rows[0] = make([]uint64, m) // the far corner from the all-ones query
			}
			sk := testKey()
			encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
			if err == nil {
				encTable, err = encTable.WithAttrBits(attrBits)
			}
			if err != nil {
				t.Fatal(err)
			}
			mux := NewCloudC2(sk, nil).Mux()
			var encrypted atomic.Int64
			counting := mpc.HandlerFunc(func(req *mpc.Message) (*mpc.Message, error) {
				resp, err := mux.Handle(req)
				if err == nil && (req.Op == smc.OpSSEDPack || req.Op == smc.OpSBDPackBit) {
					encrypted.Add(int64(len(resp.Ints)))
				}
				return resp, err
			})
			engine := newEngine(t, encTable, 1, func() []mpc.Conn {
				return []mpc.Conn{pipeServedBy(t, func(c mpc.Conn) error { return mpc.Serve(c, counting) })}
			})
			rows := runSecure(t, engine, NewClient(&sk.PublicKey, nil), shape.q, k)
			assertMatchesOracle(t, tbl, shape.q, k, rows)

			l := engine.Shape().DomainBits()
			want := predict(t, engine.Shape(), sk.Bits(), n, k, 1, 1).Secure.Encrypts
			if got := encrypted.Load(); got != int64(want) {
				t.Errorf("C2 encrypted %d replies, cost model says %d", got, want)
			}
			if shape.want != 0 && (l != shape.l || want != shape.want) {
				t.Errorf("secure_scan's shape: l = %d, %d reply encryptions; want %d, %d", l, want, shape.l, shape.want)
			}
		})
	}
}

// TestOnePrimeDecryptionsPerScan pins how C2 decrypts one SkNNm query
// at K = 512, counted from the frames it receives: each slot group of a
// packed frame and each element of the reveal is one decryption, and a
// group whose declared width count·Width is at most bitlen(s) − 65, s
// the smaller prime factor, decrypts under s alone; paillier.DecryptCalls
// and the cost model must agree by path. At secure_scan's shape (n = 8,
// m = 6, b = 4, k = 2) the 8 SSED groups (6 × 70 bits), the peel's full
// groups and the 2 reveals take the CRT; 24 of 64 take one prime. Over
// two shards, gateway_sharded's topology, the shard and merge networks
// are narrower: 72 of 88.
func TestOnePrimeDecryptionsPerScan(t *testing.T) {
	const n, m, attrBits, k = 8, 6, 4, 2
	sk := testkit.Key(512)
	tbl, err := dataset.Generate(808, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	q := []uint64{3, 9, 0, 15, 7, 1}
	for _, shape := range []struct{ shards, onePrime, total int }{{1, 24, 64}, {2, 72, 88}} {
		t.Run(fmt.Sprintf("shards=%d", shape.shards), func(t *testing.T) {
			mux := NewCloudC2(sk, nil).Mux()
			var total, onePrime atomic.Int64
			counting := mpc.HandlerFunc(func(req *mpc.Message) (*mpc.Message, error) {
				d, o := frameDecryptions(t, sk, req)
				total.Add(int64(d))
				onePrime.Add(int64(o))
				return mux.Handle(req)
			})
			engine := newEngine(t, encryptDataset(t, sk, tbl), shape.shards, func() []mpc.Conn {
				return []mpc.Conn{pipeServedBy(t, func(c mpc.Conn) error { return mpc.Serve(c, counting) })}
			})
			onePrime0, crt0 := paillier.DecryptCalls()
			rows := runSecure(t, engine, NewClient(&sk.PublicKey, nil), q, k)
			onePrime1, crt1 := paillier.DecryptCalls()
			assertMatchesOracle(t, tbl, q, k, rows)
			d, o := total.Load(), onePrime.Load()
			if d != int64(shape.total) || o != int64(shape.onePrime) {
				t.Errorf("C2's frames ask for %d decryptions, %d of them one-prime; want %d, %d", d, o, shape.total, shape.onePrime)
			}
			if gotO, gotC := onePrime1-onePrime0, crt1-crt0; gotO != uint64(o) || gotC != uint64(d-o) {
				t.Errorf("C2 decrypted %d under one prime and %d through the CRT; its frames say %d and %d", gotO, gotC, o, d-o)
			}
			want := predict(t, engine.Shape(), sk.Bits(), n, k, shape.shards, 1).Secure
			if int64(want.OnePrime) != o || int64(want.OnePrime+want.CRT) != d {
				t.Errorf("the cost model says %d decryptions, %d of them one-prime; C2's frames ask for %d, %d",
					want.OnePrime+want.CRT, want.OnePrime, d, o)
			}
		})
	}
}

// TestInversionsPerScan pins C1's group inversions mod N² per SkNNm
// query at secure_scan's shape (n = 8, m = 6, b = 4, k = 2, K = 512),
// over one and two shards, on the golden transcript's engine and key.
// The bit peel inverts nothing — each peeled bit stays C2's own reply
// bit — so what remains is InvMany batches: per comparator batch one
// for its subtractions and one for its select, per layer one for the
// maxima. Clearing every peeled bit to zero, one Inv per peeling round
// for each slot group holding an even-blind slot, the same queries took
// 50 and 71; subtracting ciphertext by ciphertext besides, 92 and 110.
func TestInversionsPerScan(t *testing.T) {
	p, _ := new(big.Int).SetString(goldenP, 16)
	q, _ := new(big.Int).SetString(goldenQ, 16)
	sk, err := paillier.NewPrivateKey(p, q)
	if err != nil {
		t.Fatal(err)
	}
	const n, m, attrBits, k = 8, 6, 4, 2
	data, err := dataset.Generate(1, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	query, err := dataset.GenerateQuery(2, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct{ shards, want int }{{1, 12}, {2, 19}} {
		t.Run(fmt.Sprintf("shards=%d", shape.shards), func(t *testing.T) {
			e, _ := goldenEngine(t, sk, goldenTable(t, sk, data.Rows, attrBits), shape.shards, 1)
			bob := NewClient(&sk.PublicKey, nil)
			before := paillier.InverseCalls()
			rows := goldenQuery(t, e, bob, query, k, 0, true)
			got := paillier.InverseCalls() - before
			assertMatchesOracle(t, data, query, k, rows[:k])
			if got != uint64(shape.want) {
				t.Errorf("%d inversions per query, want %d", got, shape.want)
			}
		})
	}
}

// frameDecryptions reads a C2 request as its handler does and returns
// how many decryptions it asks for — a packed SSED or peel frame's slot
// groups, a reveal's elements — and how many of those are groups that fit
// below the smaller prime factor with 65 bits to spare.
func frameDecryptions(t *testing.T, sk *paillier.PrivateKey, req *mpc.Message) (total, onePrime int) {
	p, q := sk.Factors()
	bound := min(p.BitLen(), q.BitLen()) - 65
	field := func(i int) int { return int(req.Ints[i].Int64()) }
	add := func(values, valueBits int) {
		codec, err := paillier.NewPacking(&sk.PublicKey, valueBits)
		if err != nil {
			t.Error(err)
			return
		}
		for rest := values; rest > 0; rest -= codec.Slots {
			total++
			if min(rest, codec.Slots)*codec.Width <= bound {
				onePrime++
			}
		}
	}
	switch req.Op {
	case smc.OpSSEDPack: // [count, m, valueBits, …]: m values per record
		for range field(0) {
			add(field(1), field(2))
		}
	case smc.OpSBDPackBit: // [count, valueBits, shift, …], [… per, opBits, …] in the output round
		add(field(0), field(1))
		if field(2) == field(1)-1 {
			add(field(0)*field(3), field(4))
		}
	case OpReveal: // full-range masks: every element through the CRT
		total = len(req.Ints)
	}
	return total, onePrime
}

// TestMergeCostModel holds the gather at S ∈ {3, 4} to the cost model:
// however the shard scans interleave, the coordinator's links carry
// exactly the merge and reveal rounds PredictCost gives — one network
// over the S lists of min(k, nᵢ) candidates, concatenated, and the
// reveal — and the answer is the plaintext oracle's. l sweeps through
// the table's shape, as in TestSelectionCostModel.
func TestMergeCostModel(t *testing.T) {
	const m, n = 4, 10
	for _, attrBits := range []int{2, 5} {
		tbl, err := dataset.Generate(751, n, m, attrBits)
		if err != nil {
			t.Fatal(err)
		}
		q := []uint64{1, 2, 0, 3}
		for _, shards := range []int{3, 4} {
			coord, bob := newShardedSystem(t, tbl, shards, 1, false)
			l := coord.Shape().DomainBits()
			eq, err := bob.EncryptQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 3, 4} {
				t.Run(fmt.Sprintf("S=%d/k=%d/l=%d", shards, k, l), func(t *testing.T) {
					before := coord.CommStats()
					res, _, err := coord.SecureQuery(context.Background(), eq, k, 0)
					if err != nil {
						t.Fatal(err)
					}
					rows, err := bob.Unmask(res)
					if err != nil {
						t.Fatal(err)
					}
					assertMatchesOracle(t, tbl, q, k, rows)
					want := predict(t, coord.Shape(), testKey().Bits(), n, k, shards, 1).Secure.MergeRounds
					if got := coord.CommStats().Sub(before).Rounds; got != int64(want) {
						t.Errorf("coordinator ran %d round trips, cost model says %d (merge, reveal)", got, want)
					}
				})
			}
		}
	}
}

// TestRankClustersKeepsPairMinima: a query that probes three of eight
// clusters compares over the four pair minima it kept from the first
// ranking round, so rounds two and three run ⌈log₂ 4⌉ = 2 tournament
// levels where the seven and six live centroids would take 3 — one level,
// l + 1 round trips, fewer each — and still pick the nearest clusters in
// order.
func TestRankClustersKeepsPairMinima(t *testing.T) {
	const c = 8
	tbl, err := dataset.Generate(81, 2*c, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cents := make([][]uint64, c)
	members := make([][]int, c)
	for j := range cents {
		cents[j] = []uint64{uint64(c - 1 - j), uint64(c - 1 - j)} // cluster c−1 is nearest the origin
		members[j] = []int{2 * j, 2*j + 1}
	}
	sk := testKey()
	enc, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.SetClusterIndex(rand.Reader, cents, members); err != nil {
		t.Fatal(err)
	}
	c1, bob := newSystemOver(t, sk, enc, 1)
	eq, err := bob.EncryptQuery([]uint64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c1.Workers[0].NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	l := tbl.DomainBits()
	before := s.CommStats()
	metrics := &SecureMetrics{}
	chosen, err := s.rankClusters(eq, 5, metrics) // 2 + 2 < 5 ≤ 2 + 2 + 2: three clusters
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(chosen) != fmt.Sprint([]int{7, 6, 5}) {
		t.Errorf("chose clusters %v, want the three nearest in order, [7 6 5]", chosen)
	}
	// SSED, then per round its tournament levels and one min-index.
	want := int64(1 + (3*(l+1) + 1) + 2*(2*(l+1)+1))
	if got := s.CommStats().Sub(before).Rounds; got != want {
		t.Errorf("ranking took %d round trips, want %d (all-leaves tournaments: %d)", got, want, want+int64(2*(l+1)))
	}
	if wantSMIN := 7 + 6 + 5; metrics.SMINCount != wantSMIN {
		t.Errorf("SMINCount = %d, want %d", metrics.SMINCount, wantSMIN)
	}
}

// TestTournamentUnits pins the cluster ranking's kept-layer bookkeeping:
// dropping a known winner leaves its partner alone, its own leaf's wire
// as the unit's, or removes a lone unit — and a unit's id record always
// follows its minimum, the record of the leaf whose distance it holds.
func TestTournamentUnits(t *testing.T) {
	leaves := make([]Candidate, 6)
	for i := range leaves {
		leaves[i] = Candidate{Dist: new(paillier.Ciphertext), Rec: EncryptedRecord{new(paillier.Ciphertext)}}
	}
	shape := func(units []unit) string {
		out := ""
		for _, u := range units {
			held := -1 // the leaf whose distance the unit's wire holds
			for x, leaf := range leaves {
				if u.min.Dist == leaf.Dist {
					held = x
				}
			}
			if held != u.a && held != u.b {
				t.Errorf("unit (%d %d) holds leaf %d's distance", u.a, u.b, held)
			} else if len(u.min.Rec) != 1 || u.min.Rec[0] != leaves[held].Rec[0] {
				t.Errorf("unit (%d %d) holds leaf %d's distance but not its id", u.a, u.b, held)
			}
			out += fmt.Sprintf("(%d %d)", u.a, u.b)
		}
		return out
	}
	// Leaves 1 and 5 won their first-layer gates; 2 and 3 stand alone.
	units := []unit{{a: 0, b: 1, min: leaves[1]}, {a: 2, b: -1, min: leaves[2]}, {a: 3, b: -1, min: leaves[3]}, {a: 4, b: 5, min: leaves[5]}}
	if got, want := shape(units), "(0 1)(2 -1)(3 -1)(4 5)"; got != want {
		t.Fatalf("units %s, want %s", got, want)
	}
	units = withoutLeaf(units, 1, leaves)
	units = withoutLeaf(units, 3, leaves)
	units = withoutLeaf(units, 4, leaves)
	if got, want := shape(units), "(0 -1)(2 -1)(5 -1)"; got != want {
		t.Errorf("after dropping leaves 1, 3 and 4: %s, want %s", got, want)
	}
}
