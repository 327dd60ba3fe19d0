package core

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/bits"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/paillier"
)

// ceilLog2 is ⌈log₂ x⌉ for x ≥ 1: the levels of a tournament over x.
func ceilLog2(x int) int { return bits.Len(uint(x - 1)) }

// scanRounds is the engine's round count for a full scan of n candidates
// on one link: 1 SSED + Σₜ [Lₜ·(l+1) + 1 OpMinSelect] + 1 reveal. A
// tournament level is l+1 round trips — the peel's rounds, the last of
// which also selects each pair's minimum — and the select, extraction
// and disqualification of a round share its one OpMinSelect frame; the
// first round's tournament runs all ⌈log₂ n⌉ levels, later ones start
// from the ⌈n/2⌉ pair minima it kept.
func scanRounds(n, k, l int) int {
	rounds := 1 + 1
	for t := 1; t <= k; t++ {
		levels := ceilLog2((n + 1) / 2)
		if t == 1 {
			levels = ceilLog2(n)
		}
		rounds += levels*(l+1) + 1
	}
	return rounds
}

// TestSelectionCostModel replaces magic round counts with the formula:
// over a grid of n, k and l, a one-link full scan takes exactly
// scanRounds(n, k, l) round trips and answers like the plaintext oracle.
func TestSelectionCostModel(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 9} {
		tbl, err := dataset.Generate(int64(700+n), n, 2, 2) // DomainBits(2, 2) = 6
		if err != nil {
			t.Fatal(err)
		}
		c1, bob := newSystem(t, tbl, 1)
		q := []uint64{1, 2}
		eq, err := bob.EncryptQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 3, n} {
			if k > n || (k == n && k <= 3) {
				continue
			}
			for _, l := range []int{6, 12} {
				t.Run(fmt.Sprintf("n=%d/k=%d/l=%d", n, k, l), func(t *testing.T) {
					res, metrics, err := c1.SecureQuery(context.Background(), eq, k, l, 0)
					if err != nil {
						t.Fatal(err)
					}
					rows, err := bob.Unmask(res)
					if err != nil {
						t.Fatal(err)
					}
					assertMatchesOracle(t, tbl, q, k, rows)
					if want := int64(scanRounds(n, k, l)); metrics.Comm.Rounds != want {
						t.Errorf("%d round trips, cost model says %d", metrics.Comm.Rounds, want)
					}
					if want := k * (n - 1); metrics.SMINCount != want {
						t.Errorf("SMINCount = %d, want Algorithm 6's k·(n−1) = %d", metrics.SMINCount, want)
					}
				})
			}
		}
	}
}

// mergeRounds is the coordinator's round count for one seeded merge over
// rank-ordered lists of the given lengths: every round's tournament runs
// over the Σ⌈rᵢ/2⌉ seeded units (no comparison builds them), l+1 round
// trips a level, then one OpMinSelect.
func mergeRounds(lists []int, k, l int) int {
	units := 0
	for _, r := range lists {
		units += (r + 1) / 2
	}
	return k * (ceilLog2(units)*(l+1) + 1)
}

// TestMergeCostModel pins the gather at S ∈ {3, 4}: however the shard
// scans interleave, the coordinator's links carry exactly one seeded
// merge over the S lists of min(k, nᵢ) candidates plus the reveal, and
// the answer is the plaintext oracle's.
func TestMergeCostModel(t *testing.T) {
	const attrBits, m, n = 2, 2, 10
	tbl, err := dataset.Generate(751, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	q := []uint64{1, 2}
	for _, shards := range []int{3, 4} {
		coord, bob := newShardedSystem(t, tbl, shards, 1, false)
		eq, err := bob.EncryptQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 4} {
			lists := make([]int, shards)
			for i := range lists {
				lists[i] = min(k, coord.Shard(i).Info().N)
			}
			for _, l := range []int{6, 12} {
				t.Run(fmt.Sprintf("S=%d/k=%d/l=%d", shards, k, l), func(t *testing.T) {
					before := coord.CommStats()
					res, _, err := coord.SecureQuery(context.Background(), eq, k, l, 0)
					if err != nil {
						t.Fatal(err)
					}
					rows, err := bob.Unmask(res)
					if err != nil {
						t.Fatal(err)
					}
					assertMatchesOracle(t, tbl, q, k, rows)
					want := int64(mergeRounds(lists, k, l) + 1)
					if got := coord.CommStats().Sub(before).Rounds; got != want {
						t.Errorf("coordinator ran %d round trips, cost model says %d (merge over %v, reveal)", got, want, lists)
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
	s, err := c1.C1.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	l := tbl.DomainBits()
	before := s.CommStats()
	metrics := &SecureMetrics{}
	chosen, err := s.rankClusters(eq, l, 5, metrics) // 2 + 2 < 5 ≤ 2 + 2 + 2: three clusters
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

// TestTournamentUnits pins the bottom-level bookkeeping: seeded pairs
// stay inside their run with the first leaf as minimum, an odd run ends
// in a lone leaf, and dropping a known winner leaves its partner alone or
// removes a lone unit.
func TestTournamentUnits(t *testing.T) {
	ds := make([]*paillier.Ciphertext, 6)
	for i := range ds {
		ds[i] = new(paillier.Ciphertext)
	}
	// shape lists the units' leaves and checks each minimum is its first
	// leaf's distance — seeded, or a lone leaf's own.
	shape := func(units []unit) string {
		out := ""
		for _, u := range units {
			if u.min != ds[u.a] {
				t.Errorf("unit (%d %d) holds another leaf's distance", u.a, u.b)
			}
			out += fmt.Sprintf("(%d %d)", u.a, u.b)
		}
		return out
	}
	units := seededUnits([]int{3, 1, 2}, ds)
	if got, want := shape(units), "(0 1)(2 -1)(3 -1)(4 5)"; got != want {
		t.Errorf("seeded units %s, want %s", got, want)
	}
	units = withoutLeaf(units, 1, ds)
	units = withoutLeaf(units, 3, ds)
	if got, want := shape(units), "(0 -1)(2 -1)(4 5)"; got != want {
		t.Errorf("after dropping leaves 1 and 3: %s, want %s", got, want)
	}
}
