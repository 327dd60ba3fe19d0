package core

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"sknn/internal/cluster"
	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/plainknn"
	"sknn/internal/smc"
)

// newClusteredSystem outsources tbl with a k-means cluster index of c
// cells attached.
func newClusteredSystem(t *testing.T, tbl *dataset.Table, c, workers int) (*Engine, *Client) {
	t.Helper()
	sk := testKey()
	encTable := encryptDataset(t, sk, tbl)
	part, err := cluster.KMeans(tbl.Rows, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := encTable.SetClusterIndex(rand.Reader, part.Centroids, part.Members); err != nil {
		t.Fatal(err)
	}
	return newSystemOver(t, sk, encTable, workers)
}

// secureClusteredDistances runs the pruned protocol and returns the
// sorted squared distances of the returned records plus the metrics.
func secureClusteredDistances(t *testing.T, c1 *Engine, bob *Client, q []uint64, k, target int) ([]uint64, *SecureMetrics) {
	t.Helper()
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, metrics, err := c1.SecureQuery(context.Background(), eq, k, target)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := bob.Unmask(res)
	if err != nil {
		t.Fatal(err)
	}
	ds := make([]uint64, len(rows))
	for i, row := range rows {
		ds[i], err = plainknn.SquaredDistance(row[:len(q)], q)
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds, metrics
}

// TestCoverageTarget: a factor whose pool no int can hold — huge,
// infinite or NaN — probes every cluster instead of converting out of
// range (which on amd64 used to yield MinInt64, floored to k: the
// smallest pool for the largest request).
func TestCoverageTarget(t *testing.T) {
	const k = 5
	for _, tc := range []struct {
		coverage float64
		want     int
	}{
		{4, 20},
		{0.5, k},
		{1e300, math.MaxInt},
		{math.Inf(1), math.MaxInt},
		{math.NaN(), math.MaxInt},
	} {
		if got := CoverageTarget(tc.coverage, k); got != tc.want {
			t.Errorf("CoverageTarget(%g, %d) = %d, want %d", tc.coverage, k, got, tc.want)
		}
	}
}

func TestClusteredTableIndexValidation(t *testing.T) {
	sk := testKey()
	tbl, _ := dataset.Generate(21, 10, 2, 4)
	enc, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}
	good := [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}
	cents := [][]uint64{{1, 1}, {2, 2}}
	cases := []struct {
		name    string
		cents   [][]uint64
		members [][]int
	}{
		{"no clusters", nil, nil},
		{"count mismatch", cents, [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}},
		{"empty cluster", cents, [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {}}},
		{"bad centroid dim", [][]uint64{{1}, {2, 2}}, good},
		{"out of range", cents, [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 10}}},
		{"duplicate row", cents, [][]int{{0, 1, 2, 3, 4}, {4, 5, 6, 7, 8}}},
		{"missing row", cents, [][]int{{0, 1, 2, 3}, {5, 6, 7, 8, 9}}},
		{"descending members", cents, [][]int{{1, 0, 2, 3, 4}, {5, 6, 7, 8, 9}}},
	}
	for _, c := range cases {
		if err := enc.SetClusterIndex(rand.Reader, c.cents, c.members); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if enc.Clustered() {
		t.Fatal("a rejected index was attached")
	}
	if err := enc.SetClusterIndex(rand.Reader, cents, good); err != nil {
		t.Fatalf("valid index rejected: %v", err)
	}
	if !enc.Clustered() || enc.Clusters() != 2 {
		t.Fatal("index not attached")
	}
	// Feature-column views drop the index: centroids are sized to the
	// feature prefix, so the index must be attached afterwards.
	view, err := enc.WithFeatureColumns(1)
	if err != nil {
		t.Fatal(err)
	}
	if view.Clustered() {
		t.Error("feature view kept a stale cluster index")
	}
}

func TestSecureClusteredRequiresIndex(t *testing.T) {
	tbl, _ := dataset.Generate(31, 8, 2, 4)
	c1, bob := newSystem(t, tbl, 1)
	eq, err := bob.EncryptQuery([]uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Routing a point to its nearest cluster needs centroids to rank.
	sess, err := c1.Workers[0].NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.NearestCluster(eq); !errors.Is(err, ErrNotClustered) {
		t.Errorf("error = %v, want ErrNotClustered", err)
	}
	// A query has no such need: a candidate-pool target on a table
	// without an index is a full scan, on one shard as on many.
	_, metrics, err := c1.SecureQuery(context.Background(), eq, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Candidates != tbl.N() || metrics.ClustersProbed != 0 {
		t.Errorf("scanned %d candidates in %d clusters, want a full scan of %d",
			metrics.Candidates, metrics.ClustersProbed, tbl.N())
	}
}

// TestSecureClusteredMatchesOracleOnClusteredData: on blob data with the
// query inside a blob, the pruned protocol must return exactly the
// plaintext oracle's k-distance multiset.
func TestSecureClusteredMatchesOracleOnClusteredData(t *testing.T) {
	tbl, err := dataset.GenerateClustered(41, 96, 2, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	c1, bob := newClusteredSystem(t, tbl, 6, 1)
	q := tbl.Rows[17] // a real row: firmly inside one blob
	k := 3
	got, metrics := secureClusteredDistances(t, c1, bob, q, k, 4*k)
	want, err := plainknn.KDistances(tbl.Rows, q, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distances = %v, want %v", got, want)
		}
	}
	if metrics.ClustersProbed < 1 || metrics.ClustersProbed >= 6 {
		t.Errorf("clusters probed = %d, want pruning", metrics.ClustersProbed)
	}
	if metrics.Candidates >= tbl.N() {
		t.Errorf("candidates = %d of %d, no pruning happened", metrics.Candidates, tbl.N())
	}
	if metrics.Candidates < 4*k {
		t.Errorf("candidates = %d, below target %d", metrics.Candidates, 4*k)
	}
	if metrics.Centroid <= 0 {
		t.Error("centroid phase not timed")
	}
}

// TestSecureClusteredMatchesOracleOnUniformData: adversarially uniform
// data defeats the clustering assumption, but with a sufficient
// coverage target the candidate pool still contains the true neighbors
// and recall is exactly 1. (Deterministic: data, k-means, and the
// distance ranking are all seed-fixed.)
func TestSecureClusteredMatchesOracleOnUniformData(t *testing.T) {
	tbl, err := dataset.Generate(51, 64, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	c1, bob := newClusteredSystem(t, tbl, 8, 2)
	q, _ := dataset.GenerateQuery(52, 2, 8)
	k := 2
	// Coverage target of half the table: enough that the true neighbors'
	// clusters are certainly probed for this (fixed) instance.
	got, metrics := secureClusteredDistances(t, c1, bob, q, k, 32)
	want, err := plainknn.KDistances(tbl.Rows, q, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distances = %v, want %v", got, want)
		}
	}
	if metrics.Candidates >= tbl.N() {
		t.Errorf("candidates = %d of %d, no pruning happened", metrics.Candidates, tbl.N())
	}
}

// TestSecureScanCounters validates the SMIN accounting the pruning
// claims rest on: a full scan spends the cost model's k·(n−1) SMIN
// invocations.
func TestSecureScanCounters(t *testing.T) {
	tbl, _ := dataset.Generate(61, 12, 2, 4)
	c1, bob := newSystem(t, tbl, 1)
	eq, err := bob.EncryptQuery([]uint64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	k := 3
	_, metrics, err := c1.SecureQuery(context.Background(), eq, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := predict(t, c1.Shape(), testKey().Bits(), tbl.N(), k, 1, 1).Secure.SMINCount; metrics.SMINCount != want {
		t.Errorf("full-scan SMINCount = %d, want %d", metrics.SMINCount, want)
	}
	if metrics.Candidates != tbl.N() {
		t.Errorf("full-scan Candidates = %d, want %d", metrics.Candidates, tbl.N())
	}
	if metrics.ClustersProbed != 0 {
		t.Errorf("full-scan ClustersProbed = %d, want 0", metrics.ClustersProbed)
	}
}

// TestClusteredSMINReduction is the headline acceptance claim: at
// n=1000, c=32, k=5 the pruned protocol answers with at least 5× fewer
// SMIN invocations than the k·(n−1) a full scan spends (the counter
// semantics are pinned by TestSecureScanCounters), while matching the
// plaintext oracle exactly at the default coverage target of 4k.
func TestClusteredSMINReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("n=1000 outsourcing in -short mode")
	}
	const n, c, k = 1000, 32, 5
	tbl, err := dataset.GenerateClustered(71, n, 2, 8, c)
	if err != nil {
		t.Fatal(err)
	}
	c1, bob := newClusteredSystem(t, tbl, c, 1)
	q := tbl.Rows[123]
	got, metrics := secureClusteredDistances(t, c1, bob, q, k, 4*k)

	want, err := plainknn.KDistances(tbl.Rows, q, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distances = %v, want %v", got, want)
		}
	}
	fullScan := predict(t, c1.Shape(), testKey().Bits(), n, k, 1, 1).Secure.SMINCount
	if metrics.SMINCount*5 > fullScan {
		t.Errorf("pruned SMINCount = %d, full scan %d: reduction %.1fx < 5x",
			metrics.SMINCount, fullScan, float64(fullScan)/float64(metrics.SMINCount))
	}
	t.Logf("SMIN reduction: %d -> %d (%.1fx), %d candidates in %d clusters",
		fullScan, metrics.SMINCount, float64(fullScan)/float64(metrics.SMINCount),
		metrics.Candidates, metrics.ClustersProbed)
}

// rankingSystem outsources a table of two-column rows below 2^4 in which
// cluster j has centroid cents[j] and sizes[j] members, each a row at
// its centroid, then deletes every member of the clusters in hollow. It
// returns the clusters' live sizes beside the system.
func rankingSystem(t *testing.T, cents [][]uint64, sizes []int, hollow ...int) (*Engine, *Client, []int) {
	t.Helper()
	var rows [][]uint64
	members := make([][]int, len(cents))
	for j, c := range cents {
		for range sizes[j] {
			members[j] = append(members[j], len(rows))
			rows = append(rows, c)
		}
	}
	sk := testKey()
	enc, err := EncryptTable(rand.Reader, &sk.PublicKey, rows)
	if err == nil {
		// A 4-bit domain whatever the centroids: l = DomainBits(4, 2).
		enc, err = enc.WithAttrBits(4)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.SetClusterIndex(rand.Reader, cents, members); err != nil {
		t.Fatal(err)
	}
	live := slices.Clone(sizes)
	for _, j := range hollow {
		for _, i := range members[j] {
			if err := enc.Delete(uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		live[j] = 0
	}
	c1, bob := newSystemOver(t, sk, enc, 1)
	return c1, bob, live
}

// plainRanking is rankClusters' answer in the clear: the centroids by
// squared distance to q, ties to the larger id — every gate of the
// ranking's tournament hands a tie to its upper wire — taken until the
// taken clusters' live members reach target.
func plainRanking(t *testing.T, cents [][]uint64, live []int, q []uint64, target int) []int {
	t.Helper()
	ds := make([]uint64, len(cents))
	order := make([]int, len(cents))
	for j, c := range cents {
		d, err := plainknn.SquaredDistance(c, q)
		if err != nil {
			t.Fatal(err)
		}
		ds[j], order[j] = d, j
	}
	sort.Slice(order, func(a, b int) bool {
		if da, db := ds[order[a]], ds[order[b]]; da != db {
			return da < db
		}
		return order[a] > order[b]
	})
	var chosen []int
	for pool, i := 0, 0; pool < target && i < len(order); i++ {
		chosen = append(chosen, order[i])
		pool += live[order[i]]
	}
	return chosen
}

// TestRankClustersMatchesPlaintextOrder differentially checks the
// oblivious centroid ranking against plainRanking over c ∈ {1, 2, 3, 5,
// 8}: tied distances within a first-layer pair and across pairs,
// clusters hollowed out by deletes, and a target no pool reaches, which
// ranks every cluster.
func TestRankClustersMatchesPlaintextOrder(t *testing.T) {
	q := []uint64{0, 0}
	// Squared distances 98, 1, 1, 18, 0, 72, 8, 0.
	c8 := [][]uint64{{7, 7}, {1, 0}, {0, 1}, {3, 3}, {0, 0}, {6, 6}, {2, 2}, {0, 0}}
	ones := []int{1, 1, 1, 1, 1, 1, 1, 1}
	for _, tc := range []struct {
		name   string
		cents  [][]uint64
		sizes  []int
		hollow []int
		target int
	}{
		{"c=1", [][]uint64{{3, 3}}, []int{2}, nil, 1},
		{"c=2", [][]uint64{{4, 1}, {1, 1}}, []int{1, 1}, nil, 2},
		{"c=2, tied", [][]uint64{{2, 1}, {1, 2}}, []int{1, 1}, nil, 1},
		{"c=3, all tied, saturating target", [][]uint64{{2, 2}, {2, 2}, {2, 2}}, []int{1, 2, 1}, nil, 100},
		{"c=5, ties and a hollow cluster", [][]uint64{{3, 0}, {1, 1}, {0, 3}, {1, 1}, {5, 5}}, []int{2, 1, 1, 2, 1}, []int{3}, 4},
		{"c=8, hollow winners", c8, ones, []int{7, 4}, 3},
		{"c=8, hollow winners, saturating target", c8, ones, []int{7, 4}, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c1, bob, live := rankingSystem(t, tc.cents, tc.sizes, tc.hollow...)
			eq, err := bob.EncryptQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			s, err := c1.Workers[0].NewSession(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			metrics := &SecureMetrics{}
			got, err := s.rankClusters(eq, tc.target, metrics)
			if err != nil {
				t.Fatal(err)
			}
			want := plainRanking(t, tc.cents, live, q, tc.target)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("ranked %v, plaintext order says %v", got, want)
			}
			wantSMIN := 0 // a round over r live centroids is r − 1 SMINs
			for r := range want {
				wantSMIN += len(tc.cents) - r - 1
			}
			if metrics.SMINCount != wantSMIN {
				t.Errorf("SMINCount = %d, want %d", metrics.SMINCount, wantSMIN)
			}
		})
	}
}

// TestNearestClusterIsOneRound: insert routing answers the nearest
// centroid even when deletes have emptied its cluster — the answer the
// ranking's first winner always was — after exactly one ranking round:
// 1 SSED + ⌈log₂ c⌉·(l+1) + 1 reveal round trips.
func TestNearestClusterIsOneRound(t *testing.T) {
	for _, c := range []int{2, 5, 8} {
		t.Run(fmt.Sprintf("c=%d", c), func(t *testing.T) {
			cents := make([][]uint64, c)
			sizes := make([]int, c)
			for j := range cents {
				cents[j] = []uint64{uint64(c - 1 - j), uint64(c - 1 - j)} // cluster c−1 is nearest the origin
				sizes[j] = 2
			}
			c1, bob, _ := rankingSystem(t, cents, sizes, c-1)
			eq, err := bob.EncryptQuery([]uint64{0, 0})
			if err != nil {
				t.Fatal(err)
			}
			s, err := c1.Workers[0].NewSession(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			l := dataset.DomainBits(4, 2)
			before := s.CommStats()
			got, err := s.NearestCluster(eq)
			if err != nil {
				t.Fatal(err)
			}
			if got != c-1 {
				t.Errorf("routed to cluster %d, want the nearest, %d", got, c-1)
			}
			if got, want := s.CommStats().Sub(before).Rounds, int64(1+ceilLog2(c)*(l+1)+1); got != want {
				t.Errorf("routing took %d round trips, want %d", got, want)
			}
		})
	}
}

// TestClusteredC2Surface: with the cluster index on, a pruned query and
// an Insert's routing send C2 nothing after the handshake but packed
// SSED, the bit peel and the reveal — no β frame, so no decrypted
// distance difference, and with it no tie count, reaches C2.
func TestClusteredC2Surface(t *testing.T) {
	tbl, err := dataset.GenerateClustered(91, 48, 2, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	sk := testKey()
	part, err := cluster.KMeans(tbl.Rows, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.SetClusterIndex(rand.Reader, part.Centroids, part.Members); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	sent := map[mpc.Op]int{}
	c2 := NewCloudC2(sk, nil)
	c1 := newEngine(t, enc, 1, func() []mpc.Conn {
		return []mpc.Conn{mpc.Tap(pipeTo(t, c2), func(dir mpc.Direction, m *mpc.Message) {
			if dir == mpc.DirSend {
				mu.Lock()
				sent[m.Op]++
				mu.Unlock()
			}
		})}
	})
	bob := NewClient(&sk.PublicKey, nil)
	mu.Lock()
	clear(sent) // the handshakes
	mu.Unlock()

	q := tbl.Rows[5]
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, metrics, err := c1.SecureQuery(context.Background(), eq, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Unmask(res); err != nil {
		t.Fatal(err)
	}
	if metrics.ClustersProbed < 1 || metrics.ClustersProbed >= 4 {
		t.Errorf("probed %d of 4 clusters, want a pruned query", metrics.ClustersProbed)
	}
	// An Insert as the facade runs it: route the owner's encrypted point,
	// then append the record to the cluster it was routed to.
	row := []uint64{3, 4}
	route, err := bob.EncryptQuery(row)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c1.Workers[0].NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.NearestCluster(route)
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sk.PublicKey.EncryptUint64Vector(rand.Reader, row)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.InsertWithID(enc.NextID(), rec, j); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, op := range []mpc.Op{smc.OpSSEDPack, smc.OpSBDPackBit, OpReveal} {
		if sent[op] == 0 {
			t.Errorf("C2 got no opcode-%d frame", op)
		}
		delete(sent, op)
	}
	if len(sent) != 0 {
		t.Errorf("C2 also got frames %v (opcode: count), want only packed SSED, the peel and the reveal", sent)
	}
}
