package core

import (
	"context"
	"crypto/rand"
	"errors"
	"math"
	"sort"
	"testing"

	"sknn/internal/cluster"
	"sknn/internal/dataset"
	"sknn/internal/plainknn"
)

// newClusteredSystem outsources tbl with a k-means cluster index of c
// cells attached.
func newClusteredSystem(t *testing.T, tbl *dataset.Table, c, workers int) (*testCloud, *Client) {
	t.Helper()
	sk := testKey()
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	part, err := cluster.KMeans(tbl.Rows, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
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
func secureClusteredDistances(t *testing.T, c1 *testCloud, bob *Client, q []uint64, k, l, target int) ([]uint64, *SecureMetrics) {
	t.Helper()
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, metrics, err := c1.SecureQuery(context.Background(), eq, k, l, target)
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
	sess, err := c1.C1.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.NearestCluster(eq, tbl.DomainBits()); !errors.Is(err, ErrNotClustered) {
		t.Errorf("error = %v, want ErrNotClustered", err)
	}
	// A query has no such need: a candidate-pool target on a table
	// without an index is a full scan, on one shard as on many.
	_, metrics, err := c1.SecureQuery(context.Background(), eq, 2, tbl.DomainBits(), 4)
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
	got, metrics := secureClusteredDistances(t, c1, bob, q, k, tbl.DomainBits(), 4*k)
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
	got, metrics := secureClusteredDistances(t, c1, bob, q, k, tbl.DomainBits(), 32)
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
// claims rest on: a full scan spends exactly k·(n−1) SMIN invocations.
func TestSecureScanCounters(t *testing.T) {
	tbl, _ := dataset.Generate(61, 12, 2, 4)
	c1, bob := newSystem(t, tbl, 1)
	eq, err := bob.EncryptQuery([]uint64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	k := 3
	_, metrics, err := c1.SecureQuery(context.Background(), eq, k, tbl.DomainBits(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := k * (tbl.N() - 1); metrics.SMINCount != want {
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
	got, metrics := secureClusteredDistances(t, c1, bob, q, k, tbl.DomainBits(), 4*k)

	want, err := plainknn.KDistances(tbl.Rows, q, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distances = %v, want %v", got, want)
		}
	}
	fullScan := k * (n - 1)
	if metrics.SMINCount*5 > fullScan {
		t.Errorf("pruned SMINCount = %d, full scan %d: reduction %.1fx < 5x",
			metrics.SMINCount, fullScan, float64(fullScan)/float64(metrics.SMINCount))
	}
	t.Logf("SMIN reduction: %d -> %d (%.1fx), %d candidates in %d clusters",
		fullScan, metrics.SMINCount, float64(fullScan)/float64(metrics.SMINCount),
		metrics.Candidates, metrics.ClustersProbed)
}
