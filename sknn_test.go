package sknn

import (
	"context"
	"errors"
	"sort"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/paillier"
	"sknn/internal/plainknn"
	"sknn/internal/testkit"
)

// facadeKey shares one small key across facade tests via the
// cross-package keyring (keygen dominates).
func facadeKey() *paillier.PrivateKey { return testkit.Key(256) }

func newTestSystem(t *testing.T, rows [][]uint64, attrBits, workers int) *System {
	t.Helper()
	sys, err := New(rows, attrBits, Config{Key: facadeKey(), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sys.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return sys
}

func TestSystemBasicQuery(t *testing.T) {
	tbl, _ := dataset.Generate(101, 20, 3, 4)
	sys := newTestSystem(t, tbl.Rows, 4, 1)
	q, _ := dataset.GenerateQuery(102, 3, 4)
	got, err := queryRows(sys, q, 3, ModeBasic)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := plainknn.KNN(tbl.Rows, q, 3)
	for i, nb := range want {
		for j := range got[i] {
			if got[i][j] != tbl.Rows[nb.Index][j] {
				t.Fatalf("record %d = %v, want %v", i, got[i], tbl.Rows[nb.Index])
			}
		}
	}
}

func TestSystemSecureQuery(t *testing.T) {
	tbl, _ := dataset.Generate(111, 8, 2, 3)
	sys := newTestSystem(t, tbl.Rows, 3, 1)
	q, _ := dataset.GenerateQuery(112, 2, 3)
	got, err := queryRows(sys, q, 2, ModeSecure)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := plainknn.KDistances(tbl.Rows, q, 2)
	gotDs := make([]uint64, len(got))
	for i, row := range got {
		d, _ := plainknn.SquaredDistance(row, q)
		gotDs[i] = d
	}
	sort.Slice(gotDs, func(a, b int) bool { return gotDs[a] < gotDs[b] })
	for i := range want {
		if gotDs[i] != want[i] {
			t.Fatalf("secure distances = %v, want %v", gotDs, want)
		}
	}
}

func TestSystemMeteredQueries(t *testing.T) {
	tbl, _ := dataset.Generate(121, 6, 2, 3)
	sys := newTestSystem(t, tbl.Rows, 3, 2)
	q, _ := dataset.GenerateQuery(122, 2, 3)
	res, err := sys.Query(context.Background(), q, WithK(2), WithMode(ModeBasic))
	if err != nil {
		t.Fatal(err)
	}
	if bm := res.Metrics.Basic; bm == nil || bm.Total <= 0 {
		t.Error("basic metrics empty")
	}
	res, err = sys.Query(context.Background(), q, WithK(2), WithMode(ModeSecure))
	if err != nil {
		t.Fatal(err)
	}
	if sm := res.Metrics.Secure; sm == nil || sm.Total <= 0 || sm.SMINn <= 0 {
		t.Error("secure metrics empty")
	}
	if sys.CommStats().Rounds == 0 {
		t.Error("no communication accounted")
	}
}

func TestSystemAccessors(t *testing.T) {
	tbl, _ := dataset.Generate(131, 5, 3, 4)
	sys := newTestSystem(t, tbl.Rows, 4, 2)
	if sys.N() != 5 || sys.M() != 3 {
		t.Errorf("shape = %dx%d", sys.N(), sys.M())
	}
	if sys.Workers() != 2 {
		t.Errorf("workers = %d", sys.Workers())
	}
	if sys.DomainBits() != dataset.DomainBits(4, 3) {
		t.Errorf("domain bits = %d", sys.DomainBits())
	}
	if sys.PublicKey() == nil {
		t.Error("nil public key")
	}
	if ModeBasic.String() != "SkNNb" || ModeSecure.String() != "SkNNm" || Mode(9).String() == "" {
		t.Error("Mode.String wrong")
	}
}

func TestSystemValidation(t *testing.T) {
	if _, err := New(nil, 4, Config{Key: facadeKey()}); err == nil {
		t.Error("empty table accepted")
	}
	if _, err := New([][]uint64{{99}}, 4, Config{Key: facadeKey()}); err == nil {
		t.Error("out-of-domain value accepted")
	}
	tbl, _ := dataset.Generate(141, 4, 2, 3)
	sys := newTestSystem(t, tbl.Rows, 3, 1)
	q, _ := dataset.GenerateQuery(142, 2, 3)
	if _, err := queryRows(sys, q, 0, ModeBasic); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := queryRows(sys, q, 1, Mode(42)); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := queryRows(sys, []uint64{1}, 1, ModeBasic); err == nil {
		t.Error("wrong-dimension query accepted")
	}
}

func TestSystemFeatureColumns(t *testing.T) {
	// Rank on the first 2 columns; column 3 is a label that must come
	// back but not influence ranking.
	rows := [][]uint64{
		{9, 9, 1},
		{1, 1, 7},
		{4, 4, 2},
	}
	sys, err := New(rows, 4, Config{Key: facadeKey(), FeatureColumns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	got, err := queryRows(sys, []uint64{0, 0}, 1, ModeSecure)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != 1 || got[0][2] != 7 {
		t.Errorf("nearest = %v, want [1 1 7]", got[0])
	}
	// DomainBits must cover only the feature columns.
	if sys.DomainBits() != dataset.DomainBits(4, 2) {
		t.Errorf("domain bits = %d", sys.DomainBits())
	}
	if _, err := New(rows, 4, Config{Key: facadeKey(), FeatureColumns: 9}); err == nil {
		t.Error("FeatureColumns > m accepted")
	}
}

func TestSystemClose(t *testing.T) {
	tbl, _ := dataset.Generate(151, 4, 2, 3)
	sys, err := New(tbl.Rows, 3, Config{Key: facadeKey()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	q, _ := dataset.GenerateQuery(152, 2, 3)
	if _, err := queryRows(sys, q, 1, ModeBasic); !errors.Is(err, ErrClosed) {
		t.Errorf("query after close = %v, want ErrClosed", err)
	}
	if _, err := queryRows(sys, q, 1, ModeSecure); !errors.Is(err, ErrClosed) {
		t.Errorf("secure query after close = %v, want ErrClosed", err)
	}
	if _, err := queryBatchRows(sys, [][]uint64{q}, 1, ModeSecure); !errors.Is(err, ErrClosed) {
		t.Errorf("batch after close = %v, want ErrClosed", err)
	}
}

// queryDistances runs one query and returns the sorted squared
// distances of the returned records to q (feature prefix fq).
func queryDistances(t *testing.T, sys *System, q []uint64, k int, mode Mode) []uint64 {
	t.Helper()
	got, err := queryRows(sys, q, k, mode)
	if err != nil {
		t.Fatal(err)
	}
	ds := make([]uint64, len(got))
	for i, row := range got {
		ds[i], _ = plainknn.SquaredDistance(row[:len(q)], q)
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds
}

// TestSystemClusteredIndexMatchesOracle: IndexClustered on clusterable
// data returns exactly the oracle's k-distance multiset at the default
// coverage factor, while actually pruning.
func TestSystemClusteredIndexMatchesOracle(t *testing.T) {
	tbl, err := dataset.GenerateClustered(201, 120, 2, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tbl.Rows, 8, Config{Key: facadeKey(), Index: IndexClustered, Clusters: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Index() != IndexClustered || sys.Clusters() != 8 {
		t.Fatalf("index = %v with %d clusters", sys.Index(), sys.Clusters())
	}
	q := tbl.Rows[42]
	k := 3
	got := queryDistances(t, sys, q, k, ModeSecure)
	want, _ := plainknn.KDistances(tbl.Rows, q, k)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distances = %v, want %v", got, want)
		}
	}
	// The metered path must agree and show the pruning.
	res, err := sys.Query(context.Background(), q, WithK(k))
	if err != nil {
		t.Fatal(err)
	}
	metrics := res.Metrics.Secure
	if metrics.Candidates >= tbl.N() || metrics.ClustersProbed == 0 {
		t.Errorf("no pruning: %d candidates, %d clusters probed", metrics.Candidates, metrics.ClustersProbed)
	}
	if metrics.Candidates < k {
		t.Errorf("candidate pool %d below k=%d", metrics.Candidates, k)
	}
}

// TestSystemClusteredIndexUniformData: adversarially uniform rows with
// a generous coverage factor still match the oracle exactly — recall 1.0
// when the candidate pool is sufficient (deterministic instance).
func TestSystemClusteredIndexUniformData(t *testing.T) {
	tbl, _ := dataset.Generate(211, 64, 2, 8)
	sys, err := New(tbl.Rows, 8, Config{
		Key: facadeKey(), Index: IndexClustered, Clusters: 8, Coverage: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	q, _ := dataset.GenerateQuery(212, 2, 8)
	k := 2
	got := queryDistances(t, sys, q, k, ModeSecure)
	want, _ := plainknn.KDistances(tbl.Rows, q, k)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distances = %v, want %v", got, want)
		}
	}
	// ModeBasic ignores the index and must also stay exact.
	got = queryDistances(t, sys, q, k, ModeBasic)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("basic distances = %v, want %v", got, want)
		}
	}
}

func TestSystemIndexValidation(t *testing.T) {
	tbl, _ := dataset.Generate(221, 8, 2, 4)
	if _, err := New(tbl.Rows, 4, Config{Key: facadeKey(), Index: IndexMode(7)}); err == nil {
		t.Error("unknown index mode accepted")
	}
	if _, err := New(tbl.Rows, 4, Config{Key: facadeKey(), Coverage: -1}); err == nil {
		t.Error("negative coverage accepted")
	}
	if IndexNone.String() != "none" || IndexClustered.String() != "clustered" || IndexMode(7).String() == "" {
		t.Error("IndexMode.String wrong")
	}
	// Default cluster count is ⌈√n⌉.
	sys, err := New(tbl.Rows, 4, Config{Key: facadeKey(), Index: IndexClustered})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Clusters() != 3 {
		t.Errorf("default clusters = %d, want ⌈√8⌉ = 3", sys.Clusters())
	}
}

// TestQueryBatchJoinsAllErrors: the batch error is the errors.Join of
// every per-query failure, not just the first one.
func TestQueryBatchJoinsAllErrors(t *testing.T) {
	tbl, _ := dataset.Generate(231, 6, 2, 3)
	sys := newTestSystem(t, tbl.Rows, 3, 2)
	queries := [][]uint64{
		{1, 2},    // fine
		{1, 2, 3}, // wrong dimension
		{3, 4},    // fine
		{9},       // wrong dimension too
	}
	results, err := queryBatchRows(sys, queries, 1, ModeBasic)
	if err == nil {
		t.Fatal("mixed batch returned no error")
	}
	if results[0] == nil || results[2] == nil {
		t.Error("successful queries lost their results")
	}
	if results[1] != nil || results[3] != nil {
		t.Error("failed queries returned rows")
	}
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) {
		t.Fatalf("error %v is not a joined error", err)
	}
	if got := len(joined.Unwrap()); got != 2 {
		t.Errorf("joined %d errors, want 2: %v", got, err)
	}
}

func TestSystemParallelMatchesSerial(t *testing.T) {
	tbl, _ := dataset.Generate(161, 16, 2, 4)
	q, _ := dataset.GenerateQuery(162, 2, 4)
	serial := newTestSystem(t, tbl.Rows, 4, 1)
	parallel := newTestSystem(t, tbl.Rows, 4, 3)
	a, err := queryRows(serial, q, 4, ModeBasic)
	if err != nil {
		t.Fatal(err)
	}
	b, err := queryRows(parallel, q, 4, ModeBasic)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("parallel differs: %v vs %v", a, b)
			}
		}
	}
}
