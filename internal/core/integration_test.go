package core

import (
	"context"
	"sort"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/plainknn"
)

// distancesOf computes the sorted squared-distance multiset of returned
// records — the invariant compared against the oracle (SkNNm breaks ties
// among equidistant records randomly, so indices are not stable, but the
// distance multiset is).
func distancesOf(t *testing.T, rows [][]uint64, q []uint64) []uint64 {
	t.Helper()
	out := make([]uint64, len(rows))
	for i, row := range rows {
		d, err := plainknn.SquaredDistance(row, q)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func assertMatchesOracle(t *testing.T, tbl *dataset.Table, q []uint64, k int, got [][]uint64) {
	t.Helper()
	if len(got) != k {
		t.Fatalf("returned %d records, want %d", len(got), k)
	}
	want, err := plainknn.KDistances(tbl.Rows, q, k)
	if err != nil {
		t.Fatal(err)
	}
	gotDs := distancesOf(t, got, q)
	for i := range want {
		if gotDs[i] != want[i] {
			t.Fatalf("distance multiset mismatch: got %v, want %v", gotDs, want)
		}
	}
	// Every returned record must actually exist in the table.
	for _, row := range got {
		found := false
		for _, ref := range tbl.Rows {
			same := len(ref) == len(row)
			for j := 0; same && j < len(row); j++ {
				same = ref[j] == row[j]
			}
			if same {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("returned record %v not present in table", row)
		}
	}
}

func TestExample1HeartDiseaseKNNBasic(t *testing.T) {
	// The paper's Example 1: k = 2 nearest patients to Q are t4 and t5.
	tbl := dataset.HeartDiseaseFeatures()
	c1, bob := newSystem(t, tbl, 1)
	got := runBasic(t, c1, bob, dataset.HeartExampleQuery, 2)
	assertMatchesOracle(t, tbl, dataset.HeartExampleQuery, 2, got)
	// SkNNb ranking is deterministic by distance: t5 (|Q−t5|² = 118)
	// precedes t4 (|Q−t4|² = 139). The paper reports the set {t4, t5}.
	if got[0][0] != 55 || got[1][0] != 59 {
		t.Errorf("expected t5 then t4, got ages %d, %d", got[0][0], got[1][0])
	}
}

func TestExample1HeartDiseaseKNNSecure(t *testing.T) {
	tbl := dataset.HeartDiseaseFeatures()
	c1, bob := newSystem(t, tbl, 1)
	got := runSecure(t, c1, bob, dataset.HeartExampleQuery, 2, tbl.DomainBits())
	assertMatchesOracle(t, tbl, dataset.HeartExampleQuery, 2, got)
}

func TestBasicMatchesOracleRandom(t *testing.T) {
	tbl, err := dataset.Generate(11, 30, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := dataset.GenerateQuery(12, 3, 5)
	c1, bob := newSystem(t, tbl, 1)
	for _, k := range []int{1, 3, 7, 30} {
		got := runBasic(t, c1, bob, q, k)
		assertMatchesOracle(t, tbl, q, k, got)
	}
}

func TestSecureMatchesOracleRandom(t *testing.T) {
	tbl, err := dataset.Generate(21, 10, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := dataset.GenerateQuery(22, 2, 3)
	l := tbl.DomainBits()
	c1, bob := newSystem(t, tbl, 1)
	for _, k := range []int{1, 2, 4} {
		got := runSecure(t, c1, bob, q, k, l)
		assertMatchesOracle(t, tbl, q, k, got)
	}
}

func TestSecureWithDuplicateRecords(t *testing.T) {
	// Duplicate rows create tied minima; SkNNm must return each
	// duplicate at most once (the SBOR exclusion disqualifies the chosen
	// copy only).
	tbl := &dataset.Table{
		Rows:     [][]uint64{{1, 1}, {1, 1}, {5, 5}, {7, 0}},
		AttrBits: 3,
	}
	q := []uint64{1, 1}
	c1, bob := newSystem(t, tbl, 1)
	got := runSecure(t, c1, bob, q, 3, tbl.DomainBits())
	assertMatchesOracle(t, tbl, q, 3, got)
	// The two zero-distance duplicates must both be returned.
	zeros := 0
	for _, row := range got {
		if row[0] == 1 && row[1] == 1 {
			zeros++
		}
	}
	if zeros != 2 {
		t.Errorf("returned %d copies of the duplicate record, want 2", zeros)
	}
}

func TestSecureKEqualsN(t *testing.T) {
	tbl := &dataset.Table{
		Rows:     [][]uint64{{0, 0}, {3, 1}, {6, 7}},
		AttrBits: 3,
	}
	q := []uint64{1, 1}
	c1, bob := newSystem(t, tbl, 1)
	got := runSecure(t, c1, bob, q, 3, tbl.DomainBits())
	assertMatchesOracle(t, tbl, q, 3, got)
}

func TestParallelBasicMatchesSerial(t *testing.T) {
	tbl, _ := dataset.Generate(31, 24, 3, 5)
	q, _ := dataset.GenerateQuery(32, 3, 5)
	serial, bobS := newSystem(t, tbl, 1)
	parallel, bobP := newSystem(t, tbl, 4)
	if parallel.C1.Workers() != 4 {
		t.Fatalf("workers = %d", parallel.C1.Workers())
	}
	a := runBasic(t, serial, bobS, q, 5)
	b := runBasic(t, parallel, bobP, q, 5)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("parallel result differs at (%d,%d): %v vs %v", i, j, a, b)
			}
		}
	}
}

func TestParallelSecureMatchesOracle(t *testing.T) {
	tbl, _ := dataset.Generate(41, 9, 2, 3)
	q, _ := dataset.GenerateQuery(42, 2, 3)
	c1, bob := newSystem(t, tbl, 3)
	got := runSecure(t, c1, bob, q, 2, tbl.DomainBits())
	assertMatchesOracle(t, tbl, q, 2, got)
}

func TestBasicMetrics(t *testing.T) {
	tbl, _ := dataset.Generate(51, 12, 3, 4)
	q, _ := dataset.GenerateQuery(52, 3, 4)
	c1, bob := newSystem(t, tbl, 1)
	eq, _ := bob.EncryptQuery(q)
	_, m, err := c1.BasicQuery(context.Background(), eq, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total <= 0 || m.Distance <= 0 || m.Select <= 0 || m.Reveal <= 0 {
		t.Errorf("phase timings not populated: %+v", m)
	}
	if m.Comm.Rounds < 3 { // SSED + rank + reveal at minimum
		t.Errorf("rounds = %d, want ≥ 3", m.Comm.Rounds)
	}
	if m.Comm.BytesSent == 0 || m.Comm.BytesReceived == 0 {
		t.Error("no traffic accounted")
	}
}

func TestSecureMetrics(t *testing.T) {
	tbl, _ := dataset.Generate(61, 6, 2, 3)
	q, _ := dataset.GenerateQuery(62, 2, 3)
	c1, bob := newSystem(t, tbl, 1)
	eq, _ := bob.EncryptQuery(q)
	_, m, err := c1.SecureQuery(context.Background(), eq, 2, tbl.DomainBits(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total <= 0 || m.Distance <= 0 || m.SMINn <= 0 ||
		m.Select <= 0 || m.Extract <= 0 || m.Exclude <= 0 || m.Reveal <= 0 {
		t.Errorf("phase timings not populated: %+v", m)
	}
	// Default (packed) sessions run the value-domain tournament, which
	// never bit-decomposes the candidates — the whole SBD stage is
	// skipped, so its timing must stay zero.
	if m.BitDecom != 0 {
		t.Errorf("BitDecom = %v on a value-domain session, want 0", m.BitDecom)
	}
	share := m.SMINnShare()
	if share <= 0 || share >= 1 {
		t.Errorf("SMINn share = %v, want in (0,1)", share)
	}
	sum := m.Distance + m.BitDecom + m.SMINn + m.Select + m.Extract + m.Exclude + m.Reveal
	if sum > m.Total {
		t.Errorf("phase sum %v exceeds total %v", sum, m.Total)
	}
}

func TestQueryValidation(t *testing.T) {
	tbl, _ := dataset.Generate(71, 5, 3, 4)
	c1, bob := newSystem(t, tbl, 1)
	q, _ := dataset.GenerateQuery(72, 3, 4)
	eq, _ := bob.EncryptQuery(q)

	if _, _, err := c1.BasicQuery(context.Background(), eq, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := c1.BasicQuery(context.Background(), eq, 6); err == nil {
		t.Error("k>n accepted")
	}
	if _, _, err := c1.SecureQuery(context.Background(), eq, 2, 0, 0); err == nil {
		t.Error("l=0 accepted")
	}
	short := eq[:2]
	if _, _, err := c1.BasicQuery(context.Background(), short, 1); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := bob.EncryptQuery(nil); err == nil {
		t.Error("empty query accepted")
	}
}

func TestUnmaskValidation(t *testing.T) {
	tbl, _ := dataset.Generate(81, 4, 2, 3)
	_, bob := newSystem(t, tbl, 1)
	if _, err := bob.Unmask(nil); err == nil {
		t.Error("nil result accepted")
	}
	if _, err := bob.Unmask(&MaskedResult{K: 2, M: 1}); err == nil {
		t.Error("inconsistent result accepted")
	}
}
