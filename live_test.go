package sknn

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"math/bits"
	"reflect"
	"sort"
	"sync"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/paillier"
	"sknn/internal/plainknn"
	"sknn/internal/store"
)

// otherKey is a second cached key for wrong-key paths.
var otherKey = sync.OnceValue(func() *paillier.PrivateKey {
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		panic(err)
	}
	return sk
})

// oracleCheck compares one protocol result against the plaintext kNN
// over the live rows, by sorted squared distance (SkNNm returns ties in
// random order).
func oracleCheck(t *testing.T, rows [][]uint64, got [][]uint64, q []uint64, k int) {
	t.Helper()
	want, err := plainknn.KDistances(rows, q, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != k {
		t.Fatalf("got %d neighbors, want %d", len(got), k)
	}
	ds := make([]uint64, len(got))
	for i, row := range got {
		ds[i], err = plainknn.SquaredDistance(row[:len(q)], q)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	for i := range want {
		if ds[i] != want[i] {
			t.Fatalf("neighbor distances %v, oracle %v (query %v)", ds, want, q)
		}
	}
}

// TestLiveTableMutationsMatchOracle is the PR's acceptance scenario: a
// clustered table takes 100 inserts and 100 deletes (auto-compaction
// and owner-side re-clustering fire along the way), is saved, reloaded
// — with zero Paillier encryptions on the load path — and still answers
// exact oracle kNN in IndexClustered mode.
func TestLiveTableMutationsMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of protocol rounds; skipped in -short")
	}
	const (
		attrBits = 6
		k        = 3
	)
	tbl, err := dataset.GenerateClustered(901, 120, 2, attrBits, 6)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tbl.Rows, attrBits, Config{
		Key:      facadeKey(),
		Index:    IndexClustered,
		Clusters: 6,
		Coverage: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Plaintext mirror: stable id -> row, the oracle's view of the table.
	mirror := make(map[uint64][]uint64, 220)
	for i, row := range tbl.Rows {
		mirror[uint64(i)] = row
	}

	// 100 inserts, obliviously routed to their nearest centroids.
	insData, err := dataset.GenerateClustered(902, 100, 2, attrBits, 5)
	if err != nil {
		t.Fatal(err)
	}
	var insertedIDs []uint64
	for _, row := range insData.Rows {
		id, err := sys.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := mirror[id]; dup {
			t.Fatalf("Insert returned duplicate id %d", id)
		}
		mirror[id] = row
		insertedIDs = append(insertedIDs, id)
	}

	// 100 deletes: 60 seed records and 40 of the fresh inserts.
	var deletions []uint64
	for id := uint64(0); id < 120; id += 2 {
		deletions = append(deletions, id)
	}
	deletions = append(deletions, insertedIDs[:40]...)
	for _, id := range deletions {
		if err := sys.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		delete(mirror, id)
	}
	if sys.N() != len(mirror) {
		t.Fatalf("live N = %d, mirror has %d", sys.N(), len(mirror))
	}

	liveRows := make([][]uint64, 0, len(mirror))
	for _, row := range mirror {
		liveRows = append(liveRows, row)
	}
	queries := [][]uint64{insData.Rows[60], tbl.Rows[1], {13, 47}}

	for _, q := range queries {
		got, err := queryRows(sys, q, k, ModeSecure)
		if err != nil {
			t.Fatal(err)
		}
		oracleCheck(t, liveRows, got, q, k)
	}

	// Save the mutated table and reload it: the load path must perform
	// zero Paillier encryptions (that is the entire point of snapshot
	// persistence). Root-package tests run serially, so the global
	// counter is not perturbed by concurrent encryption.
	var buf bytes.Buffer
	if err := sys.SaveTable(&buf); err != nil {
		t.Fatal(err)
	}
	before := paillier.EncryptCalls()
	loaded, err := LoadTable(&buf, facadeKey(), Config{Coverage: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if after := paillier.EncryptCalls(); after != before {
		t.Fatalf("load path performed %d Paillier encryptions, want 0", after-before)
	}
	if loaded.Index() != IndexClustered {
		t.Fatalf("loaded index = %v, want IndexClustered", loaded.Index())
	}
	if loaded.N() != len(mirror) {
		t.Fatalf("loaded N = %d, want %d", loaded.N(), len(mirror))
	}

	for _, q := range queries {
		got, err := queryRows(loaded, q, k, ModeSecure)
		if err != nil {
			t.Fatal(err)
		}
		oracleCheck(t, liveRows, got, q, k)
	}

	// The reloaded table is still live: a post-reload insert/delete pair
	// keeps answering the (updated) oracle.
	extra := []uint64{9, 9}
	id, err := loaded.Insert(extra)
	if err != nil {
		t.Fatal(err)
	}
	mirror[id] = extra
	if err := loaded.Delete(insertedIDs[50]); err != nil {
		t.Fatal(err)
	}
	delete(mirror, insertedIDs[50])
	liveRows = liveRows[:0]
	for _, row := range mirror {
		liveRows = append(liveRows, row)
	}
	got, err := queryRows(loaded, extra, k, ModeSecure)
	if err != nil {
		t.Fatal(err)
	}
	oracleCheck(t, liveRows, got, extra, k)
}

// TestLiveTableFullScanMutations covers the same mutate-then-query
// contract in IndexNone mode, where correctness is unconditional (every
// live record is scanned).
func TestLiveTableFullScanMutations(t *testing.T) {
	tbl, err := dataset.Generate(911, 16, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tbl.Rows, 4, Config{Key: facadeKey()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	mirror := make(map[uint64][]uint64)
	for i, row := range tbl.Rows {
		mirror[uint64(i)] = row
	}
	for _, row := range [][]uint64{{1, 2}, {14, 3}, {7, 7}} {
		id, err := sys.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		mirror[id] = row
	}
	for _, id := range []uint64{0, 3, 16} {
		if err := sys.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(mirror, id)
	}
	liveRows := make([][]uint64, 0, len(mirror))
	for _, row := range mirror {
		liveRows = append(liveRows, row)
	}
	q := []uint64{7, 6}
	for _, mode := range []Mode{ModeBasic, ModeSecure} {
		got, err := queryRows(sys, q, 3, mode)
		if err != nil {
			t.Fatal(err)
		}
		oracleCheck(t, liveRows, got, q, 3)
	}

	// Save → load → same answers, still encrypt-free.
	var buf bytes.Buffer
	if err := sys.SaveTable(&buf); err != nil {
		t.Fatal(err)
	}
	before := paillier.EncryptCalls()
	loaded, err := LoadTable(&buf, facadeKey(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if after := paillier.EncryptCalls(); after != before {
		t.Fatalf("load path performed %d Paillier encryptions, want 0", after-before)
	}
	for _, mode := range []Mode{ModeBasic, ModeSecure} {
		got, err := queryRows(loaded, q, 3, mode)
		if err != nil {
			t.Fatal(err)
		}
		oracleCheck(t, liveRows, got, q, 3)
	}
}

// TestSaveLoadQueryEquality is the snapshot round-trip property: for
// several seeds and both index modes, Save→Load→Query answers exactly
// what the in-memory system answers.
func TestSaveLoadQueryEquality(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, index := range []IndexMode{IndexNone, IndexClustered} {
			tbl, err := dataset.GenerateClustered(seed, 30, 2, 5, 4)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := New(tbl.Rows, 5, Config{Key: facadeKey(), Index: index, Clusters: 4, Coverage: 6})
			if err != nil {
				t.Fatal(err)
			}
			q, _ := dataset.GenerateQuery(seed+100, 2, 5)
			inMem, err := queryRows(sys, q, 2, ModeSecure)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := sys.SaveTable(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadTable(&buf, facadeKey(), Config{Coverage: 6})
			if err != nil {
				t.Fatal(err)
			}
			fromDisk, err := queryRows(loaded, q, 2, ModeSecure)
			if err != nil {
				t.Fatal(err)
			}
			oracleCheck(t, tbl.Rows, inMem, q, 2)
			oracleCheck(t, tbl.Rows, fromDisk, q, 2)
			if loaded.Index() != index || loaded.N() != sys.N() || loaded.M() != sys.M() ||
				loaded.DomainBits() != sys.DomainBits() {
				t.Fatalf("seed %d index %v: loaded system shape diverged", seed, index)
			}
			sys.Close()
			loaded.Close()
		}
	}
}

func TestLoadTableErrors(t *testing.T) {
	tbl, _ := dataset.Generate(31, 8, 2, 4)
	sys, err := New(tbl.Rows, 4, Config{Key: facadeKey()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var buf bytes.Buffer
	if err := sys.SaveTable(&buf); err != nil {
		t.Fatal(err)
	}
	snapshot := buf.Bytes()

	if _, err := LoadTable(bytes.NewReader(snapshot), nil, Config{}); err == nil {
		t.Error("nil key accepted")
	}
	other := otherKey()
	if _, err := LoadTable(bytes.NewReader(snapshot), other, Config{}); !errors.Is(err, store.ErrKeyMismatch) {
		t.Errorf("wrong key: err = %v, want store.ErrKeyMismatch", err)
	}
	if _, err := LoadTable(bytes.NewReader(snapshot), facadeKey(), Config{Index: IndexClustered}); err == nil {
		t.Error("IndexClustered accepted for an unclustered snapshot")
	}
	if _, err := LoadTable(bytes.NewReader([]byte("junk")), facadeKey(), Config{}); !errors.Is(err, store.ErrMagic) {
		t.Errorf("garbage: err = %v, want store.ErrMagic", err)
	}
	truncated := snapshot[:len(snapshot)/2]
	if _, err := LoadTable(bytes.NewReader(truncated), facadeKey(), Config{}); !errors.Is(err, store.ErrTruncated) {
		t.Errorf("truncated: err = %v, want store.ErrTruncated", err)
	}

	// Metadata the engine's invariants forbid: attrBits beyond
	// dataset.MaxAttrBits (would overflow the Insert domain guard) and a
	// domain size l that disagrees with DomainBits (would re-expose the
	// step 3(e) sentinel collision).
	snap, err := store.Read(bytes.NewReader(snapshot))
	if err != nil {
		t.Fatal(err)
	}
	var badBits bytes.Buffer
	wide := *snap.Table
	wide.AttrBits = 30
	if err := store.Write(&badBits, &facadeKey().PublicKey, &wide, snap.DomainBits); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTable(&badBits, facadeKey(), Config{}); err == nil {
		t.Error("attrBits=30 snapshot accepted (MaxAttrBits is 24)")
	}
	var badL bytes.Buffer
	if err := store.Write(&badL, &facadeKey().PublicKey, snap.Table, snap.DomainBits-1); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTable(&badL, facadeKey(), Config{}); err == nil {
		t.Error("snapshot with understated domain size l accepted")
	}
}

func TestInsertDeleteValidation(t *testing.T) {
	tbl, _ := dataset.Generate(41, 6, 2, 4)
	sys, err := New(tbl.Rows, 4, Config{Key: facadeKey()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Insert([]uint64{1}); err == nil {
		t.Error("wrong-arity insert accepted")
	}
	if _, err := sys.Insert([]uint64{1, 16}); err == nil {
		t.Error("out-of-domain insert accepted (16 ≥ 2^4)")
	}
	if err := sys.Delete(99); err == nil {
		t.Error("delete of unknown id accepted")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Insert([]uint64{1, 2}); !errors.Is(err, ErrClosed) {
		t.Errorf("insert on closed system: err = %v, want ErrClosed", err)
	}
	if err := sys.Delete(0); !errors.Is(err, ErrClosed) {
		t.Errorf("delete on closed system: err = %v, want ErrClosed", err)
	}
}

// TestLiveMixedRecallIsCoverage explains the recall below 1 that the
// benchmark's live_mixed workload reports, at that workload's shape:
// n = 32 in four well-separated blobs of eight (one per quadrant of a
// 6-bit, two-column domain), Clusters: 4, k = 2, and the cycle Query,
// Insert, Query, Delete(oldest live insert) run across an automatic
// Compact. Each cycle also asks one query point whose two nearest
// records sit in different blobs — where the workload's uniform query
// points land about one time in fifty. Every query point is asked twice.
// With every cluster probed (coverage n/k) the answer must be the
// plaintext kNN exactly: the index, the tombstones and the re-clustering
// lose nothing. At the default coverage (probe nearest clusters until
// they hold 4k records, here usually one blob) the answer must be the
// exact kNN of the records in some ClustersProbed blobs holding
// Candidates records in all; when that is not the global kNN, fewer
// than all clusters were probed, so every true neighbour it lacks lives
// in a cluster the query did not probe. A miss is the coverage default
// at work on a query that falls between blobs, not a defect.
func TestLiveMixedRecallIsCoverage(t *testing.T) {
	const n, blobs, attrBits, k, liveInserts, cycles = 32, 4, 6, 2, 4, 6
	const cell, width = 32, 16 // quadrant side; blob side, centred in it
	blobOf := func(row []uint64) int { return int(row[0]/cell + 2*(row[1]/cell)) }
	var rows, inserts [][]uint64
	streams := make([][][]uint64, blobs)
	for b := 0; b < blobs; b++ {
		tbl, err := dataset.GenerateClustered(900+int64(b), n/blobs+cycles, 2, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tbl.Rows {
			row[0] += uint64((b%2)*cell + (cell-width)/2)
			row[1] += uint64((b/2)*cell + (cell-width)/2)
		}
		rows = append(rows, tbl.Rows[:n/blobs]...)
		streams[b] = tbl.Rows[n/blobs:]
	}
	for j := 0; j < blobs*cycles; j++ {
		inserts = append(inserts, streams[j%blobs][j/blobs])
	}

	sys, err := New(rows, attrBits, Config{Key: facadeKey(), Index: IndexClustered, Clusters: blobs})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	live := make(map[uint64][]uint64, n+liveInserts)
	for i, row := range rows {
		live[uint64(i)] = row
	}
	var inserted []uint64 // ids of live inserts, oldest first
	compactions, dirty := 0, 0.0
	noteCompaction := func() {
		f := sys.DirtyFraction()
		if f < dirty {
			compactions++
		}
		dirty = f
	}
	insert := func() {
		row := inserts[0]
		inserts = inserts[1:]
		id, err := sys.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		live[id] = row
		inserted = append(inserted, id)
		noteCompaction()
	}

	// liveRows lists the model's rows in id order.
	liveRows := func() [][]uint64 {
		ids := make([]uint64, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		all := make([][]uint64, len(ids))
		for i, id := range ids {
			all[i] = live[id]
		}
		return all
	}
	sortedDistances := func(rs [][]uint64, q []uint64) []uint64 {
		ds := make([]uint64, len(rs))
		for i, row := range rs {
			ds[i], _ = plainknn.SquaredDistance(row, q)
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		return ds
	}
	misses, queries := 0, 0
	check := func(q []uint64) {
		queries++
		all := liveRows()
		byBlob := make([][][]uint64, blobs)
		for _, row := range all {
			byBlob[blobOf(row)] = append(byBlob[blobOf(row)], row)
		}
		oracle, err := plainknn.KDistances(all, q, k)
		if err != nil {
			t.Fatal(err)
		}

		full, err := sys.Query(context.Background(), q, WithK(k), WithCoverage(float64(n)/k))
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedDistances(full.Rows, q); !reflect.DeepEqual(got, oracle) {
			t.Errorf("query %v with every cluster probed: distances %v, oracle %v", q, got, oracle)
		}
		if p := full.Metrics.Secure.ClustersProbed; p != blobs {
			t.Errorf("query %v at coverage n/k probed %d of %d clusters", q, p, blobs)
		}

		res, err := sys.Query(context.Background(), q, WithK(k))
		if err != nil {
			t.Fatal(err)
		}
		got := sortedDistances(res.Rows, q)
		sm := res.Metrics.Secure
		// The blobs it must have probed: some ClustersProbed of them holding
		// Candidates records, whose exact kNN is the answer.
		explained := false
		for set := 0; set < 1<<blobs && !explained; set++ {
			var probed [][]uint64
			for b := 0; b < blobs; b++ {
				if set>>b&1 == 1 {
					probed = append(probed, byBlob[b]...)
				}
			}
			if bits.OnesCount(uint(set)) != sm.ClustersProbed || len(probed) != sm.Candidates {
				continue
			}
			want, err := plainknn.KDistances(probed, q, k)
			explained = err == nil && reflect.DeepEqual(got, want)
		}
		if !explained {
			t.Errorf("query %v: distances %v are not the exact kNN of any %d blobs holding %d records",
				q, got, sm.ClustersProbed, sm.Candidates)
		}
		if !reflect.DeepEqual(got, oracle) {
			misses++
			if sm.ClustersProbed >= blobs {
				t.Errorf("query %v missed (%v, oracle %v) with all %d clusters probed", q, got, oracle, blobs)
			}
		}
	}

	// splitPoint is a query whose two nearest live records sit in
	// different blobs, so no single cluster holds its answer. Such points
	// lie in a thin band midway between two blobs.
	splitPoint := func() []uint64 {
		all := liveRows()
		for p := uint64(0); p < 1<<(2*attrBits); p++ {
			q := []uint64{p % (1 << attrBits), p >> attrBits}
			sort.SliceStable(all, func(a, b int) bool {
				da, _ := plainknn.SquaredDistance(all[a], q)
				db, _ := plainknn.SquaredDistance(all[b], q)
				return da < db
			})
			if blobOf(all[0]) != blobOf(all[1]) {
				return q
			}
		}
		t.Fatal("no query point splits its neighbours across two blobs")
		return nil
	}

	for i := 0; i < liveInserts-1; i++ { // the workload's standing set of live inserts
		insert()
	}
	for c := 0; c < cycles; c++ {
		q, err := dataset.GenerateQuery(910+int64(2*c), 2, attrBits)
		if err != nil {
			t.Fatal(err)
		}
		check(q)
		insert()
		if q, err = dataset.GenerateQuery(911+int64(2*c), 2, attrBits); err != nil {
			t.Fatal(err)
		}
		check(q)
		check(splitPoint())
		id := inserted[0]
		inserted = inserted[1:]
		if err := sys.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(live, id)
		noteCompaction()
	}
	if compactions == 0 {
		t.Errorf("no automatic Compact in %d cycles (dirty fraction %.2f)", cycles, dirty)
	}
	if misses == 0 {
		t.Errorf("none of %d default-coverage queries missed: the between-blobs query no longer shows the effect", queries)
	}
	t.Logf("%d of %d default-coverage queries missed a neighbour across %d compactions", misses, queries, compactions)
}
