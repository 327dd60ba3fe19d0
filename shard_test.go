package sknn

import (
	"bytes"
	"context"
	"sort"
	"sync"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/plainknn"
	"sknn/internal/store"
)

// TestShardedQueryMatchesOracle is the facade acceptance for the
// scatter-gather engine: in both index modes and both protocols, a
// sharded System answers exactly the plaintext oracle (and therefore
// exactly the one-shard System, which the rest of the suite pins to the
// same oracle).
func TestShardedQueryMatchesOracle(t *testing.T) {
	const attrBits, k = 5, 3
	tbl, err := dataset.GenerateClustered(501, 36, 2, attrBits, 4)
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]uint64{tbl.Rows[4], {1, 30}}
	for _, index := range []IndexMode{IndexNone, IndexClustered} {
		for _, shards := range []int{2, 3} {
			sys, err := New(tbl.Rows, attrBits, Config{
				Key: facadeKey(), Shards: shards,
				Index: index, Clusters: 4, Coverage: 8,
			})
			if err != nil {
				t.Fatalf("index %v shards %d: %v", index, shards, err)
			}
			if sys.Shards() != shards {
				t.Errorf("Shards() = %d, want %d", sys.Shards(), shards)
			}
			for _, q := range queries {
				for _, mode := range []Mode{ModeBasic, ModeSecure} {
					got, err := queryRows(sys, q, k, mode)
					if err != nil {
						t.Fatalf("index %v shards %d mode %v: %v", index, shards, mode, err)
					}
					oracleCheck(t, tbl.Rows, got, q, k)
				}
			}
			// The metrics report the scatter-gather shape.
			res, err := sys.Query(context.Background(), queries[0], WithK(k))
			if err != nil {
				t.Fatal(err)
			}
			sm := res.Metrics.Secure
			if sm.Shards != shards {
				t.Errorf("SecureMetrics.Shards = %d, want %d", sm.Shards, shards)
			}
			if index == IndexClustered && sm.ClustersProbed == 0 {
				t.Error("clustered sharded query probed no clusters")
			}
			sys.Close()
		}
	}
}

// TestShardedMutationRouting pins the ownership rule: inserts land on
// shard id mod S, deletes reach the owning shard, and the facade's view
// (N, queries) stays exact throughout.
func TestShardedMutationRouting(t *testing.T) {
	const attrBits, shards = 4, 3
	tbl, err := dataset.Generate(511, 12, 2, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tbl.Rows, attrBits, Config{Key: facadeKey(), Shards: shards, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	mirror := make(map[uint64][]uint64)
	for i, row := range tbl.Rows {
		mirror[uint64(i)] = row
	}
	shardN := func() []int {
		ns := make([]int, shards)
		for i, t := range sys.tables() {
			ns[i] = t.N()
		}
		return ns
	}
	before := shardN()

	// Ids continue the global sequence and land on id mod S.
	for i, row := range [][]uint64{{3, 3}, {9, 1}, {0, 15}} {
		id, err := sys.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(12 + i); id != want {
			t.Fatalf("Insert assigned id %d, want %d", id, want)
		}
		mirror[id] = row
		after := shardN()
		owner := int(id % shards)
		for w := range after {
			wantDelta := 0
			if w == owner {
				wantDelta = 1
			}
			if after[w]-before[w] != wantDelta {
				t.Fatalf("insert id %d: shard %d went %d→%d, owner is %d",
					id, w, before[w], after[w], owner)
			}
		}
		before = after
	}

	// Deletes tombstone the owning shard only.
	for _, id := range []uint64{1, 5, 12} {
		if err := sys.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		delete(mirror, id)
		after := shardN()
		owner := int(id % shards)
		for w := range after {
			wantDelta := 0
			if w == owner {
				wantDelta = -1
			}
			if after[w]-before[w] != wantDelta {
				t.Fatalf("delete id %d: shard %d went %d→%d, owner is %d",
					id, w, before[w], after[w], owner)
			}
		}
		before = after
	}
	if sys.N() != len(mirror) {
		t.Fatalf("N = %d, mirror %d", sys.N(), len(mirror))
	}

	liveRows := make([][]uint64, 0, len(mirror))
	for _, row := range mirror {
		liveRows = append(liveRows, row)
	}
	got, err := queryRows(sys, []uint64{7, 7}, 3, ModeSecure)
	if err != nil {
		t.Fatal(err)
	}
	oracleCheck(t, liveRows, got, []uint64{7, 7}, 3)
}

// TestShardedCompactionIsolation churns one residue class until its
// shard compacts and checks the other shards' physical storage is
// untouched (their Stored count still carries the original layout).
func TestShardedCompactionIsolation(t *testing.T) {
	const attrBits, shards = 4, 2
	tbl, err := dataset.Generate(521, 10, 2, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tbl.Rows, attrBits, Config{Key: facadeKey(), Shards: shards, CompactThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	stored1 := sys.tables()[1].Stored()
	// Delete even ids only: all churn lands on shard 0.
	for _, id := range []uint64{0, 2, 4} {
		if err := sys.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.tables()[0].Stored(); got != 2 {
		t.Errorf("shard 0 stored %d records after threshold compaction, want 2", got)
	}
	if got := sys.tables()[1].Stored(); got != stored1 {
		t.Errorf("shard 1 stored %d→%d though no mutation touched it", stored1, got)
	}

	liveRows := make([][]uint64, 0, 7)
	for i, row := range tbl.Rows {
		if i != 0 && i != 2 && i != 4 {
			liveRows = append(liveRows, row)
		}
	}
	got, err := queryRows(sys, []uint64{3, 12}, 2, ModeSecure)
	if err != nil {
		t.Fatal(err)
	}
	oracleCheck(t, liveRows, got, []uint64{3, 12}, 2)
}

// TestShardedConcurrentMutationsAndQueries runs queries while inserts
// and deletes land on the owning shards — the -race acceptance for the
// scatter path (sessions pin per-shard views, so a query must observe
// one coherent state per shard and never tear).
func TestShardedConcurrentMutationsAndQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("many protocol rounds; skipped in -short")
	}
	const attrBits, shards, k = 4, 2, 2
	tbl, err := dataset.Generate(531, 14, 2, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tbl.Rows, attrBits, Config{Key: facadeKey(), Shards: shards, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		row := []uint64{5, 6}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id, err := sys.Insert(row)
			if err != nil {
				t.Errorf("concurrent insert: %v", err)
				return
			}
			if err := sys.Delete(id); err != nil {
				t.Errorf("concurrent delete: %v", err)
				return
			}
		}
	}()
	// Queries cannot assert exact answers while the table churns; they
	// must simply succeed with k well-formed rows (the mutator keeps the
	// net table identical between its insert/delete pairs, but a query
	// may open between them).
	for i := 0; i < 4; i++ {
		rows, err := queryRows(sys, []uint64{2, 11}, k, ModeSecure)
		if err != nil {
			t.Fatalf("query under churn: %v", err)
		}
		if len(rows) != k {
			t.Fatalf("query under churn returned %d rows", len(rows))
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: answers are exact again.
	got, err := queryRows(sys, []uint64{2, 11}, k, ModeSecure)
	if err != nil {
		t.Fatal(err)
	}
	oracleCheck(t, tbl.Rows, got, []uint64{2, 11}, k)
}

// TestShardedSaveLoadEquality is the persistence half of the satellite:
// a sharded system saves the canonical whole table (identical answers
// after reload at any shard count), and Save→Split→Merge→Load equals
// Save→Load.
func TestShardedSaveLoadEquality(t *testing.T) {
	const attrBits, k = 5, 2
	tbl, err := dataset.GenerateClustered(541, 20, 2, attrBits, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tbl.Rows, attrBits, Config{
		Key: facadeKey(), Shards: 2, Index: IndexClustered, Clusters: 3, Coverage: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	q := tbl.Rows[7]
	want, err := queryRows(sys, q, k, ModeSecure)
	if err != nil {
		t.Fatal(err)
	}
	oracleCheck(t, tbl.Rows, want, q, k)

	var buf bytes.Buffer
	if err := sys.SaveTable(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	// Save→Load, resharded at 1, 2, and 4.
	for _, shards := range []int{1, 2, 4} {
		loaded, err := LoadTable(bytes.NewReader(saved), facadeKey(), Config{Shards: shards, Coverage: 8})
		if err != nil {
			t.Fatalf("load at %d shards: %v", shards, err)
		}
		got, err := queryRows(loaded, q, k, ModeSecure)
		if err != nil {
			t.Fatalf("query at %d shards: %v", shards, err)
		}
		oracleCheck(t, tbl.Rows, got, q, k)
		loaded.Close()
	}

	// Save→Split→Merge→Load: the file-level reshard round trip.
	snap, err := store.Read(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := store.Split(snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Shard files refuse to load directly (they are not whole tables).
	var shardFile bytes.Buffer
	if err := store.WriteSnapshot(&shardFile, parts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTable(&shardFile, facadeKey(), Config{}); err == nil {
		t.Error("LoadTable accepted a shard file")
	}
	merged, err := store.Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	var mergedFile bytes.Buffer
	if err := store.WriteSnapshot(&mergedFile, merged); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTable(&mergedFile, facadeKey(), Config{Coverage: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	got, err := queryRows(loaded, q, k, ModeSecure)
	if err != nil {
		t.Fatal(err)
	}
	oracleCheck(t, tbl.Rows, got, q, k)
}

// TestShardedBatchMetered covers batch metrics on a sharded system:
// per-query metrics arrive for every entry and carry the scatter-gather
// counters.
func TestShardedBatchMetered(t *testing.T) {
	const attrBits, k = 4, 2
	tbl, err := dataset.Generate(551, 12, 2, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tbl.Rows, attrBits, Config{Key: facadeKey(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	queries := [][]uint64{{1, 2}, {9, 9}, {14, 0}}
	results, err := sys.QueryBatch(context.Background(), queries, WithK(k), WithMode(ModeSecure))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("batch returned %d results for %d queries", len(results), len(queries))
	}
	for i, res := range results {
		if res == nil || res.Metrics == nil || res.Metrics.Secure == nil {
			t.Fatalf("query %d missing secure metrics", i)
		}
		qm := res.Metrics
		if qm.Secure.Shards != 2 {
			t.Errorf("query %d Shards = %d, want 2", i, qm.Secure.Shards)
		}
		if qm.Secure.SMINCount == 0 || qm.Secure.Candidates == 0 {
			t.Errorf("query %d counters empty: %+v", i, qm.Secure)
		}
		oracleCheck(t, tbl.Rows, res.Rows, queries[i], k)
	}
}

// TestQueryMetricsOneRule pins the one rule Result.Metrics follows on
// every topology, single query or batch: Secure is the coordinator's
// aggregate in both modes — Shards the partition width, 0 for a table
// served whole — and a basic query additionally carries SkNNb's own
// phases, all of them timed.
func TestQueryMetricsOneRule(t *testing.T) {
	const attrBits, k = 4, 2
	tbl, err := dataset.Generate(561, 10, 2, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]uint64{{3, 3}, {12, 1}}
	for _, topo := range []struct {
		name             string
		shards, replicas int
		partitions       int // what SecureMetrics.Shards reports
	}{{"1x1", 1, 1, 0}, {"1x2", 1, 2, 0}, {"2x1", 2, 1, 2}} {
		t.Run(topo.name, func(t *testing.T) {
			sys, err := New(tbl.Rows, attrBits, Config{Key: facadeKey(), Workers: 2, Shards: topo.shards, Replicas: topo.replicas})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			for _, mode := range []Mode{ModeBasic, ModeSecure} {
				single, err := sys.Query(context.Background(), queries[0], WithK(k), WithMode(mode))
				if err != nil {
					t.Fatal(err)
				}
				batch, err := sys.QueryBatch(context.Background(), queries, WithK(k), WithMode(mode))
				if err != nil {
					t.Fatal(err)
				}
				for i, res := range append([]*Result{single}, batch...) {
					if res == nil || res.Metrics == nil || res.Metrics.Secure == nil {
						t.Fatalf("%v result %d: metrics missing: %+v", mode, i, res)
					}
					sm, bm := res.Metrics.Secure, res.Metrics.Basic
					if sm.Shards != topo.partitions {
						t.Errorf("%v result %d: Secure.Shards = %d, want %d", mode, i, sm.Shards, topo.partitions)
					}
					if sm.Total <= 0 || sm.Scatter <= 0 || sm.Merge <= 0 || sm.Reveal <= 0 || sm.Comm.Rounds == 0 {
						t.Errorf("%v result %d: coordinator aggregate incomplete: %+v", mode, i, sm)
					}
					if mode == ModeSecure {
						if bm != nil {
							t.Errorf("secure result %d carries basic metrics", i)
						}
						if sm.SMINCount == 0 || sm.Candidates != tbl.N() {
							t.Errorf("secure result %d: counters %+v", i, sm)
						}
						continue
					}
					if bm == nil || bm.Total <= 0 || bm.Distance <= 0 || bm.Rank <= 0 || bm.Reveal <= 0 {
						t.Fatalf("basic result %d: phases not all timed: %+v", i, bm)
					}
					if bm.Comm != sm.Comm || bm.Total != sm.Total {
						t.Errorf("basic result %d: Basic %+v not read off the aggregate %+v", i, bm, sm)
					}
				}
			}
		})
	}
}

// TestShardedStreamingSerialDifferential pins the facade-level contract
// of the pipelined gather: in both index modes, a 3-shard System whose
// merge session borrows its shards' links (Workers 2) returns the
// identical top-k distance multiset as the paper's serial, single-link
// protocol (reference.SkNNm), and both match the plaintext oracle.
func TestShardedStreamingSerialDifferential(t *testing.T) {
	const attrBits, k = 5, 3
	tbl, err := dataset.GenerateClustered(571, 30, 2, attrBits, 3)
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]uint64{tbl.Rows[2], {3, 28}}
	serial := make([][][]uint64, len(queries))
	for i, q := range queries {
		serial[i] = referenceRows(t, facadeKey(), tbl.Rows, attrBits, 2, q, k)
		oracleCheck(t, tbl.Rows, serial[i], q, k)
	}
	for _, index := range []IndexMode{IndexNone, IndexClustered} {
		streaming, err := New(tbl.Rows, attrBits, Config{
			Key: facadeKey(), Shards: 3, Workers: 2, Index: index, Clusters: 3, Coverage: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer streaming.Close()
		for i, q := range queries {
			got, err := queryRows(streaming, q, k, ModeSecure)
			if err != nil {
				t.Fatalf("index %v streaming: %v", index, err)
			}
			ds := func(rows [][]uint64) []uint64 {
				out := make([]uint64, len(rows))
				for i, row := range rows {
					var err error
					if out[i], err = plainknn.SquaredDistance(row[:len(q)], q); err != nil {
						t.Fatal(err)
					}
				}
				sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
				return out
			}
			sd, wd := ds(got), ds(serial[i])
			for i := range sd {
				if sd[i] != wd[i] {
					t.Fatalf("index %v q=%v: streaming distances %v, serial %v", index, q, sd, wd)
				}
			}
			oracleCheck(t, tbl.Rows, got, q, k)
		}
	}
}
