package sknn

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/plainknn"
	"sknn/internal/testkit"
)

// This file is the end-to-end half of the packed-vs-unpacked conformance
// suite (the protocol-level half lives in internal/smc): the same SkNNm
// query runs once with the production tuning (packing + fixed-base, the
// Config zero value: row-packed records through extraction, merge and
// reveal) and once with both disabled (the classic wire format and the
// per-attribute record layout, our differential oracle), across both
// index modes and three topologies — unsharded, a 2-shard streaming
// merge, and a replicated 2-shard system answering through failover.
// The table carries a payload column so a shifted slot cannot hide. The
// two paths must return the same top-k rows, and both must match the
// plaintext oracle's k-distance multiset exactly — recall 1.0, not
// approximate.

// sortedRows canonicalizes a result set for multiset comparison.
func sortedRows(rows [][]uint64) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func TestDifferentialSecureQueryMatrix(t *testing.T) {
	const attrBits, k = 5, 3
	topologies := []struct {
		name     string
		shards   int
		replicas int // > 1: replica 1 of every shard is killed before the query
	}{
		{"unsharded", 0, 0},
		{"sharded2", 2, 0},
		{"sharded2-failover", 2, 2},
	}
	indexes := []struct {
		name string
		mode IndexMode
	}{
		{"flat", IndexNone},
		{"clustered", IndexClustered},
	}
	tbl, err := dataset.GenerateClustered(501, 36, 2, attrBits, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tbl.Rows {
		tbl.Rows[i] = append(row, uint64(31-i%32)) // payload: never ranks, must come back intact
	}
	q, err := dataset.GenerateQuery(502, 2, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	features := make([][]uint64, len(tbl.Rows))
	for i, row := range tbl.Rows {
		features[i] = row[:2]
	}
	oracle, err := plainknn.KDistances(features, q, k)
	if err != nil {
		t.Fatal(err)
	}

	for _, topo := range topologies {
		for _, idx := range indexes {
			t.Run(topo.name+"/"+idx.name, func(t *testing.T) {
				cfg := Config{
					Key: facadeKey(), Shards: topo.shards, Replicas: topo.replicas,
					Index: idx.mode, FeatureColumns: 2,
				}
				if idx.mode == IndexClustered {
					cfg.Clusters = 4
					cfg.Coverage = 8
				}
				classicCfg := cfg
				classicCfg.DisablePacking = true
				classicCfg.DisableFixedBase = true

				run := func(c Config) [][]uint64 {
					sys, err := New(tbl.Rows, attrBits, c)
					if err != nil {
						t.Fatal(err)
					}
					defer sys.Close()
					for shard := 0; topo.replicas > 1 && shard < topo.shards; shard++ {
						if err := sys.CloseReplica(shard, 1); err != nil {
							t.Fatal(err)
						}
					}
					rows, err := queryRows(sys, q, k, ModeSecure)
					if err != nil {
						t.Fatal(err)
					}
					return rows
				}
				packed := run(cfg)
				classic := run(classicCfg)

				// Identical top-k between the two wire formats.
				gp, gc := sortedRows(packed), sortedRows(classic)
				for i := range gp {
					if gp[i] != gc[i] {
						t.Fatalf("packed top-k %v diverges from classic %v", gp, gc)
					}
				}
				// Recall 1.0 against the plaintext oracle: the distance
				// multiset must match exactly.
				ds := make([]uint64, len(packed))
				for i, row := range packed {
					ds[i], err = plainknn.SquaredDistance(row[:len(q)], q)
					if err != nil {
						t.Fatal(err)
					}
				}
				sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
				if len(ds) != len(oracle) {
					t.Fatalf("got %d neighbors, want %d", len(ds), len(oracle))
				}
				for i := range oracle {
					if ds[i] != oracle[i] {
						t.Fatalf("distances = %v, oracle %v", ds, oracle)
					}
				}
			})
		}
	}
}

// TestDifferentialConfigKnobs pins the Config wiring itself: the zero
// value enables both optimizations, and each knob reaches the layer it
// governs.
func TestDifferentialConfigKnobs(t *testing.T) {
	tbl, _ := dataset.Generate(511, 6, 2, 3)
	on, err := New(tbl.Rows, 3, Config{Key: facadeKey()})
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	if !on.sk.FixedBaseEnabled() {
		t.Error("zero-value Config left fixed-base disabled")
	}
	if !on.c1.Tuning().Packing {
		t.Error("zero-value Config left packing disabled")
	}
	off, err := New(tbl.Rows, 3, Config{
		Key: facadeKey(), DisablePacking: true, DisableFixedBase: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if off.c1.Tuning().Packing {
		t.Error("DisablePacking did not reach the pool tuning")
	}
}

// TestSecureScanCostAtBenchShape holds the row-packed extraction's gain
// in tier-1: at bench/'s secure_scan shape (n=8, m=6, attrBits=4, k=2,
// one link, a 512-bit key) a query takes exactly 91 C1↔C2 round trips
// and — one ciphertext per record through extraction and reveal instead
// of six — moves strictly fewer bytes than the 76568 the per-attribute
// layout did (bench/baseline/ledger.json, c2_bytes_per_query).
func TestSecureScanCostAtBenchShape(t *testing.T) {
	const n, m, attrBits, k = 8, 6, 4, 2
	tbl, err := dataset.Generate(1, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tbl.Rows, attrBits, Config{Key: testkit.Key(512), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	q, err := dataset.GenerateQuery(2, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(context.Background(), q, WithK(k), WithMode(ModeSecure))
	if err != nil {
		t.Fatal(err)
	}
	oracleCheck(t, tbl.Rows, res.Rows, q, k)
	comm := res.Metrics.Secure.Comm
	if comm.Rounds != 91 {
		t.Errorf("query took %d round trips, want 91", comm.Rounds)
	}
	if moved := comm.BytesSent + comm.BytesReceived; moved >= 76568 {
		t.Errorf("query moved %d bytes between the clouds, want fewer than the per-attribute layout's 76568", moved)
	}
}

// TestRowPackedLiveCycle queries between every kind of mutation, so each
// query after the first finds the table's packed renderings one mutation
// stale: an insert appended to them, a delete, two compactions moving
// them, a save and reload starting them over. Whole rows — the payload
// column included — are compared with a plaintext mirror.
func TestRowPackedLiveCycle(t *testing.T) {
	const attrBits, k = 4, 3
	tbl, err := dataset.Generate(921, 10, 3, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tbl.Rows, attrBits, Config{Key: facadeKey(), FeatureColumns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	mirror := make(map[uint64][]uint64)
	for i, row := range tbl.Rows {
		mirror[uint64(i)] = row
	}
	q := []uint64{7, 8}
	check := func(sys *System, step string) {
		t.Helper()
		live := make([][]uint64, 0, len(mirror)) // feature prefixes, for the oracle
		known := make(map[string]bool, len(mirror))
		for _, row := range mirror {
			live = append(live, row[:len(q)])
			known[fmt.Sprint(row)] = true
		}
		got, err := queryRows(sys, q, k, ModeSecure)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		oracleCheck(t, live, got, q, k)
		for _, row := range got {
			if !known[fmt.Sprint(row)] {
				t.Fatalf("%s: returned %v, not a live row", step, row)
			}
		}
	}
	check(sys, "fresh table")
	for _, row := range [][]uint64{{7, 8, 15}, {6, 8, 0}} {
		id, err := sys.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		mirror[id] = row
		check(sys, "after insert")
	}
	for _, id := range []uint64{2, 10} {
		if err := sys.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(mirror, id)
		check(sys, "after delete")
		if err := sys.Compact(); err != nil {
			t.Fatal(err)
		}
		check(sys, "after compact")
	}
	var buf bytes.Buffer
	if err := sys.SaveTable(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTable(&buf, facadeKey(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	check(loaded, "after reload")
	id, err := loaded.Insert([]uint64{7, 7, 1})
	if err != nil {
		t.Fatal(err)
	}
	mirror[id] = []uint64{7, 7, 1}
	check(loaded, "after insert on the reloaded table")
}
