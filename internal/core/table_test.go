package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/paillier"
	"sknn/internal/smc"
)

func TestEncryptTableShape(t *testing.T) {
	sk := testKey()
	rows := [][]uint64{{1, 2, 3}, {4, 5, 6}}
	tbl, err := EncryptTable(rand.Reader, &sk.PublicKey, rows)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.N() != 2 || tbl.Shape().M != 3 {
		t.Fatalf("shape = %dx%d", tbl.N(), tbl.Shape().M)
	}
	// Decrypting a cell recovers the plaintext.
	m, err := sk.Decrypt(tbl.records[1][2])
	if err != nil {
		t.Fatal(err)
	}
	if m.Int64() != 6 {
		t.Errorf("cell (1,2) = %v, want 6", m)
	}
}

func TestEncryptTableValidation(t *testing.T) {
	sk := testKey()
	if _, err := EncryptTable(rand.Reader, &sk.PublicKey, nil); err == nil {
		t.Error("empty table accepted")
	}
	if _, err := EncryptTable(rand.Reader, &sk.PublicKey, [][]uint64{{1, 2}, {3}}); err == nil {
		t.Error("ragged table accepted")
	}
}

// TestAttrBitsTravels: the table's attribute width is what EncryptTable
// saw, widens to a declared domain and never narrows, and goes wherever
// the ciphertexts go — derived views, snapshots, splits and merges.
func TestAttrBitsTravels(t *testing.T) {
	pk := &testKey().PublicKey
	for _, tc := range []struct {
		rows [][]uint64
		want int
	}{
		{[][]uint64{{0, 0}, {0, 0}}, 1},
		{[][]uint64{{1, 0}, {0, 1}}, 1},
		{[][]uint64{{3, 4}, {2, 1}}, 3},
		{[][]uint64{{3, 1}, {2, 255}}, 8}, // a payload column counts
		{[][]uint64{{1<<24 - 1}}, 24},     // the widest a table admits
	} {
		tbl, err := EncryptTable(rand.Reader, pk, tc.rows)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Shape().AttrBits != tc.want {
			t.Errorf("EncryptTable(%v) is %d bits wide, want %d", tc.rows, tbl.Shape().AttrBits, tc.want)
		}
	}

	tbl, err := EncryptTable(rand.Reader, pk, [][]uint64{{3, 4}, {2, 1}, {5, 5}, {0, 7}})
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{2, 0, -1, dataset.MaxAttrBits + 1} {
		if _, err := tbl.WithAttrBits(bits); err == nil {
			t.Errorf("a 3-bit table declared %d bits wide", bits)
		}
	}
	if same, err := tbl.WithAttrBits(3); err != nil || same.Shape().AttrBits != 3 {
		t.Errorf("declaring the derived width: %v", err)
	}
	wide, err := tbl.WithAttrBits(12)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Shape().AttrBits != 3 || wide.Shape().AttrBits != 12 {
		t.Fatalf("widths %d and %d, want 3 and 12", tbl.Shape().AttrBits, wide.Shape().AttrBits)
	}
	if _, err := wide.WithAttrBits(11); err == nil {
		t.Error("a declared width narrowed")
	}
	feat, err := wide.WithFeatureColumns(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := feat.SetClusterIndex(rand.Reader, [][]uint64{{2}, {5}}, [][]int{{0, 1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	snap := feat.Snapshot()
	restored, err := RestoreTable(pk, snap)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := snap.Split(2)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeTableSnapshots(parts)
	if err != nil {
		t.Fatal(err)
	}
	for what, got := range map[string]int{
		"clustered feature view": feat.Shape().AttrBits, "its session view": feat.view().Shape.AttrBits,
		"snapshot": snap.Shape.AttrBits, "restored table": restored.Shape().AttrBits,
		"shard 0": parts[0].Shape.AttrBits, "shard 1": parts[1].Shape.AttrBits, "merged snapshot": merged.Shape.AttrBits,
	} {
		if got != 12 {
			t.Errorf("%s is %d bits wide, want 12", what, got)
		}
	}

	parts[1].Shape.AttrBits = 11
	if _, err := MergeTableSnapshots(parts); !errors.Is(err, ErrShardTopology) {
		t.Errorf("merging shards of different widths: err = %v, want ErrShardTopology", err)
	}
	for _, bits := range []int{0, -3, dataset.MaxAttrBits + 1} {
		bad := tbl.Snapshot()
		bad.Shape.AttrBits = bits
		if _, err := RestoreTable(pk, bad); err == nil {
			t.Errorf("restored a snapshot declaring %d-bit attributes", bits)
		}
	}
}

// TestTableWidthBound: dataset.MaxAttrBits is the one attribute-width
// bound, and every way a table is built stops there — EncryptTable on a
// value's width, WithAttrBits on a declared one, RestoreTable on a
// snapshot's (the store's reader and writer and the shard hello check the
// same constant) — so no table reaches a snapshot that cannot be read
// back. 24 bits is admitted; 25 and 64 are dataset.ErrBadAttrBits.
func TestTableWidthBound(t *testing.T) {
	pk := &testKey().PublicKey
	for _, bits := range []int{24, 25, 64} {
		admitted := bits <= dataset.MaxAttrBits
		check := func(what string, err error) {
			t.Helper()
			if admitted && err != nil {
				t.Errorf("%s at %d bits: %v", what, bits, err)
			}
			if !admitted && !errors.Is(err, dataset.ErrBadAttrBits) {
				t.Errorf("%s at %d bits: err = %v, want dataset.ErrBadAttrBits", what, bits, err)
			}
		}
		widest := uint64(1)<<(bits-1) | 1 // bits.Len64 = bits
		_, err := EncryptTable(rand.Reader, pk, [][]uint64{{widest, 0}, {1, 2}})
		check("EncryptTable", err)

		narrow, err := EncryptTable(rand.Reader, pk, [][]uint64{{3, 0}, {1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = narrow.WithAttrBits(bits)
		check("WithAttrBits", err)
		snap := narrow.Snapshot()
		snap.Shape.AttrBits = bits
		_, err = RestoreTable(pk, snap)
		check("RestoreTable", err)
	}
}

// TestPackedRowsFailOnUnpackableRow: a row that fails to pack fails the
// query — there is no slower path to take — and stays unrendered in the
// memo for the next query to try.
func TestPackedRowsFailOnUnpackableRow(t *testing.T) {
	pk := &testKey().PublicKey
	row, err := pk.EncryptUint64Vector(rand.Reader, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	packs := &rowPacks{}
	broken := func(pos int) []*paillier.Ciphertext {
		if pos == 1 {
			return nil // PackRow refuses an empty row
		}
		return row
	}
	v := &tableView{TableSnapshot: &TableSnapshot{Shape: dataset.Shape{AttrBits: 4}}, pk: pk}
	rows, err := v.packedRows(packs, []int{0, 1, 2}, broken)
	if !errors.Is(err, smc.ErrEmptyInput) || rows != nil {
		t.Fatalf("a row that does not pack: rows %v, err %v; want smc.ErrEmptyInput", rows, err)
	}
	rows, err = v.packedRows(packs, []int{0, 1, 2}, func(int) []*paillier.Ciphertext { return row })
	if err != nil || rows == nil || len(rows.Rows) != 3 || len(rows.Rows[1]) != 1 {
		t.Fatalf("packing again after the failure: rows %+v, err %v", rows, err)
	}
}

func TestLiveTableBookkeeping(t *testing.T) {
	sk := testKey()
	tbl, err := EncryptTable(rand.Reader, &sk.PublicKey, [][]uint64{{1}, {2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	// Seed rows carry ids 0..2; inserts continue the sequence.
	rec, err := sk.PublicKey.EncryptUint64Vector(rand.Reader, []uint64{4})
	if err != nil {
		t.Fatal(err)
	}
	id := tbl.NextID()
	if err := tbl.InsertWithID(id, rec, -1); err != nil {
		t.Fatal(err)
	}
	if id != 3 || tbl.N() != 4 || len(tbl.records) != 4 {
		t.Fatalf("after insert: id=%d N=%d stored=%d", id, tbl.N(), len(tbl.records))
	}
	if err := tbl.Delete(1); err != nil {
		t.Fatal(err)
	}
	if tbl.N() != 3 || len(tbl.records) != 4 || !tbl.dead[1] {
		t.Fatalf("after delete: N=%d stored=%d dead(1)=%v", tbl.N(), len(tbl.records), tbl.dead[1])
	}
	if err := tbl.Delete(1); err == nil {
		t.Error("double delete accepted")
	}
	if err := tbl.Delete(99); err == nil {
		t.Error("delete of unknown id accepted")
	}
	if got := tbl.DirtyFraction(); got != 0.5 { // 1 tombstone + 1 insert over 4 stored
		t.Errorf("DirtyFraction = %v, want 0.5", got)
	}
	if removed := tbl.Compact(); removed != 1 {
		t.Fatalf("Compact removed %d, want 1", removed)
	}
	if tbl.N() != 3 || len(tbl.records) != 3 || tbl.DirtyFraction() != 0 {
		t.Fatalf("after compact: N=%d stored=%d dirty=%v", tbl.N(), len(tbl.records), tbl.DirtyFraction())
	}
	// Ids survive compaction: positions renumber, handles do not.
	wantIDs := []uint64{0, 2, 3}
	wantVals := []uint64{1, 3, 4}
	for i := range wantIDs {
		if tbl.ids[i] != wantIDs[i] {
			t.Errorf("position %d id = %d, want %d", i, tbl.ids[i], wantIDs[i])
		}
		v, err := sk.Decrypt(tbl.records[i][0])
		if err != nil {
			t.Fatal(err)
		}
		if v.Uint64() != wantVals[i] {
			t.Errorf("position %d value = %v, want %d", i, v, wantVals[i])
		}
	}
	// Deleting a surviving id still works after renumbering.
	if err := tbl.Delete(3); err != nil {
		t.Fatal(err)
	}
	if tbl.N() != 2 {
		t.Fatalf("N = %d after deleting id 3, want 2", tbl.N())
	}
}

func TestLiveTableClusteredMutation(t *testing.T) {
	sk := testKey()
	tbl, err := EncryptTable(rand.Reader, &sk.PublicKey, [][]uint64{{1, 1}, {2, 2}, {30, 30}, {31, 31}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetClusterIndex(rand.Reader,
		[][]uint64{{1, 1}, {30, 30}}, [][]int{{0, 1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	rec, err := sk.PublicKey.EncryptUint64Vector(rand.Reader, []uint64{29, 29})
	if err != nil {
		t.Fatal(err)
	}
	id := tbl.NextID()
	if err := tbl.InsertWithID(id, rec, -1); err == nil {
		t.Error("clustered insert without cluster assignment accepted")
	}
	if err := tbl.InsertWithID(id, rec, 5); err == nil {
		t.Error("clustered insert with out-of-range cluster accepted")
	}
	if err := tbl.InsertWithID(id, rec, 1); err != nil {
		t.Fatal(err)
	}
	if got := tbl.index.members[1]; len(got) != 3 || got[2] != 4 {
		t.Fatalf("cluster 1 members = %v, want [2 3 4]", got)
	}
	// Delete a member, Compact, and the membership lists renumber.
	if err := tbl.Delete(2); err != nil {
		t.Fatal(err)
	}
	tbl.Compact()
	if got := tbl.index.members[1]; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("cluster 1 members after compact = %v, want [2 3]", got)
	}
	if tbl.N() != 4 {
		t.Fatalf("N = %d, want 4", tbl.N())
	}
	// SetClusterIndex replaces the layout in place on a clean table.
	if err := tbl.SetClusterIndex(rand.Reader,
		[][]uint64{{1, 1}, {30, 30}}, [][]int{{0, 1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetClusterIndex(rand.Reader,
		[][]uint64{{1, 1}}, [][]int{{0, 1, 2, 3}}); err == nil {
		t.Error("SetClusterIndex accepted a table with tombstones")
	}
	_ = id
}

// TestSetClusterIndexRefusesWideCentroid: a centroid packs into the same
// SSED slots as the records, so every centroid value must be below
// 2^Shape().AttrBits, like every column. One at 2^b is refused — whichever
// attribute holds it, and leaving the index the table had — and the same
// value is accepted once WithAttrBits has widened the table past it.
func TestSetClusterIndexRefusesWideCentroid(t *testing.T) {
	sk := testKey()
	tbl, err := EncryptTable(rand.Reader, &sk.PublicKey, [][]uint64{{1, 2}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if b := tbl.Shape().AttrBits; b != 2 {
		t.Fatalf("AttrBits = %d, want 2", b)
	}
	members := [][]int{{0, 1}}
	if err := tbl.SetClusterIndex(rand.Reader, [][]uint64{{3, 3}}, members); err != nil {
		t.Fatalf("centroid at the top of the domain: %v", err)
	}
	for _, cent := range [][]uint64{{4, 0}, {0, 4}, {1<<64 - 1, 1}} {
		if err := tbl.SetClusterIndex(rand.Reader, [][]uint64{cent}, members); err == nil {
			t.Errorf("centroid %v accepted at attribute width 2", cent)
		}
	}
	if tbl.Clusters() != 1 || tbl.index.centroids == nil {
		t.Error("a refused index replaced the table's index")
	}
	wide, err := tbl.WithAttrBits(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.SetClusterIndex(rand.Reader, [][]uint64{{4, 7}}, members); err != nil {
		t.Errorf("centroid {4, 7} at attribute width 3: %v", err)
	}
	if err := wide.SetClusterIndex(rand.Reader, [][]uint64{{8, 0}}, members); err == nil {
		t.Error("centroid {8, 0} accepted at attribute width 3")
	}
}

func TestViewMemoization(t *testing.T) {
	sk := testKey()
	tbl, err := EncryptTable(rand.Reader, &sk.PublicKey, [][]uint64{{1}, {2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := tbl.view()
	if v2 := tbl.view(); v2 != v1 {
		t.Error("unmutated table rebuilt its view")
	}
	if err := tbl.Delete(1); err != nil {
		t.Fatal(err)
	}
	v3 := tbl.view()
	if v3 == v1 {
		t.Error("mutation did not invalidate the memoized view")
	}
	// The old view is frozen at its capture point.
	if v1.N() != 3 || v3.N() != 2 {
		t.Errorf("view N = %d/%d, want 3/2", v1.N(), v3.N())
	}
	if v4 := tbl.view(); v4 != v3 {
		t.Error("view not memoized after rebuild")
	}
}

// TestPackedRenderingsSurviveMutation is the regression test for the
// re-pack-everything-per-mutation bug: a row's packed renderings (the
// SSED feature groups, the row-packed record, the centroids) are built
// once and then travel with the row across Insert, Delete and any number
// of Compacts, so the query after a mutation packs only what is new.
// Identity of the returned ciphertexts is the witness — packing always
// allocates.
func TestPackedRenderingsSurviveMutation(t *testing.T) {
	sk := testKey()
	pk := &sk.PublicKey
	rows := [][]uint64{{1, 1, 7}, {2, 2, 6}, {30, 30, 5}, {31, 31, 4}}
	tbl, err := EncryptTable(rand.Reader, pk, rows)
	if err != nil {
		t.Fatal(err)
	}
	if tbl, err = tbl.WithFeatureColumns(2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetClusterIndex(rand.Reader, [][]uint64{{1, 1}, {30, 30}}, [][]int{{0, 1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	if layout := rowLayoutFor(pk.Bits(), dataset.Shape{M: 3, AttrBits: tbl.Shape().AttrBits}); layout != (RowLayout{Cols: 3, Bits: 5}) {
		t.Fatalf("layout %+v, want one chunk of three 5-bit columns", layout)
	}
	type rendering struct{ feat, rec, cent []*paillier.Ciphertext }
	render := func(v *tableView, idx []int) rendering {
		t.Helper()
		recs, err := v.recordRows(idx)
		if err != nil {
			t.Fatal(err)
		}
		feats, err := v.packedFeatureRows(idx)
		if err != nil {
			t.Fatal(err)
		}
		cents, err := v.packedCentroids()
		if err != nil {
			t.Fatal(err)
		}
		var out rendering
		for i := range idx {
			out.feat = append(out.feat, feats.Rows[i][0])
			out.rec = append(out.rec, recs[i][0])
		}
		for _, row := range cents.Rows {
			out.cent = append(out.cent, row[0])
		}
		return out
	}
	same := func(what string, got, want []*paillier.Ciphertext) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: row %d was packed again", what, i)
			}
		}
	}

	v0 := tbl.view()
	r0 := render(v0, []int{0, 1, 2, 3})
	// The packed record decrypts to t₀ ‖ t₁ ‖ t₂, lowest column lowest.
	if got, err := sk.Decrypt(r0.rec[2]); err != nil || got.Int64() != 30|30<<5|5<<10 {
		t.Fatalf("row-packed record 2 decrypts to %v (%v)", got, err)
	}

	rec, err := pk.EncryptUint64Vector(rand.Reader, []uint64{29, 29, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertWithID(tbl.NextID(), rec, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(1); err != nil {
		t.Fatal(err)
	}
	v1 := tbl.view()
	if v1 == v0 {
		t.Fatal("mutation kept the memoized view")
	}
	r1 := render(v1, []int{0, 1, 2, 3, 4})
	same("features after insert+delete", r1.feat, r0.feat)
	same("records after insert+delete", r1.rec, r0.rec)
	same("centroids after insert+delete", r1.cent, r0.cent)

	// Compact drops position 1; survivors keep their renderings under the
	// new positions, twice over (the memo is resized to the new table, not
	// the old one), and a view pinned before the Compact still resolves
	// its own positions.
	if tbl.Compact() != 1 {
		t.Fatal("Compact removed nothing")
	}
	if err := tbl.Delete(0); err != nil {
		t.Fatal(err)
	}
	if tbl.Compact() != 1 {
		t.Fatal("second Compact removed nothing")
	}
	r2 := render(tbl.view(), []int{0, 1, 2}) // old positions 2, 3, 4
	same("features after two compacts", r2.feat, r1.feat[2:])
	same("records after two compacts", r2.rec, r1.rec[2:])
	same("centroids after two compacts", r2.cent, r0.cent)
	same("pre-compact view", render(v1, []int{0, 2, 4}).rec, []*paillier.Ciphertext{r1.rec[0], r1.rec[2], r1.rec[4]})

	// A rebuilt index has new centroids, hence new renderings.
	if err := tbl.SetClusterIndex(rand.Reader, [][]uint64{{30, 30}}, [][]int{{0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	if r3 := render(tbl.view(), []int{0}); r3.cent[0] == r0.cent[0] || r3.cent[0] == r0.cent[1] {
		t.Error("SetClusterIndex kept a stale packed centroid")
	}
}

// TestPackedRenderingsConcurrentMutation renders rows from several
// goroutines, each through the view it opened, while another inserts,
// deletes and compacts: whatever layout a view pinned, every rendering
// it gets is the packed form of the record at that position in it. Run
// under -race.
func TestPackedRenderingsConcurrentMutation(t *testing.T) {
	sk := testKey()
	pk := &sk.PublicKey
	value := func(id uint64) uint64 { return id % 64 }
	row := func(id uint64) EncryptedRecord {
		rec, err := pk.EncryptUint64Vector(rand.Reader, []uint64{value(id), value(id + 1)})
		if err != nil {
			t.Error(err)
		}
		return rec
	}
	tbl, err := RestoreTable(pk, &TableSnapshot{Shape: dataset.Shape{M: 2, FeatureM: 2, AttrBits: 6}, NextID: 4,
		Records: []EncryptedRecord{row(0), row(1), row(2), row(3)},
		IDs:     []uint64{0, 1, 2, 3}, Dead: make([]bool, 4)})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := tbl.view()
				recs, err := v.recordRows(v.liveIdx)
				if err != nil {
					t.Errorf("rendering: %v", err)
					return
				}
				if _, err := v.packedFeatureRows(v.liveIdx); err != nil {
					t.Errorf("rendering: %v", err)
					return
				}
				for i, pos := range v.liveIdx {
					id := v.IDs[pos]
					got, err := sk.Decrypt(recs[i][0])
					if want := value(id) | value(id+1)<<6; err != nil || got.Uint64() != want {
						t.Errorf("id %d at position %d renders as %v (%v), want %d", id, pos, got, err, want)
						return
					}
				}
			}
		}()
	}
	for round := 0; round < 20; round++ {
		id := tbl.NextID()
		if err := tbl.InsertWithID(id, row(uint64(4+round)), -1); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Delete(id - 2); err != nil {
			t.Fatal(err)
		}
		if round%3 == 2 {
			tbl.Compact()
		}
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotRestoreRejectsBadState(t *testing.T) {
	sk := testKey()
	tbl, err := EncryptTable(rand.Reader, &sk.PublicKey, [][]uint64{{1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	good := tbl.Snapshot()
	if _, err := RestoreTable(&sk.PublicKey, good); err != nil {
		t.Fatal(err)
	}
	dupIDs := tbl.Snapshot()
	dupIDs.IDs[1] = dupIDs.IDs[0]
	if _, err := RestoreTable(&sk.PublicKey, dupIDs); err == nil {
		t.Error("duplicate ids accepted")
	}
	staleNext := tbl.Snapshot()
	staleNext.NextID = 1
	if _, err := RestoreTable(&sk.PublicKey, staleNext); err == nil {
		t.Error("id ≥ NextID accepted")
	}
	allDead := tbl.Snapshot()
	allDead.Dead[0], allDead.Dead[1] = true, true
	if _, err := RestoreTable(&sk.PublicKey, allDead); err == nil {
		t.Error("fully tombstoned snapshot accepted")
	}
	badPartition := tbl.Snapshot()
	badPartition.Centroids = []EncryptedRecord{tbl.records[0]}
	badPartition.Members = [][]int{{0}} // record 1 missing from the partition
	if _, err := RestoreTable(&sk.PublicKey, badPartition); err == nil {
		t.Error("incomplete cluster partition accepted")
	}
	// store.WriteSnapshot refuses such lists, so the engine must too.
	unordered := tbl.Snapshot()
	unordered.Centroids = []EncryptedRecord{tbl.records[0]}
	unordered.Members = [][]int{{1, 0}}
	if _, err := RestoreTable(&sk.PublicKey, unordered); err == nil {
		t.Error("descending member list accepted")
	}
}

// TestCopiesShareOnlyCiphertexts: WithAttrBits and WithFeatureColumns
// return tables that share their source's ciphertexts and nothing else.
// Mutating a copy of a clustered table — inserting into one of its
// clusters, deleting, compacting — leaves the source's records,
// tombstones and member lists as they were, so the source still
// snapshots and restores; and the other way round.
func TestCopiesShareOnlyCiphertexts(t *testing.T) {
	sk := testKey()
	pk := &sk.PublicKey
	src, err := EncryptTable(rand.Reader, pk, [][]uint64{{1, 1}, {2, 2}, {30, 30}, {31, 31}})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SetClusterIndex(rand.Reader, [][]uint64{{1, 1}, {30, 30}}, [][]int{{0, 1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	wide, err := src.WithAttrBits(12)
	if err != nil {
		t.Fatal(err)
	}
	feat, err := src.WithFeatureColumns(1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := pk.EncryptUint64Vector(rand.Reader, []uint64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.InsertWithID(wide.NextID(), rec, 0); err != nil {
		t.Fatal(err)
	}
	if err := feat.InsertWithID(feat.NextID(), rec, -1); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*EncryptedTable{wide, feat} {
		if err := c.Delete(1); err != nil {
			t.Fatal(err)
		}
		c.Compact()
	}

	want := [][]int{{0, 1}, {2, 3}}
	if got := src.Snapshot(); len(got.Records) != 4 || got.NextID != 4 || got.Dead[1] ||
		fmt.Sprint(got.Members) != fmt.Sprint(want) {
		t.Fatalf("source after mutating its copies: %d records, next id %d, dead %v, members %v; want 4, 4, none, %v",
			len(got.Records), got.NextID, got.Dead, got.Members, want)
	}
	if _, err := RestoreTable(pk, src.Snapshot()); err != nil {
		t.Fatalf("source no longer restores: %v", err)
	}
	if got := wide.Snapshot().Members; fmt.Sprint(got) != "[[0 3] [1 2]]" {
		t.Errorf("copy's members after insert, delete and compact = %v, want [[0 3] [1 2]]", got)
	}

	if err := src.Delete(0); err != nil {
		t.Fatal(err)
	}
	src.Compact()
	for name, c := range map[string]*EncryptedTable{"WithAttrBits": wide, "WithFeatureColumns": feat} {
		if c.N() != 4 {
			t.Errorf("%s copy holds %d records after the source compacted, want 4", name, c.N())
		}
		if _, err := RestoreTable(pk, c.Snapshot()); err != nil {
			t.Errorf("%s copy no longer restores: %v", name, err)
		}
	}
}
