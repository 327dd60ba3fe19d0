package core

import (
	"crypto/rand"
	"errors"
	"sync"
	"testing"

	"sknn/internal/paillier"
	"sknn/internal/smc"
	"sknn/internal/testkit"
)

func TestEncryptTableShape(t *testing.T) {
	sk := testKey()
	rows := [][]uint64{{1, 2, 3}, {4, 5, 6}}
	tbl, err := EncryptTable(rand.Reader, &sk.PublicKey, rows)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.N() != 2 || tbl.M() != 3 {
		t.Fatalf("shape = %dx%d", tbl.N(), tbl.M())
	}
	// Decrypting a cell recovers the plaintext.
	m, err := sk.Decrypt(tbl.Record(1)[2])
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
		{[][]uint64{{1<<64 - 1}}, 64},
	} {
		tbl, err := EncryptTable(rand.Reader, pk, tc.rows)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.AttrBits() != tc.want {
			t.Errorf("EncryptTable(%v) is %d bits wide, want %d", tc.rows, tbl.AttrBits(), tc.want)
		}
	}

	tbl, err := EncryptTable(rand.Reader, pk, [][]uint64{{3, 4}, {2, 1}, {5, 5}, {0, 7}})
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{2, 0, -1, maxAttrBits + 1} {
		if _, err := tbl.WithAttrBits(bits); err == nil {
			t.Errorf("a 3-bit table declared %d bits wide", bits)
		}
	}
	if same, err := tbl.WithAttrBits(3); err != nil || same.AttrBits() != 3 {
		t.Errorf("declaring the derived width: %v", err)
	}
	wide, err := tbl.WithAttrBits(12)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.AttrBits() != 3 || wide.AttrBits() != 12 {
		t.Fatalf("widths %d and %d, want 3 and 12", tbl.AttrBits(), wide.AttrBits())
	}
	if _, err := wide.WithAttrBits(11); err == nil {
		t.Error("a declared width narrowed")
	}
	feat, err := wide.WithFeatureColumns(1)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := feat.WithClusterIndex(rand.Reader, [][]uint64{{2}, {5}}, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	snap := clustered.Snapshot()
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
		"feature view": feat.AttrBits(), "clustered view": clustered.AttrBits(), "its session view": clustered.view().attrBits,
		"snapshot": snap.AttrBits, "restored table": restored.AttrBits(),
		"shard 0": parts[0].AttrBits, "shard 1": parts[1].AttrBits, "merged snapshot": merged.AttrBits,
	} {
		if got != 12 {
			t.Errorf("%s is %d bits wide, want 12", what, got)
		}
	}

	parts[1].AttrBits = 11
	if _, err := MergeTableSnapshots(parts); !errors.Is(err, ErrShardTopology) {
		t.Errorf("merging shards of different widths: err = %v, want ErrShardTopology", err)
	}
	for _, bits := range []int{0, -3, maxAttrBits + 1} {
		bad := tbl.Snapshot()
		bad.AttrBits = bits
		if _, err := RestoreTable(pk, bad); err == nil {
			t.Errorf("restored a snapshot declaring %d-bit attributes", bits)
		}
	}
}

// TestPackedRowsFallsBackOnlyOnKeySize: a key with no room for one SSED
// slot yields no packed rows and no error — the classic fallback — while
// a row that fails to pack fails the query instead of quietly taking the
// slow path, and stays unrendered in the memo for the next query to try.
func TestPackedRowsFallsBackOnlyOnKeySize(t *testing.T) {
	small := &testkit.Key(64).PublicKey
	row, err := small.EncryptUint64Vector(rand.Reader, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := packedRows(small, &rowPacks{}, 4, []int{0}, func(int) []*paillier.Ciphertext { return row })
	if rows != nil || err != nil {
		t.Errorf("64-bit key, 4-bit values: rows %v, err %v; want neither", rows, err)
	}

	pk := &testKey().PublicKey
	if row, err = pk.EncryptUint64Vector(rand.Reader, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	packs := &rowPacks{}
	broken := func(pos int) []*paillier.Ciphertext {
		if pos == 1 {
			return nil // PackRow refuses an empty row
		}
		return row
	}
	if rows, err = packedRows(pk, packs, 4, []int{0, 1, 2}, broken); !errors.Is(err, smc.ErrEmptyInput) || rows != nil {
		t.Fatalf("a row that does not pack: rows %v, err %v; want smc.ErrEmptyInput", rows, err)
	}
	rows, err = packedRows(pk, packs, 4, []int{0, 1, 2}, func(int) []*paillier.Ciphertext { return row })
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
	id, err := tbl.Insert(rec, -1)
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 || tbl.N() != 4 || tbl.Stored() != 4 {
		t.Fatalf("after insert: id=%d N=%d Stored=%d", id, tbl.N(), tbl.Stored())
	}
	if err := tbl.Delete(1); err != nil {
		t.Fatal(err)
	}
	if tbl.N() != 3 || tbl.Stored() != 4 || !tbl.IsDeleted(1) {
		t.Fatalf("after delete: N=%d Stored=%d dead(1)=%v", tbl.N(), tbl.Stored(), tbl.IsDeleted(1))
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
	if tbl.N() != 3 || tbl.Stored() != 3 || tbl.DirtyFraction() != 0 {
		t.Fatalf("after compact: N=%d Stored=%d dirty=%v", tbl.N(), tbl.Stored(), tbl.DirtyFraction())
	}
	// Ids survive compaction: positions renumber, handles do not.
	wantIDs := []uint64{0, 2, 3}
	wantVals := []uint64{1, 3, 4}
	for i := range wantIDs {
		if tbl.RecordID(i) != wantIDs[i] {
			t.Errorf("position %d id = %d, want %d", i, tbl.RecordID(i), wantIDs[i])
		}
		v, err := sk.Decrypt(tbl.Record(i)[0])
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
	tbl, err = tbl.WithClusterIndex(rand.Reader,
		[][]uint64{{1, 1}, {30, 30}}, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sk.PublicKey.EncryptUint64Vector(rand.Reader, []uint64{29, 29})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(rec, -1); err == nil {
		t.Error("clustered insert without cluster assignment accepted")
	}
	if _, err := tbl.Insert(rec, 5); err == nil {
		t.Error("clustered insert with out-of-range cluster accepted")
	}
	id, err := tbl.Insert(rec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.ClusterMembers(1); len(got) != 3 || got[2] != 4 {
		t.Fatalf("cluster 1 members = %v, want [2 3 4]", got)
	}
	// Delete a member, Compact, and the membership lists renumber.
	if err := tbl.Delete(2); err != nil {
		t.Fatal(err)
	}
	tbl.Compact()
	if got := tbl.ClusterMembers(1); len(got) != 2 || got[0] != 2 || got[1] != 3 {
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
	tbl, err = tbl.WithClusterIndex(rand.Reader, [][]uint64{{1, 1}, {30, 30}}, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	const l = 12
	layout := rowLayoutFor(pk, 3, attrPackBits(l))
	if layout.Cols != 3 {
		t.Fatalf("layout %+v, want one chunk of 3", layout)
	}
	type rendering struct{ feat, rec, cent []*paillier.Ciphertext }
	render := func(v *tableView, idx []int) rendering {
		t.Helper()
		recs, err := v.recordRows(layout, idx)
		if err != nil {
			t.Fatal(err)
		}
		feats, err := v.packedFeatureRows(attrPackBits(l), idx)
		if err != nil {
			t.Fatal(err)
		}
		cents, err := v.packedCentroids(attrPackBits(l))
		if err != nil {
			t.Fatal(err)
		}
		if feats == nil || cents == nil {
			t.Fatal("256-bit key refused to pack")
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
	if got, err := sk.Decrypt(r0.rec[2]); err != nil || got.Int64() != 30|30<<6|5<<12 {
		t.Fatalf("row-packed record 2 decrypts to %v (%v)", got, err)
	}

	rec, err := pk.EncryptUint64Vector(rand.Reader, []uint64{29, 29, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(rec, 1); err != nil {
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
	const l = 12 // 6-bit slots
	value := func(id uint64) uint64 { return id % 64 }
	row := func(id uint64) EncryptedRecord {
		rec, err := pk.EncryptUint64Vector(rand.Reader, []uint64{value(id), value(id + 1)})
		if err != nil {
			t.Error(err)
		}
		return rec
	}
	tbl := newTable(pk, []EncryptedRecord{row(0), row(1), row(2), row(3)}, 2, 6)
	layout := rowLayoutFor(pk, 2, attrPackBits(l))
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
				recs, err := v.recordRows(layout, v.liveIdx)
				if err != nil {
					t.Errorf("rendering: %v", err)
					return
				}
				feats, err := v.packedFeatureRows(attrPackBits(l), v.liveIdx)
				if err != nil || feats == nil {
					t.Errorf("rendering: %v", err)
					return
				}
				for i, pos := range v.liveIdx {
					id := v.ids[pos]
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
		id, err := tbl.Insert(row(uint64(4+round)), -1)
		if err != nil {
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
	badPartition.Centroids = []EncryptedRecord{tbl.Record(0)}
	badPartition.Members = [][]int{{0}} // record 1 missing from the partition
	if _, err := RestoreTable(&sk.PublicKey, badPartition); err == nil {
		t.Error("incomplete cluster partition accepted")
	}
}
