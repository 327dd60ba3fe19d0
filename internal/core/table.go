package core

import (
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"sync"

	"sknn/internal/dataset"
	"sknn/internal/paillier"
	"sknn/internal/smc"
)

// EncryptedRecord is one row of the outsourced database, encrypted
// attribute-wise: ⟨E(t_{i,1}),…,E(t_{i,m})⟩.
type EncryptedRecord []*paillier.Ciphertext

// EncryptedTable is Alice's outsourced database E(T): records of m
// attributes, all encrypted under her Paillier public key. Since PR 3
// the table is *live*: the data owner can Insert freshly encrypted
// records, Delete existing ones (C1-side tombstones), and Compact the
// storage; queries stay safe under concurrent mutation because every
// QuerySession captures an immutable view of the table at session open.
//
// Every record carries a stable uint64 id: the n records present at
// construction get ids 0..n−1 in row order, and each Insert returns the
// next id. Ids survive Compact (which renumbers positions, not ids).
//
// Its shape (dataset.Shape) is fixed per table. featureM ≤ m marks how
// many leading attributes participate in distance computation; trailing
// columns (e.g. a class label) ride along encrypted and are returned to
// Bob but never influence ranking. This is the layout secure kNN
// *classification* needs (the paper's Section 2.1 points at
// classification as a direct application).
//
// attrBits is the attribute width b: every column of every record,
// stored now or inserted later, and every centroid value, is below 2^b.
// It is public (snapshot header, shard hello, every packed SSED frame)
// and sizes every packed slot of both protocols — SSED's and the row
// layout's; WithAttrBits widens it, nothing narrows it.
type EncryptedTable struct {
	pk    *paillier.PublicKey
	shape dataset.Shape

	mu       sync.RWMutex
	records  []EncryptedRecord // guarded by mu
	ids      []uint64          // guarded by mu; position -> stable record id
	byID     map[uint64]int    // guarded by mu; stable record id -> position
	nextID   uint64            // guarded by mu
	dead     []bool            // guarded by mu; position -> tombstoned
	deadN    int               // guarded by mu
	inserted int               // guarded by mu; inserts since construction/last Compact (dirty tracking)
	index    *clusterIndex     // guarded by mu; non-nil when a clustered layout is attached
	cached   *tableView        // guarded by mu; memoized immutable view; nil after any mutation
	packs    *rowPacks         // guarded by mu; packed renderings of records, by position; replaced by Compact
}

// clusterIndex is the partitioned layout behind the clustered secure
// index: per-cluster encrypted centroids plus the plaintext membership
// lists. The memberships are public by design — which records form a
// cluster is exactly the structural information the index trades away
// (C1 learns which clusters a query touches); the centroids themselves
// stay encrypted like any record. Membership lists may reference
// tombstoned positions; readers filter through the dead bitmap.
type clusterIndex struct {
	centroids []EncryptedRecord // c encrypted centroid vectors, featureM attributes each
	members   [][]int           // cluster -> ascending record positions; a partition of [0,n)
	packs     *rowPacks         // packed renderings of centroids; shared by every index over the same centroids
}

// rowPacks memoizes slot-packed renderings of stored rows (a table's
// records or an index's centroids), indexed by stored position: a row's
// feature prefix under the SSED slot codec, and the whole record in the
// table's row layout, both at the table's attribute width — the one
// width every query of either protocol packs at. The renderings are
// derived data: built by the first query that needs a row, never
// persisted. They stay with their row across mutations — between
// Compacts positions only grow by appends, so the slices are simply
// extended on demand, and Compact hands the surviving entries to a fresh
// memo under their new positions — which makes the cost a mutation
// leaves to the next query O(1) packings rather than a re-pack of the
// whole table. A view opened before a Compact keeps the memo of the
// layout it pinned.
type rowPacks struct {
	mu   sync.Mutex
	rows [renderings][][]*paillier.Ciphertext // guarded by mu; position -> packed ciphertexts, nil until packed
}

// rendering names one of a row's packed forms in the memo.
type rendering int

const (
	ssedRendering   rendering = iota // the feature prefix under the SSED slot codec
	recordRendering                  // the whole record in the row layout
	renderings
)

// get returns rendering r of the rows at the distinct positions idx,
// calling pack for (and remembering) those not rendered yet. The lock is
// held across the packing so concurrent sessions never pack a row twice.
func (p *rowPacks) get(r rendering, idx []int, pack func(pos int) ([]*paillier.Ciphertext, error)) ([][]*paillier.Ciphertext, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	memo := p.rows[r]
	for _, pos := range idx {
		if pos >= len(memo) {
			memo = append(memo, make([][]*paillier.Ciphertext, pos+1-len(memo))...)
		}
	}
	p.rows[r] = memo
	var missing []int
	for _, pos := range idx {
		if memo[pos] == nil {
			missing = append(missing, pos)
		}
	}
	// Rows pack independently, ~Width squarings per slot each: the missing
	// ones — the whole table on its first query — spread over idle cores.
	err := paillier.ForEach(len(missing), func(i int) error {
		row, err := pack(missing[i])
		if err != nil {
			return err
		}
		memo[missing[i]] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]*paillier.Ciphertext, len(idx))
	for i, pos := range idx {
		out[i] = memo[pos]
	}
	return out, nil
}

// remapped carries the memo over a Compact that keeps n rows: remap[old]
// is a row's new position, or −1 if it was dropped.
func (p *rowPacks) remapped(remap []int, n int) *rowPacks {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := &rowPacks{}
	for r, memo := range p.rows {
		if memo == nil {
			continue // a rendering no query has asked for
		}
		moved := make([][]*paillier.Ciphertext, n)
		for old, row := range memo {
			if remap[old] >= 0 {
				moved[remap[old]] = row
			}
		}
		out.rows[r] = moved
	}
	return out
}

// EncryptTable is Alice's one-time setup (Section 1.1): she encrypts her
// n×m table attribute-wise under pk, and the rows take ids 0..n−1. Rows
// must be rectangular and each attribute must fit the chosen domain:
// callers enforce value bounds via dataset validation before encryption.
// The table's attribute width is that of the widest value encrypted
// here, the one place the plaintext and the table meet; WithAttrBits
// declares a wider domain.
func EncryptTable(random io.Reader, pk *paillier.PublicKey, rows [][]uint64) (*EncryptedTable, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("core: empty table")
	}
	m := len(rows[0])
	width := 1
	for i, row := range rows {
		if len(row) != m {
			return nil, fmt.Errorf("core: row %d has %d attributes, want %d", i, len(row), m)
		}
		for _, x := range row {
			width = max(width, bits.Len64(x))
		}
	}
	records, err := encryptRows(random, pk, rows, m)
	if err != nil {
		return nil, fmt.Errorf("core: encrypting table: %w", err)
	}
	ids := make([]uint64, len(rows))
	for i := range ids {
		ids[i] = uint64(i)
	}
	return RestoreTable(pk, &TableSnapshot{Shape: dataset.Shape{M: m, FeatureM: m, AttrBits: width},
		NextID: uint64(len(rows)), Records: records, IDs: ids, Dead: make([]bool, len(rows))})
}

// encryptRows encrypts rows of m attributes each, attribute-wise, with
// the randomness drawn in row-major order and the exponentiations spread
// over idle cores (paillier.EncryptMany) — the owner's setup, unlike
// Bob's single-core Client.
func encryptRows(random io.Reader, pk *paillier.PublicKey, rows [][]uint64, m int) ([]EncryptedRecord, error) {
	flat := make([]*big.Int, 0, len(rows)*m)
	for _, row := range rows {
		for _, x := range row {
			flat = append(flat, new(big.Int).SetUint64(x))
		}
	}
	cts, err := pk.EncryptMany(random, flat)
	if err != nil {
		return nil, err
	}
	records := make([]EncryptedRecord, len(rows))
	for i := range records {
		records[i] = cts[i*m : (i+1)*m : (i+1)*m]
	}
	return records, nil
}

// WithFeatureColumns returns a copy of the table whose first f columns
// are the distance features; the remaining m−f columns are opaque
// payload (labels, identifiers) still delivered with results. The copy
// shares the receiver's ciphertexts and nothing else, so mutating
// either table never shows in the other. Any attached cluster index is
// dropped (its centroids are sized to the feature prefix): attach the
// index after choosing feature columns.
func (t *EncryptedTable) WithFeatureColumns(f int) (*EncryptedTable, error) {
	s := t.Snapshot()
	s.Shape.FeatureM, s.Centroids, s.Members = f, nil, nil
	return RestoreTable(t.pk, s)
}

// WithAttrBits returns a copy of the table declaring every column value,
// stored or still to be inserted, below 2^bits: the owner's attribute
// domain, no narrower than what the table already holds. Like
// WithFeatureColumns the copy shares only the ciphertexts.
func (t *EncryptedTable) WithAttrBits(bits int) (*EncryptedTable, error) {
	if bits < t.shape.AttrBits {
		return nil, fmt.Errorf("%w: %d narrower than the table's %d", dataset.ErrBadAttrBits, bits, t.shape.AttrBits)
	}
	s := t.Snapshot()
	s.Shape.AttrBits = bits
	return RestoreTable(t.pk, s)
}

// SetClusterIndex attaches a partitioned layout to the table, replacing
// any index it has: the plaintext centroids (one per cluster, featureM
// attributes each, as produced by internal/cluster where the data owner
// holds plaintext) are encrypted under the table's key, and members
// records the partition of row positions, every cluster non-empty. Every
// centroid value must be below 2^Shape().AttrBits, like every column: the
// centroids pack into the same SSED slots. The owner calls it at
// outsourcing time and again in Compact-style maintenance. The table
// must be tombstone-free (Compact first): membership positions are
// validated against the current physical layout.
func (t *EncryptedTable) SetClusterIndex(random io.Reader, centroids [][]uint64, members [][]int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.deadN != 0 {
		return fmt.Errorf("core: cannot rebuild cluster index with %d tombstones (Compact first)", t.deadN)
	}
	if err := checkPartition(len(centroids), members, len(t.records)); err != nil {
		return fmt.Errorf("core: cluster index: %w", err)
	}
	for j, mem := range members {
		if len(mem) == 0 {
			return fmt.Errorf("core: cluster %d is empty", j)
		}
		if len(centroids[j]) != t.shape.FeatureM {
			return fmt.Errorf("core: centroid %d has %d attributes, want %d feature columns",
				j, len(centroids[j]), t.shape.FeatureM)
		}
		for _, x := range centroids[j] {
			if bits.Len64(x) > t.shape.AttrBits {
				return fmt.Errorf("core: centroid %d value %d is not below 2^%d, the table's attribute width", j, x, t.shape.AttrBits)
			}
		}
	}
	encCentroids, err := encryptRows(random, t.pk, centroids, t.shape.FeatureM)
	if err != nil {
		return fmt.Errorf("core: encrypting centroids: %w", err)
	}
	t.invalidateViewLocked()
	t.index = &clusterIndex{centroids: encCentroids, members: cloneLists(members), packs: &rowPacks{}}
	t.inserted = 0
	return nil
}

// checkPartition validates the membership lists of an index over c
// centroids and n stored records: one list per centroid, each strictly
// ascending, together covering every position in [0,n) exactly once.
func checkPartition(c int, members [][]int, n int) error {
	if c == 0 || c != len(members) {
		return fmt.Errorf("%d centroids, %d member lists", c, len(members))
	}
	seen := make([]bool, n)
	for j, mem := range members {
		prev := -1
		for _, i := range mem {
			if i < 0 || i >= n {
				return fmt.Errorf("cluster %d member %d out of range [0,%d)", j, i, n)
			}
			if i <= prev {
				return fmt.Errorf("cluster %d members not strictly ascending", j)
			}
			if seen[i] {
				return fmt.Errorf("record %d in more than one cluster", i)
			}
			seen[i], prev = true, i
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("record %d not in any cluster", i)
		}
	}
	return nil
}

// checkRecord refuses a stored row — a record of m attributes, or a
// centroid of m feature columns — that is not m ciphertexts.
func checkRecord(rec EncryptedRecord, m int) error {
	if len(rec) != m {
		return fmt.Errorf("%d attributes, want %d", len(rec), m)
	}
	for j, ct := range rec {
		if ct == nil {
			return fmt.Errorf("attribute %d is nil", j)
		}
	}
	return nil
}

// cloneLists copies membership lists, so no two owners share one.
func cloneLists(lists [][]int) [][]int {
	out := make([][]int, len(lists))
	for j, l := range lists {
		out[j] = append([]int(nil), l...)
	}
	return out
}

// Errors returned by the live-table mutation API.
var (
	ErrNoSuchRecord = fmt.Errorf("core: no live record with that id")
	ErrNeedCluster  = fmt.Errorf("core: clustered table insert needs a cluster assignment")
)

// InsertWithID appends an already-encrypted record (data-owner-side
// encryption, C1-side append) under a caller-chosen stable id — the
// owner of the id sequence routes each record to shard id mod S, and a
// lone table takes NextID. The id must be at or above the table's
// high-water mark, so ids are never reused; the mark advances to id+1.
// Every attribute encrypted into the record must be below 2^Shape().AttrBits —
// the table cannot check, and a wider one corrupts the packed slots it
// lands in. For a clustered table the caller must route the record to a
// cluster first — either obliviously via QuerySession.NearestCluster or
// owner-side in plaintext — and pass that cluster's id; unclustered
// tables take cluster = -1. Queries in flight keep the view they opened
// with and do not see the new record.
func (t *EncryptedTable) InsertWithID(id uint64, rec EncryptedRecord, cluster int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < t.nextID {
		return fmt.Errorf("core: inserting id %d below high-water mark %d", id, t.nextID)
	}
	return t.insertLocked(id, rec, cluster)
}

// insertLocked appends one record under the write lock, advancing the
// id high-water mark past id.
func (t *EncryptedTable) insertLocked(id uint64, rec EncryptedRecord, cluster int) error {
	if err := checkRecord(rec, t.shape.M); err != nil {
		return fmt.Errorf("core: inserted record: %w", err)
	}
	if t.index != nil {
		if cluster < 0 || cluster >= len(t.index.centroids) {
			return fmt.Errorf("%w: cluster %d of %d", ErrNeedCluster, cluster, len(t.index.centroids))
		}
	}
	t.invalidateViewLocked()
	pos := len(t.records)
	t.nextID = id + 1
	t.records = append(t.records, rec)
	t.ids = append(t.ids, id)
	t.dead = append(t.dead, false)
	t.byID[id] = pos
	t.inserted++
	if t.index != nil {
		t.index.members[cluster] = append(t.index.members[cluster], pos)
	}
	return nil
}

// Delete tombstones the record with the given stable id. The ciphertext
// stays in storage (and in any membership list) until Compact; queries
// opened after the delete skip it. Deleting an unknown or already
// deleted id returns ErrNoSuchRecord.
func (t *EncryptedTable) Delete(id uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	pos, ok := t.byID[id]
	if !ok || t.dead[pos] {
		return fmt.Errorf("%w: id %d", ErrNoSuchRecord, id)
	}
	t.invalidateViewLocked()
	t.dead[pos] = true
	t.deadN++
	return nil
}

// Compact physically removes tombstoned records, renumbering positions
// (stable ids are preserved) and rewriting the cluster membership lists.
// Centroids are NOT recomputed — that is owner-side maintenance (see
// sknn.System.Compact, which re-clusters with the key it legitimately
// holds). Returns how many records were removed. Queries in flight keep
// their pre-compaction view.
func (t *EncryptedTable) Compact() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.deadN == 0 {
		t.inserted = 0
		return 0
	}
	t.invalidateViewLocked()
	removed := t.deadN
	remap := make([]int, len(t.records)) // old position -> new position
	records := make([]EncryptedRecord, 0, len(t.records)-t.deadN)
	ids := make([]uint64, 0, len(t.records)-t.deadN)
	for i, rec := range t.records {
		if t.dead[i] {
			remap[i] = -1
			delete(t.byID, t.ids[i])
			continue
		}
		remap[i] = len(records)
		t.byID[t.ids[i]] = len(records)
		records = append(records, rec)
		ids = append(ids, t.ids[i])
	}
	t.records = records
	t.ids = ids
	t.dead = make([]bool, len(records))
	t.deadN = 0
	t.inserted = 0
	t.packs = t.packs.remapped(remap, len(records))
	if t.index != nil {
		// Open query views own copies of the lists: filter them in place.
		for j, mem := range t.index.members {
			kept := mem[:0]
			for _, i := range mem {
				if remap[i] >= 0 {
					kept = append(kept, remap[i])
				}
			}
			t.index.members[j] = kept
		}
	}
	return removed
}

// DirtyFraction reports how far the table has drifted from its last
// clean build: (tombstones + inserts since construction or Compact) /
// total stored records. sknn.System uses it to trigger threshold
// compaction and owner-side re-clustering.
func (t *EncryptedTable) DirtyFraction() float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.records) == 0 {
		return 0
	}
	return float64(t.deadN+t.inserted) / float64(len(t.records))
}

// Clustered reports whether a cluster index is attached.
func (t *EncryptedTable) Clustered() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.index != nil
}

// Clusters returns the number of clusters (0 without an index).
func (t *EncryptedTable) Clusters() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.index == nil {
		return 0
	}
	return len(t.index.centroids)
}

// N returns the number of live (non-tombstoned) records.
func (t *EncryptedTable) N() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.records) - t.deadN
}

// NextID returns the stable-id high-water mark: the lowest id
// InsertWithID accepts. On a shard it is a global bound —
// every shard starts from the whole table's mark and only the owning
// shard advances past it — so max over shards recovers the sequence.
func (t *EncryptedTable) NextID() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nextID
}

// Shape returns the table's shape: its attributes, feature columns and
// attribute width b (every column is below 2^b).
func (t *EncryptedTable) Shape() dataset.Shape { return t.shape }

// PK returns the public key the table is encrypted under.
func (t *EncryptedTable) PK() *paillier.PublicKey { return t.pk }

// tableView is the immutable per-query state of the table: its snapshot,
// captured under the lock, plus the live positions and the pack memos of
// that physical layout. A QuerySession takes one at open; every protocol
// phase reads the view, so a query observes a single consistent table
// state no matter how many Inserts, Deletes, or Compacts land while it
// runs.
type tableView struct {
	*TableSnapshot
	pk      *paillier.PublicKey
	liveIdx []int // live positions, ascending

	// The table's packed renderings as of this view's physical layout
	// (see rowPacks); centPacks is nil when unclustered.
	packs     *rowPacks
	centPacks *rowPacks
}

// view returns the immutable snapshot of the current table state for
// one query session. The view is memoized: building it is O(n), so an
// unmutated table hands the same shared view to every session and only
// the first open after an Insert/Delete/Compact pays the rebuild.
func (t *EncryptedTable) view() *tableView {
	t.mu.RLock()
	v := t.cached
	t.mu.RUnlock()
	if v != nil {
		return v
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cached == nil {
		t.cached = t.buildViewLocked()
	}
	return t.cached
}

// buildViewLocked materializes the view. Caller holds t.mu (write).
func (t *EncryptedTable) buildViewLocked() *tableView {
	v := &tableView{TableSnapshot: t.snapshotLocked(), pk: t.pk, packs: t.packs}
	v.liveIdx = make([]int, 0, len(v.Records)-t.deadN)
	for i, dead := range v.Dead {
		if !dead {
			v.liveIdx = append(v.liveIdx, i)
		}
	}
	if t.index != nil {
		v.centPacks = t.index.packs
	}
	return v
}

// invalidateViewLocked drops the memoized view before a mutation.
// Caller holds t.mu (write). Views already handed out stay valid —
// they own copies of everything the mutation writes into.
func (t *EncryptedTable) invalidateViewLocked() { t.cached = nil }

// N is the number of live records in the view.
func (v *tableView) N() int { return len(v.liveIdx) }

// Clustered reports whether the view carries a cluster index.
func (v *tableView) Clustered() bool { return v.Centroids != nil }

// liveMembers returns cluster j's live record positions.
func (v *tableView) liveMembers(j int) []int {
	out := make([]int, 0, len(v.Members[j]))
	for _, i := range v.Members[j] {
		if !v.Dead[i] {
			out = append(out, i)
		}
	}
	return out
}

// centroids2D exposes the encrypted centroids in the [][]*Ciphertext
// shape the smc batch calls expect.
func (v *tableView) centroids2D() [][]*paillier.Ciphertext {
	out := make([][]*paillier.Ciphertext, len(v.Centroids))
	for i, r := range v.Centroids {
		out[i] = r
	}
	return out
}

// featureRows exposes the distance-relevant prefix of the records at the
// given positions.
func (v *tableView) featureRows(idx []int) [][]*paillier.Ciphertext {
	out := make([][]*paillier.Ciphertext, len(idx))
	for i, id := range idx {
		out[i] = v.Records[id][:v.Shape.FeatureM]
	}
	return out
}

// packedFeatureRows returns the slot-packed rendering of the feature
// prefixes of the records at the given positions (rows pack
// independently — slots combine a row's attributes, never rows).
func (v *tableView) packedFeatureRows(idx []int) (*smc.PackedRows, error) {
	return v.packedRows(v.packs, idx, func(pos int) []*paillier.Ciphertext {
		return v.Records[pos][:v.Shape.FeatureM]
	})
}

// packedCentroids returns the slot-packed rendering of the cluster
// centroids of a clustered view.
func (v *tableView) packedCentroids() (*smc.PackedRows, error) {
	all := make([]int, len(v.Centroids))
	for i := range all {
		all[i] = i
	}
	return v.packedRows(v.centPacks, all, func(pos int) []*paillier.Ciphertext {
		return v.Centroids[pos]
	})
}

// packedRows renders row(pos) for every position in idx under the SSED
// slot codec for the view's attribute width, through the memo. A key with
// no room for one such slot, or a row that fails to pack, fails the query
// (sknn.New and store.Read refuse the key already: CheckDomainBits).
func (v *tableView) packedRows(packs *rowPacks, idx []int, row func(pos int) []*paillier.Ciphertext) (*smc.PackedRows, error) {
	codec, err := paillier.NewPacking(v.pk, v.Shape.AttrBits)
	if err != nil {
		return nil, fmt.Errorf("core: SSED slot codec: %w", err)
	}
	rows, err := packs.get(ssedRendering, idx, func(pos int) ([]*paillier.Ciphertext, error) {
		return smc.PackRow(codec, row(pos))
	})
	if err != nil {
		return nil, fmt.Errorf("core: packing rows for SSED: %w", err)
	}
	return &smc.PackedRows{Codec: codec, Rows: rows}, nil
}

// recordRows returns the records at the given positions in the view's
// row layout: the stored attribute ciphertexts themselves when it is
// per-attribute, otherwise each record's ⌈m/Cols⌉ row-packed chunks
// E(t₁‖…‖t_c), built homomorphically from the stored ciphertexts on
// first use and kept in the memo. Every column — payload columns
// included — is below 2^AttrBits, so the slots hold.
func (v *tableView) recordRows(idx []int) ([][]*paillier.Ciphertext, error) {
	layout := rowLayoutFor(v.pk.Bits(), v.Shape)
	if layout.Cols == 1 {
		rows := make([][]*paillier.Ciphertext, len(idx))
		for i, pos := range idx {
			rows[i] = v.Records[pos]
		}
		return rows, nil
	}
	codec, err := paillier.NewRowPacking(v.pk, layout.Bits, layout.Cols)
	if err != nil {
		return nil, fmt.Errorf("core: row layout: %w", err)
	}
	return v.packs.get(recordRendering, idx, func(pos int) ([]*paillier.Ciphertext, error) {
		return smc.PackRow(codec, v.Records[pos])
	})
}

// TableSnapshot is the portable state of an EncryptedTable: everything
// internal/store needs to serialize a live table and RestoreTable needs
// to rebuild one, with ciphertexts shared (not copied). Dead and IDs
// run parallel to Records; Centroids/Members are nil/empty when no
// cluster index is attached.
type TableSnapshot struct {
	Shape     dataset.Shape
	NextID    uint64
	Records   []EncryptedRecord
	IDs       []uint64
	Dead      []bool
	Centroids []EncryptedRecord
	Members   [][]int
}

// Snapshot captures the table's full state under the read lock. The
// returned snapshot shares ciphertext pointers with the live table (they
// are immutable) but owns its slices, so a concurrent mutation cannot
// tear a Save in progress.
func (t *EncryptedTable) Snapshot() *TableSnapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.snapshotLocked()
}

// snapshotLocked is Snapshot's capture, shared with buildViewLocked.
// Caller holds t.mu.
func (t *EncryptedTable) snapshotLocked() *TableSnapshot {
	s := &TableSnapshot{
		Shape:   t.shape,
		NextID:  t.nextID,
		Records: append([]EncryptedRecord(nil), t.records...),
		IDs:     append([]uint64(nil), t.ids...),
		Dead:    append([]bool(nil), t.dead...),
	}
	if t.index != nil {
		s.Centroids = append([]EncryptedRecord(nil), t.index.centroids...)
		s.Members = cloneLists(t.index.members)
	}
	return s
}

// RestoreTable builds an EncryptedTable from a snapshot: the load half of
// internal/store, and the one constructor every table — encrypted,
// copied or loaded — comes out of. No encryption happens here —
// ciphertexts are adopted as-is — which is what makes snapshot reload
// encrypt-free. The table adopts the snapshot's slices too: restore a
// snapshot once.
func RestoreTable(pk *paillier.PublicKey, snap *TableSnapshot) (*EncryptedTable, error) {
	if snap == nil || len(snap.Records) == 0 {
		return nil, fmt.Errorf("core: empty snapshot")
	}
	n := len(snap.Records)
	if len(snap.IDs) != n || len(snap.Dead) != n {
		return nil, fmt.Errorf("core: snapshot ids/dead length %d/%d, want %d",
			len(snap.IDs), len(snap.Dead), n)
	}
	if err := snap.Shape.Check(); err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	t := &EncryptedTable{
		pk:      pk,
		shape:   snap.Shape,
		records: snap.Records,
		ids:     snap.IDs,
		byID:    make(map[uint64]int, n),
		nextID:  snap.NextID,
		dead:    snap.Dead,
		packs:   &rowPacks{},
	}
	for i, rec := range snap.Records {
		if err := checkRecord(rec, snap.Shape.M); err != nil {
			return nil, fmt.Errorf("core: snapshot record %d: %w", i, err)
		}
		id := snap.IDs[i]
		if id >= snap.NextID {
			return nil, fmt.Errorf("core: snapshot record %d id %d ≥ next id %d", i, id, snap.NextID)
		}
		if _, dup := t.byID[id]; dup {
			return nil, fmt.Errorf("core: snapshot duplicates record id %d", id)
		}
		t.byID[id] = i
		if snap.Dead[i] {
			t.deadN++
		}
	}
	if t.deadN == n {
		return nil, fmt.Errorf("core: snapshot has no live records")
	}
	if len(snap.Centroids) > 0 || len(snap.Members) > 0 {
		if err := checkPartition(len(snap.Centroids), snap.Members, n); err != nil {
			return nil, fmt.Errorf("core: snapshot index: %w", err)
		}
		for j, cent := range snap.Centroids {
			if err := checkRecord(cent, snap.Shape.FeatureM); err != nil {
				return nil, fmt.Errorf("core: snapshot centroid %d: %w", j, err)
			}
		}
		t.index = &clusterIndex{centroids: snap.Centroids, members: snap.Members, packs: &rowPacks{}}
	}
	return t, nil
}
