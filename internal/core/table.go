package core

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"sync"

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
// featureM ≤ m marks how many leading attributes participate in
// distance computation; trailing columns (e.g. a class label) ride
// along encrypted and are returned to Bob but never influence ranking.
// This is the layout secure kNN *classification* needs (the paper's
// Section 2.1 points at classification as a direct application).
//
// attrBits is the attribute width b: every column of every record,
// stored now or inserted later, is below 2^b. It is public (snapshot
// header, shard hello, every packed SSED frame) and sizes SkNNb's SSED
// slots and reveal layout; WithAttrBits widens it, nothing narrows it.
type EncryptedTable struct {
	pk       *paillier.PublicKey
	m        int
	featureM int
	attrBits int

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
// records or an index's centroids), one slice per codec in use, indexed
// by stored position. The renderings are derived data: built by the
// first query that needs a row, never persisted. They stay with their
// row across mutations — between Compacts positions only grow by
// appends, so the slices are simply extended on demand, and Compact
// hands the surviving entries to a fresh memo under their new positions
// — which makes the cost a mutation leaves to the next query O(1)
// packings rather than a re-pack of the whole table. A view opened
// before a Compact keeps the memo of the layout it pinned.
type rowPacks struct {
	mu   sync.Mutex
	rows map[packKey][][]*paillier.Ciphertext // guarded by mu; position -> packed ciphertexts, nil until packed
}

// packKey names one rendering: the feature prefix under the SSED slot
// codec for bits-wide payloads (cols = 0), or the whole record in the
// headroom-free RowLayout{cols, bits}.
type packKey struct{ bits, cols int }

// get returns rendering key of the rows at the distinct positions idx,
// calling pack for (and remembering) those not rendered yet. The lock is
// held across the packing so concurrent sessions never pack a row twice.
func (p *rowPacks) get(key packKey, idx []int, pack func(pos int) ([]*paillier.Ciphertext, error)) ([][]*paillier.Ciphertext, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rows == nil {
		p.rows = make(map[packKey][][]*paillier.Ciphertext)
	}
	memo := p.rows[key]
	for _, pos := range idx {
		if pos >= len(memo) {
			memo = append(memo, make([][]*paillier.Ciphertext, pos+1-len(memo))...)
		}
	}
	p.rows[key] = memo
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
	out := &rowPacks{rows: make(map[packKey][][]*paillier.Ciphertext, len(p.rows))}
	for key, memo := range p.rows {
		moved := make([][]*paillier.Ciphertext, n)
		for old, row := range memo {
			if remap[old] >= 0 {
				moved[remap[old]] = row
			}
		}
		out.rows[key] = moved
	}
	return out
}

// newTable wires the bookkeeping every construction path shares.
func newTable(pk *paillier.PublicKey, records []EncryptedRecord, m, attrBits int) *EncryptedTable {
	t := &EncryptedTable{
		pk:       pk,
		m:        m,
		featureM: m,
		attrBits: attrBits,
		records:  records,
		ids:      make([]uint64, len(records)),
		byID:     make(map[uint64]int, len(records)),
		dead:     make([]bool, len(records)),
		nextID:   uint64(len(records)),
		packs:    &rowPacks{},
	}
	for i := range records {
		t.ids[i] = uint64(i)
		t.byID[uint64(i)] = i
	}
	return t
}

// EncryptTable is Alice's one-time setup (Section 1.1): she encrypts her
// n×m table attribute-wise under pk. Rows must be rectangular and each
// attribute must fit the chosen domain: callers enforce value bounds via
// dataset validation before encryption. The table's attribute width is
// that of the widest value encrypted here, the one place the plaintext
// and the table meet; WithAttrBits declares a wider domain.
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
	return newTable(pk, records, m, width), nil
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

// derive builds a construction-time variant of t sharing its ciphertexts.
// Slices that later mutation writes *into* (dead, byID) are copied so the
// derived table and the original cannot corrupt each other; append-only
// slices (records, ids, members) are shared by header. Deriving from a
// table is only defined before either table is mutated.
//
//sknnlint:allow lockguard -- construction-time by documented contract: derive runs before either table is published to a second goroutine, so no lock is needed (or possible: the result shares no mutex with t)
func (t *EncryptedTable) derive() *EncryptedTable {
	d := &EncryptedTable{
		pk:       t.pk,
		m:        t.m,
		featureM: t.featureM,
		attrBits: t.attrBits,
		records:  t.records,
		ids:      t.ids,
		byID:     make(map[uint64]int, len(t.byID)),
		nextID:   t.nextID,
		dead:     append([]bool(nil), t.dead...),
		deadN:    t.deadN,
		inserted: t.inserted,
		index:    t.index,
		packs:    &rowPacks{}, // not shared: a derived table may pick other feature columns
	}
	for id, pos := range t.byID {
		d.byID[id] = pos
	}
	return d
}

// WithFeatureColumns returns a view of the table whose first f columns
// are the distance features; the remaining m−f columns are opaque
// payload (labels, identifiers) still delivered with results. The
// ciphertexts are shared with the receiver, not copied. Any attached
// cluster index is dropped (its centroids are sized to the feature
// prefix): attach the index after choosing feature columns. This is a
// construction-time operation — derive views before mutating either
// table, and keep mutating only one of them.
func (t *EncryptedTable) WithFeatureColumns(f int) (*EncryptedTable, error) {
	if f < 1 || f > t.m {
		return nil, fmt.Errorf("core: feature columns %d out of range [1,%d]", f, t.m)
	}
	view := t.derive()
	view.featureM = f
	//sknnlint:allow lockguard -- view is construction-time fresh from derive: unpublished, so its mutex cannot be contended yet
	view.index = nil
	return view, nil
}

// WithAttrBits returns a view of the table declaring every column value,
// stored or still to be inserted, below 2^bits: the owner's attribute
// domain, no narrower than what the table already holds. The ciphertexts
// are shared; like WithFeatureColumns it is a construction-time operation.
func (t *EncryptedTable) WithAttrBits(bits int) (*EncryptedTable, error) {
	if bits < t.attrBits || bits > maxAttrBits {
		return nil, fmt.Errorf("core: attribute width %d out of range [%d,%d]", bits, t.attrBits, maxAttrBits)
	}
	view := t.derive()
	view.attrBits = bits
	return view, nil
}

// WithClusterIndex attaches a partitioned layout to the table: the
// plaintext centroids (one per cluster, featureM attributes each, as
// produced by internal/cluster at outsourcing time where the data owner
// holds plaintext) are encrypted under the table's key, and members
// records the partition of row positions. The receiver's records are
// shared, not copied. Like WithFeatureColumns this is a
// construction-time operation; to replace the index of a live table use
// SetClusterIndex.
func (t *EncryptedTable) WithClusterIndex(random io.Reader, centroids [][]uint64, members [][]int) (*EncryptedTable, error) {
	idx, err := t.buildIndex(random, centroids, members)
	if err != nil {
		return nil, err
	}
	view := t.derive()
	//sknnlint:allow lockguard -- view is construction-time fresh from derive: unpublished, so its mutex cannot be contended yet
	view.index = idx
	return view, nil
}

// SetClusterIndex replaces the table's cluster index in place — the
// owner-side re-cluster step of Compact-style maintenance. The table
// must be tombstone-free (Compact first): membership positions are
// validated against the current physical layout.
func (t *EncryptedTable) SetClusterIndex(random io.Reader, centroids [][]uint64, members [][]int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.deadN != 0 {
		return fmt.Errorf("core: cannot rebuild cluster index with %d tombstones (Compact first)", t.deadN)
	}
	idx, err := t.buildIndex(random, centroids, members)
	if err != nil {
		return err
	}
	t.invalidateViewLocked()
	t.index = idx
	t.inserted = 0
	return nil
}

// buildIndex validates the partition and encrypts the centroids. The
// caller guarantees exclusive access to t: SetClusterIndex holds t.mu,
// WithClusterIndex runs at construction time before t is published.
//
//sknnlint:allow lockguard -- caller guarantees exclusion: SetClusterIndex holds t.mu, WithClusterIndex is construction-time on an unpublished table
func (t *EncryptedTable) buildIndex(random io.Reader, centroids [][]uint64, members [][]int) (*clusterIndex, error) {
	if len(centroids) == 0 || len(centroids) != len(members) {
		return nil, fmt.Errorf("core: cluster index with %d centroids, %d member lists",
			len(centroids), len(members))
	}
	n := len(t.records)
	seen := make([]bool, n)
	for j, mem := range members {
		if len(mem) == 0 {
			return nil, fmt.Errorf("core: cluster %d is empty", j)
		}
		if len(centroids[j]) != t.featureM {
			return nil, fmt.Errorf("core: centroid %d has %d attributes, want %d feature columns",
				j, len(centroids[j]), t.featureM)
		}
		for _, i := range mem {
			if i < 0 || i >= n {
				return nil, fmt.Errorf("core: cluster %d member %d out of range [0,%d)", j, i, n)
			}
			if seen[i] {
				return nil, fmt.Errorf("core: record %d in more than one cluster", i)
			}
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("core: record %d not in any cluster", i)
		}
	}
	encCentroids, err := encryptRows(random, t.pk, centroids, t.featureM)
	if err != nil {
		return nil, fmt.Errorf("core: encrypting centroids: %w", err)
	}
	idx := &clusterIndex{
		centroids: encCentroids,
		members:   make([][]int, len(members)),
		packs:     &rowPacks{},
	}
	for j, mem := range members {
		idx.members[j] = append([]int(nil), mem...)
	}
	return idx, nil
}

// Errors returned by the live-table mutation API.
var (
	ErrNoSuchRecord = fmt.Errorf("core: no live record with that id")
	ErrNeedCluster  = fmt.Errorf("core: clustered table insert needs a cluster assignment")
)

// Insert appends an already-encrypted record (data-owner-side
// encryption, C1-side append) and returns its stable id. Every attribute
// encrypted into it must be below 2^AttrBits() — the table cannot check,
// and a wider one corrupts the packed slots it lands in. For a clustered
// table the caller must route the record to a cluster first — either
// obliviously via QuerySession.NearestCluster or owner-side in
// plaintext — and pass that cluster's id; unclustered tables take
// cluster = -1. Queries in flight keep the view they opened with and do
// not see the new record.
func (t *EncryptedTable) Insert(rec EncryptedRecord, cluster int) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	if err := t.insertLocked(id, rec, cluster); err != nil {
		return 0, err
	}
	return id, nil
}

// InsertWithID is Insert with a caller-chosen stable id — the sharded
// path, where the coordinator owns the global id sequence and routes
// each record to shard id mod S. The id must be at or above the
// table's high-water mark, so ids are never reused; the mark advances
// to id+1.
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
	if len(rec) != t.m {
		return fmt.Errorf("core: inserting record with %d attributes, want %d", len(rec), t.m)
	}
	for j, ct := range rec {
		if ct == nil {
			return fmt.Errorf("core: inserted record attribute %d is nil", j)
		}
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
		// Replace the index wholesale (never edit shared slices in place:
		// open query views still reference the old members).
		idx := &clusterIndex{
			centroids: t.index.centroids,
			members:   make([][]int, len(t.index.members)),
			packs:     t.index.packs,
		}
		for j, mem := range t.index.members {
			kept := make([]int, 0, len(mem))
			for _, i := range mem {
				if remap[i] >= 0 {
					kept = append(kept, remap[i])
				}
			}
			idx.members[j] = kept
		}
		t.index = idx
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

// ClusterMembers returns a copy of cluster j's record positions,
// including any tombstoned ones.
func (t *EncryptedTable) ClusterMembers(j int) []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]int(nil), t.index.members[j]...)
}

// N returns the number of live (non-tombstoned) records.
func (t *EncryptedTable) N() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.records) - t.deadN
}

// Stored returns the number of stored records including tombstones —
// the table's physical size until the next Compact.
func (t *EncryptedTable) Stored() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.records)
}

// NextID returns the stable-id high-water mark: the id the next
// locally-assigned Insert would take. On a shard it is a global bound —
// every shard starts from the whole table's mark and only the owning
// shard advances past it — so max over shards recovers the sequence.
func (t *EncryptedTable) NextID() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nextID
}

// M returns the number of attributes.
func (t *EncryptedTable) M() int { return t.m }

// FeatureM returns the number of leading attributes used for distance.
func (t *EncryptedTable) FeatureM() int { return t.featureM }

// AttrBits returns the attribute width b: every column is below 2^b.
func (t *EncryptedTable) AttrBits() int { return t.attrBits }

// PK returns the public key the table is encrypted under.
func (t *EncryptedTable) PK() *paillier.PublicKey { return t.pk }

// Record returns the record stored at position i (shared, read-only).
// Positions are unstable across Compact; use ids for durable handles.
func (t *EncryptedTable) Record(i int) EncryptedRecord {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.records[i]
}

// RecordID returns the stable id of the record at position i.
func (t *EncryptedTable) RecordID(i int) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ids[i]
}

// IsDeleted reports whether the record at position i is tombstoned.
func (t *EncryptedTable) IsDeleted(i int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.dead[i]
}

// tableView is the immutable per-query snapshot of the table's state:
// slice headers captured under the read lock, plus a copy of the dead
// bitmap (the only state mutated in place). A QuerySession takes one at
// open; every protocol phase reads the view, so a query observes a
// single consistent table state no matter how many Inserts, Deletes, or
// Compacts land while it runs.
type tableView struct {
	pk        *paillier.PublicKey
	m         int
	featureM  int
	attrBits  int
	records   []EncryptedRecord
	ids       []uint64 // position -> stable record id
	dead      []bool
	liveIdx   []int             // live positions, ascending
	centroids []EncryptedRecord // nil when unclustered
	members   [][]int           // positions incl tombstones; filter via dead

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
	v := &tableView{
		pk:       t.pk,
		m:        t.m,
		featureM: t.featureM,
		attrBits: t.attrBits,
		records:  t.records,
		ids:      t.ids,
		dead:     append([]bool(nil), t.dead...),
		packs:    t.packs,
	}
	v.liveIdx = make([]int, 0, len(t.records)-t.deadN)
	for i := range t.records {
		if !t.dead[i] {
			v.liveIdx = append(v.liveIdx, i)
		}
	}
	if t.index != nil {
		v.centroids = t.index.centroids
		v.members = append([][]int(nil), t.index.members...)
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
func (v *tableView) Clustered() bool { return v.centroids != nil }

// liveMembers returns cluster j's live record positions.
func (v *tableView) liveMembers(j int) []int {
	out := make([]int, 0, len(v.members[j]))
	for _, i := range v.members[j] {
		if !v.dead[i] {
			out = append(out, i)
		}
	}
	return out
}

// centroids2D exposes the encrypted centroids in the [][]*Ciphertext
// shape the smc batch calls expect.
func (v *tableView) centroids2D() [][]*paillier.Ciphertext {
	out := make([][]*paillier.Ciphertext, len(v.centroids))
	for i, r := range v.centroids {
		out[i] = r
	}
	return out
}

// featureRows exposes the distance-relevant prefix of the records at the
// given positions.
func (v *tableView) featureRows(idx []int) [][]*paillier.Ciphertext {
	out := make([][]*paillier.Ciphertext, len(idx))
	for i, id := range idx {
		out[i] = v.records[id][:v.featureM]
	}
	return out
}

// packedFeatureRows returns the slot-packed rendering of the feature
// prefixes of the records at the given positions, for valueBits-wide
// slot payloads (rows pack independently — slots combine a row's
// attributes, never rows). Returns nil when the key is too small for
// the SSED slot codec; distancesOf then takes classic SSED.
func (v *tableView) packedFeatureRows(valueBits int, idx []int) (*smc.PackedRows, error) {
	return packedRows(v.pk, v.packs, valueBits, idx, func(pos int) []*paillier.Ciphertext {
		return v.records[pos][:v.featureM]
	})
}

// packedCentroids returns the slot-packed rendering of the cluster
// centroids. Nil when unclustered or when the key is too small for the
// SSED slot codec (classic SSED then, as for packedFeatureRows).
func (v *tableView) packedCentroids(valueBits int) (*smc.PackedRows, error) {
	if v.centroids == nil {
		return nil, nil
	}
	all := make([]int, len(v.centroids))
	for i := range all {
		all[i] = i
	}
	return packedRows(v.pk, v.centPacks, valueBits, all, func(pos int) []*paillier.Ciphertext {
		return v.centroids[pos]
	})
}

// packedRows renders row(pos) for every position in idx under the SSED
// slot codec for valueBits-wide payloads, through the memo. Only a key
// with no room for one such slot yields nil rows; a row that fails to
// pack fails the query.
func packedRows(pk *paillier.PublicKey, packs *rowPacks, valueBits int, idx []int, row func(pos int) []*paillier.Ciphertext) (*smc.PackedRows, error) {
	codec, err := paillier.NewPacking(pk, valueBits)
	if errors.Is(err, paillier.ErrPackWidth) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: SSED slot codec: %w", err)
	}
	rows, err := packs.get(packKey{bits: valueBits}, idx, func(pos int) ([]*paillier.Ciphertext, error) {
		return smc.PackRow(codec, row(pos))
	})
	if err != nil {
		return nil, fmt.Errorf("core: packing rows for SSED: %w", err)
	}
	return &smc.PackedRows{Codec: codec, Rows: rows}, nil
}

// recordRows returns the records at the given positions in the given
// layout: the stored attribute ciphertexts themselves when it is
// per-attribute, otherwise each record's ⌈m/Cols⌉ row-packed chunks
// E(t₁‖…‖t_c), built homomorphically from the stored ciphertexts on
// first use and kept in the memo. Every column — payload columns
// included — must be below 2^Bits for the slots to hold; see
// QuerySession.SecureQuery.
func (v *tableView) recordRows(layout RowLayout, idx []int) ([][]*paillier.Ciphertext, error) {
	if layout.Cols == 1 {
		rows := make([][]*paillier.Ciphertext, len(idx))
		for i, pos := range idx {
			rows[i] = v.records[pos]
		}
		return rows, nil
	}
	codec, err := paillier.NewRowPacking(v.pk, layout.Bits, layout.Cols)
	if err != nil {
		return nil, fmt.Errorf("core: row layout: %w", err)
	}
	return v.packs.get(packKey{bits: layout.Bits, cols: layout.Cols}, idx, func(pos int) ([]*paillier.Ciphertext, error) {
		return smc.PackRow(codec, v.records[pos])
	})
}

// TableSnapshot is the portable state of an EncryptedTable: everything
// internal/store needs to serialize a live table and RestoreTable needs
// to rebuild one, with ciphertexts shared (not copied). Dead and IDs
// run parallel to Records; Centroids/Members are nil/empty when no
// cluster index is attached.
type TableSnapshot struct {
	M, FeatureM int
	AttrBits    int // attribute width: every column is below 2^AttrBits
	NextID      uint64
	Records     []EncryptedRecord
	IDs         []uint64
	Dead        []bool
	Centroids   []EncryptedRecord
	Members     [][]int
}

// Snapshot captures the table's full state under the read lock. The
// returned snapshot shares ciphertext pointers with the live table (they
// are immutable) but owns its slices, so a concurrent mutation cannot
// tear a Save in progress.
func (t *EncryptedTable) Snapshot() *TableSnapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := &TableSnapshot{
		M:        t.m,
		FeatureM: t.featureM,
		AttrBits: t.attrBits,
		NextID:   t.nextID,
		Records:  append([]EncryptedRecord(nil), t.records...),
		IDs:      append([]uint64(nil), t.ids...),
		Dead:     append([]bool(nil), t.dead...),
	}
	if t.index != nil {
		s.Centroids = append([]EncryptedRecord(nil), t.index.centroids...)
		s.Members = make([][]int, len(t.index.members))
		for j, mem := range t.index.members {
			s.Members[j] = append([]int(nil), mem...)
		}
	}
	return s
}

// RestoreTable rebuilds an EncryptedTable from a snapshot (the load half
// of internal/store). No encryption happens here — ciphertexts are
// adopted as-is — which is what makes snapshot reload encrypt-free.
func RestoreTable(pk *paillier.PublicKey, snap *TableSnapshot) (*EncryptedTable, error) {
	if snap == nil || len(snap.Records) == 0 {
		return nil, fmt.Errorf("core: empty snapshot")
	}
	n := len(snap.Records)
	if len(snap.IDs) != n || len(snap.Dead) != n {
		return nil, fmt.Errorf("core: snapshot ids/dead length %d/%d, want %d",
			len(snap.IDs), len(snap.Dead), n)
	}
	if snap.M < 1 || snap.FeatureM < 1 || snap.FeatureM > snap.M {
		return nil, fmt.Errorf("core: snapshot feature columns %d of %d", snap.FeatureM, snap.M)
	}
	if snap.AttrBits < 1 || snap.AttrBits > maxAttrBits {
		return nil, fmt.Errorf("core: snapshot attribute width %d out of range [1,%d]", snap.AttrBits, maxAttrBits)
	}
	t := &EncryptedTable{
		pk:       pk,
		m:        snap.M,
		featureM: snap.FeatureM,
		attrBits: snap.AttrBits,
		records:  snap.Records,
		ids:      snap.IDs,
		byID:     make(map[uint64]int, n),
		nextID:   snap.NextID,
		dead:     snap.Dead,
		packs:    &rowPacks{},
	}
	for i, rec := range snap.Records {
		if len(rec) != snap.M {
			return nil, fmt.Errorf("core: snapshot record %d has %d attributes, want %d", i, len(rec), snap.M)
		}
		for j, ct := range rec {
			if ct == nil {
				return nil, fmt.Errorf("core: snapshot record %d attribute %d is nil", i, j)
			}
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
		if len(snap.Centroids) == 0 || len(snap.Centroids) != len(snap.Members) {
			return nil, fmt.Errorf("core: snapshot index with %d centroids, %d member lists",
				len(snap.Centroids), len(snap.Members))
		}
		seen := make([]bool, n)
		for j, cent := range snap.Centroids {
			if len(cent) != snap.FeatureM {
				return nil, fmt.Errorf("core: snapshot centroid %d has %d attributes, want %d",
					j, len(cent), snap.FeatureM)
			}
			for h, ct := range cent {
				if ct == nil {
					return nil, fmt.Errorf("core: snapshot centroid %d attribute %d is nil", j, h)
				}
			}
			for _, i := range snap.Members[j] {
				if i < 0 || i >= n {
					return nil, fmt.Errorf("core: snapshot cluster %d member %d out of range [0,%d)", j, i, n)
				}
				if seen[i] {
					return nil, fmt.Errorf("core: snapshot record %d in more than one cluster", i)
				}
				seen[i] = true
			}
		}
		for i, ok := range seen {
			if !ok {
				return nil, fmt.Errorf("core: snapshot record %d not in any cluster", i)
			}
		}
		t.index = &clusterIndex{centroids: snap.Centroids, members: snap.Members, packs: &rowPacks{}}
	}
	return t, nil
}
