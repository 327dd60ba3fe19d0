package sknn

import (
	"context"
	"crypto/rand"
	"fmt"

	"sknn/internal/cluster"
	"sknn/internal/core"
	"sknn/internal/paillier"
)

// This file is the live half of the table lifecycle: Insert, Delete,
// and Compact, the mutations that turn the paper's static outsourced
// relation into a dataset that changes over time. The trust story per
// operation:
//
//   - Insert: the data owner encrypts the new row under her key (C1
//     never sees plaintext) and C1 appends it. On a clustered system the
//     record is first routed to its nearest centroid with the same
//     oblivious SSED and selection network a pruned query uses, so C1
//     learns only which cluster the record joins — the index's existing
//     leakage class, nothing new. (The alternative, owner-side plaintext
//     assignment, trades that leak for owner-side centroid state; see
//     docs/PROTOCOLS.md for the comparison.)
//   - Delete: an owner-announced tombstone. C1 necessarily learns which
//     stored row was retired; it still never learns its contents.
//   - Compact: C1-side physical removal of tombstones plus, on a
//     clustered system, the owner-side re-cluster that refreshes the
//     centroids (this facade plays the owner too, so it legitimately
//     holds the key it decrypts with).
//
// On a sharded system every mutation routes to the owning shard by
// stable id (id mod Shards): the insert's oblivious routing ranks only
// that shard's centroids, the delete tombstones only that shard's
// storage, and threshold compaction fires shard by shard — churn on one
// shard never touches another's layout.
//
// Mutations are serialized with each other but never block queries:
// every query session pins an immutable view of the table at open, so
// in-flight queries finish on the state they started with.

// Insert encrypts row under the system key (data-owner-side) and
// appends it to the outsourced table (C1-side), returning the record's
// stable id — the handle Delete takes. The initial table's rows hold
// ids 0..n−1 in row order. Values must fit the attribute domain the
// system was built with. On a clustered system the record is routed
// obliviously to its nearest centroid, which costs one centroid
// ranking (the selection network over the c centroids, k = 1);
// unclustered inserts are pure appends. Sharded, the
// id is drawn from the global sequence and the record lands on shard
// id mod Shards, ranked against that shard's centroids only.
//
// When the accumulated churn passes Config.CompactThreshold the insert
// also triggers Compact; amortized over many mutations that keeps the
// table clean without the caller scheduling maintenance.
func (s *System) Insert(row []uint64) (uint64, error) {
	if err := s.begin(); err != nil {
		return 0, err
	}
	defer s.end()
	shape := s.eng.Shape()
	if len(row) != shape.M {
		return 0, fmt.Errorf("sknn: inserting row with %d attributes, table has %d", len(row), shape.M)
	}
	limit := uint64(1) << shape.AttrBits
	for j, v := range row {
		if v >= limit {
			return 0, fmt.Errorf("sknn: inserted attribute %d value %d ≥ 2^%d", j, v, shape.AttrBits)
		}
	}
	// Owner-side encryption: the only party seeing plaintext is the one
	// that legitimately holds it.
	rec, err := s.sk.PublicKey.EncryptUint64Vector(rand.Reader, row)
	if err != nil {
		return 0, fmt.Errorf("sknn: encrypting inserted row: %w", err)
	}

	// Serialize with other mutations: routing must target the index the
	// append lands in (a concurrent Compact could swap it out), and the
	// global id sequence must advance atomically.
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	id := s.nextIDLocked()
	owner := s.shardFor(id)
	tbl := owner.Table()
	clusterID := -1
	if tbl.Clustered() {
		eq, err := s.client.EncryptQuery(row[:shape.FeatureM])
		if err != nil {
			return 0, fmt.Errorf("sknn: encrypting insert routing query: %w", err)
		}
		// Mutations are not cancelable (a half-routed insert helps no
		// one), so the routing session runs unbound.
		sess, err := owner.NewSession(context.Background())
		if err != nil {
			return 0, err
		}
		clusterID, err = sess.NearestCluster(eq)
		sess.Close()
		if err != nil {
			return 0, fmt.Errorf("sknn: routing insert: %w", err)
		}
	}
	if err := tbl.InsertWithID(id, rec, clusterID); err != nil {
		return 0, fmt.Errorf("sknn: %w", err)
	}
	s.maybeCompactLocked(owner)
	return id, nil
}

// nextIDLocked draws the next global stable id: the maximum high-water
// mark over every shard's table (a split copies the mark to every
// shard, and each insert advances only its owner's). Caller holds
// writeMu.
func (s *System) nextIDLocked() uint64 {
	var next uint64
	for _, t := range s.tables() {
		if n := t.NextID(); n > next {
			next = n
		}
	}
	return next
}

// Delete tombstones the record with the given stable id: queries opened
// after the call no longer see it, the ciphertext is physically removed
// at the next Compact. Sharded, the tombstone lands on the owning shard
// (id mod Shards). Deleting an unknown or already-deleted id returns an
// error wrapping core.ErrNoSuchRecord.
func (s *System) Delete(id uint64) error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	owner := s.shardFor(id)
	if err := owner.Table().Delete(id); err != nil {
		return fmt.Errorf("sknn: %w", err)
	}
	s.maybeCompactLocked(owner)
	return nil
}

// Compact removes tombstoned ciphertexts from storage and, on a
// clustered system, re-clusters: the owner decrypts the feature columns
// (this facade holds her key by construction), runs k-means afresh, and
// installs new encrypted centroids and membership lists — the
// "re-outsource the index" maintenance the paper's static setting never
// needs. Sharded, every shard is compacted and re-clustered
// independently. Queries in flight keep their pre-compaction view;
// record ids survive. Automatic per shard when churn passes
// Config.CompactThreshold, public for callers that schedule their own
// maintenance windows.
func (s *System) Compact() error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	var first error
	for _, sh := range s.eng.Workers {
		if err := s.compactShardLocked(sh); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DirtyFraction reports the live table's churn since its last clean
// build — the value compared against Config.CompactThreshold. Sharded,
// it reports the dirtiest shard (the one closest to triggering
// compaction).
func (s *System) DirtyFraction() float64 {
	worst := 0.0
	for _, t := range s.tables() {
		if d := t.DirtyFraction(); d > worst {
			worst = d
		}
	}
	return worst
}

// maybeCompactLocked runs threshold compaction on the shard a mutation
// just landed on. Caller holds writeMu.
func (s *System) maybeCompactLocked(owner *core.CloudC1) {
	if s.compactAt < 0 || owner.Table().DirtyFraction() <= s.compactAt {
		return
	}
	// Best-effort: a failed rebuild leaves the tombstone-free table with
	// its previous centroids, which is correct (just less fresh), so the
	// error is not worth failing the triggering mutation for.
	_ = s.compactShardLocked(owner)
}

// compactShardLocked compacts one worker's table and, when clustered,
// re-clusters it from owner-side decryption. Caller holds writeMu.
func (s *System) compactShardLocked(owner *core.CloudC1) error {
	tbl := owner.Table()
	tbl.Compact()
	if !tbl.Clustered() {
		return nil
	}
	rows, err := decryptSnapshotRows(s.sk, tbl.Snapshot(), tbl.Shape().FeatureM)
	if err != nil {
		return fmt.Errorf("sknn: compact: %w", err)
	}
	c := s.shardClusters(len(rows))
	part, err := cluster.KMeans(rows, c, 1)
	if err != nil {
		return fmt.Errorf("sknn: compact re-cluster: %w", err)
	}
	if err := tbl.SetClusterIndex(rand.Reader, part.Centroids, part.Members); err != nil {
		return fmt.Errorf("sknn: compact re-cluster: %w", err)
	}
	return nil
}

// shardClusters sizes one worker's rebuilt index: the configured count
// scaled down to the shard's share of the table (at least one cell), or
// ⌈√n⌉ over the shard's own size when unconfigured.
func (s *System) shardClusters(n int) int {
	if s.cfgClusters == 0 {
		return cluster.DefaultClusters(n)
	}
	c := s.cfgClusters / s.Shards()
	if c < 1 {
		c = 1
	}
	return c
}

// DecryptTable decrypts every live record with the owner's key and
// returns the plaintext rows in ascending stable-id order. This is an
// owner-side utility — the facade plays Alice, who may of course read
// her own table — used for oracle verification (cmd/sknnquery -verify
// on a snapshot) and by Compact's re-cluster step. It is not part of
// any cloud's view.
func (s *System) DecryptTable() ([][]uint64, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	// One consistent merged snapshot: concurrent mutation cannot tear the
	// result and sharding cannot change the order.
	snap, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	return decryptSnapshotRows(s.sk, snap, s.M())
}

// decryptSnapshotRows decrypts the first cols attributes of a
// snapshot's live records, in snapshot order.
func decryptSnapshotRows(sk *paillier.PrivateKey, snap *core.TableSnapshot, cols int) ([][]uint64, error) {
	out := make([][]uint64, 0, len(snap.Records))
	for i, rec := range snap.Records {
		if snap.Dead[i] {
			continue
		}
		row := make([]uint64, cols)
		for j := 0; j < cols; j++ {
			v, err := sk.Decrypt(rec[j])
			if err != nil {
				return nil, fmt.Errorf("decrypting record %d attribute %d: %w", i, j, err)
			}
			if !v.IsUint64() {
				return nil, fmt.Errorf("record %d attribute %d does not fit uint64", i, j)
			}
			row[j] = v.Uint64()
		}
		out = append(out, row)
	}
	return out, nil
}

// snapshot captures one consistent whole-table snapshot: a lone
// shard's as it stands, or the shard snapshots merged back into
// canonical ascending-id order. Mutations are serialized against the
// capture via writeMu when there are several so the per-shard snapshots
// cohere.
func (s *System) snapshot() (*core.TableSnapshot, error) {
	if len(s.eng.Workers) == 1 {
		return s.eng.Workers[0].Table().Snapshot(), nil
	}
	s.writeMu.Lock()
	parts := make([]*core.TableSnapshot, len(s.eng.Workers))
	for i, sh := range s.eng.Workers {
		parts[i] = sh.Table().Snapshot()
	}
	s.writeMu.Unlock()
	snap, err := core.MergeTableSnapshots(parts)
	if err != nil {
		return nil, fmt.Errorf("sknn: merging shard snapshots: %w", err)
	}
	return snap, nil
}
