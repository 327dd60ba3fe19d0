package core

import (
	"fmt"
	"sort"
)

// This file is the owner-side (re)sharding of a table snapshot: Split
// partitions the ciphertext matrix across S shard snapshots and Merge
// reassembles them, both without touching a single plaintext or
// performing any encryption — sharding is pure pointer shuffling, which
// is what lets an owner re-balance a deployment from the snapshot C1
// already legitimately holds.
//
// The partition rule is stable-id modulo S: record id g lives on shard
// g mod S. The rule is stateless — the coordinator, the facade's
// mutation router, and a from-disk reload all derive a record's owner
// from its id alone — and keeps shards balanced as ids grow.

// shardOf is the shard of shards that owns record id: id mod shards.
func shardOf(id uint64, shards int) int { return int(id % uint64(shards)) }

// ErrEmptyShard is returned by Split when a shard would receive no live
// records; reshard with fewer shards (or Compact first, if tombstones
// hollowed out a residue class).
var ErrEmptyShard = fmt.Errorf("core: shard would have no live records")

// Split partitions the snapshot into shards sub-snapshots by stable id
// modulo shards. Ciphertexts are shared, never copied. Each shard keeps
// the full NextID high-water mark (ids are global), its records in the
// original relative order, and — when a cluster index is attached — the
// induced per-shard index: every cluster's members that landed in the
// shard, with clusters that have no stored member in a shard dropped
// from that shard's index (each shard's index is self-contained).
func (s *TableSnapshot) Split(shards int) ([]*TableSnapshot, error) {
	if shards < 1 {
		return nil, fmt.Errorf("core: split into %d shards", shards)
	}
	n := len(s.Records)
	if len(s.IDs) != n || len(s.Dead) != n {
		return nil, fmt.Errorf("core: inconsistent snapshot (%d records, %d ids, %d dead)",
			n, len(s.IDs), len(s.Dead))
	}
	parts := make([]*TableSnapshot, shards)
	for i := range parts {
		parts[i] = &TableSnapshot{Shape: s.Shape, NextID: s.NextID}
	}
	// posMap[old position] = position within its shard.
	posMap := make([]int, n)
	for pos, id := range s.IDs {
		w := shardOf(id, shards)
		p := parts[w]
		posMap[pos] = len(p.Records)
		p.Records = append(p.Records, s.Records[pos])
		p.IDs = append(p.IDs, id)
		p.Dead = append(p.Dead, s.Dead[pos])
	}
	for w, p := range parts {
		live := 0
		for _, d := range p.Dead {
			if !d {
				live++
			}
		}
		if live == 0 {
			return nil, fmt.Errorf("%w: shard %d of %d", ErrEmptyShard, w, shards)
		}
	}
	if len(s.Centroids) > 0 {
		if len(s.Centroids) != len(s.Members) {
			return nil, fmt.Errorf("core: snapshot index with %d centroids, %d member lists",
				len(s.Centroids), len(s.Members))
		}
		for j, mem := range s.Members {
			// Scatter cluster j's members to their shards.
			byShard := make(map[int][]int)
			for _, pos := range mem {
				if pos < 0 || pos >= n {
					return nil, fmt.Errorf("core: cluster %d member %d out of range [0,%d)", j, pos, n)
				}
				w := shardOf(s.IDs[pos], shards)
				byShard[w] = append(byShard[w], posMap[pos])
			}
			for w, local := range byShard {
				sort.Ints(local)
				parts[w].Centroids = append(parts[w].Centroids, s.Centroids[j])
				parts[w].Members = append(parts[w].Members, local)
			}
		}
	}
	return parts, nil
}

// MergeTableSnapshots reassembles shard snapshots — parts[i] owning ids
// ≡ i mod len(parts) — into one canonical snapshot, records in
// ascending stable-id order. Like Split this is pure pointer shuffling:
// no plaintext, no encryption. The per-shard cluster indexes are
// concatenated (each shard's clusters are independent partitions of its
// records, so their union partitions the merged table); re-clustering
// into one global index is owner-side maintenance (System.Compact).
func MergeTableSnapshots(parts []*TableSnapshot) (*TableSnapshot, error) {
	shards := len(parts)
	if shards == 0 {
		return nil, fmt.Errorf("core: merging zero shards")
	}
	for w, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("%w: missing shard %d", ErrShardTopology, w)
		}
	}
	if shards == 1 {
		return parts[0], nil
	}
	total := 0
	clustered := len(parts[0].Centroids) > 0
	out := &TableSnapshot{Shape: parts[0].Shape}
	for w, p := range parts {
		if p.Shape != out.Shape {
			return nil, fmt.Errorf("%w: shard %d table shape %v, want %v", ErrShardTopology, w, p.Shape, out.Shape)
		}
		if (len(p.Centroids) > 0) != clustered {
			return nil, fmt.Errorf("%w: shard %d index presence disagrees", ErrShardTopology, w)
		}
		if len(p.IDs) != len(p.Records) || len(p.Dead) != len(p.Records) {
			return nil, fmt.Errorf("core: shard %d inconsistent snapshot", w)
		}
		for _, id := range p.IDs {
			if owner := shardOf(id, shards); owner != w {
				return nil, fmt.Errorf("%w: record id %d on shard %d, owner is %d",
					ErrShardTopology, id, w, owner)
			}
		}
		if p.NextID > out.NextID {
			out.NextID = p.NextID
		}
		total += len(p.Records)
	}

	// Global order: ascending stable id (the canonical layout an
	// unsharded table maintains — construction, Insert, and Compact all
	// keep positions id-ascending).
	type src struct{ shard, pos int }
	order := make([]src, 0, total)
	for w, p := range parts {
		for pos := range p.Records {
			order = append(order, src{w, pos})
		}
	}
	sort.Slice(order, func(a, b int) bool {
		return parts[order[a].shard].IDs[order[a].pos] < parts[order[b].shard].IDs[order[b].pos]
	})
	// remap[shard][old pos] = merged position.
	remap := make([][]int, shards)
	for w, p := range parts {
		remap[w] = make([]int, len(p.Records))
	}
	seen := make(map[uint64]bool, total)
	for newPos, sp := range order {
		p := parts[sp.shard]
		id := p.IDs[sp.pos]
		if seen[id] {
			return nil, fmt.Errorf("%w: record id %d on more than one shard", ErrShardTopology, id)
		}
		seen[id] = true
		remap[sp.shard][sp.pos] = newPos
		out.Records = append(out.Records, p.Records[sp.pos])
		out.IDs = append(out.IDs, id)
		out.Dead = append(out.Dead, p.Dead[sp.pos])
	}
	if clustered {
		// Fragments of one original cluster — split across shards, then
		// gathered back here — carry byte-identical centroid ciphertexts
		// (Split shares them; the disk round trip preserves them), so
		// grouping by centroid value reunites them and Merge(Split(x))
		// restores x's cluster count instead of multiplying it per
		// reshard cycle. Centroids that genuinely differ (a shard
		// re-clustered after Compact) are freshly encrypted and never
		// collide, so they stay separate clusters, as they should.
		byCentroid := make(map[string]int)
		for w, p := range parts {
			if len(p.Centroids) != len(p.Members) {
				return nil, fmt.Errorf("core: shard %d index with %d centroids, %d member lists",
					w, len(p.Centroids), len(p.Members))
			}
			for j, mem := range p.Members {
				merged := make([]int, len(mem))
				for i, pos := range mem {
					if pos < 0 || pos >= len(remap[w]) {
						return nil, fmt.Errorf("core: shard %d cluster %d member %d out of range", w, j, pos)
					}
					merged[i] = remap[w][pos]
				}
				key := centroidKey(p.Centroids[j])
				if at, ok := byCentroid[key]; ok {
					out.Members[at] = append(out.Members[at], merged...)
					continue
				}
				byCentroid[key] = len(out.Centroids)
				out.Centroids = append(out.Centroids, p.Centroids[j])
				out.Members = append(out.Members, merged)
			}
		}
		for _, mem := range out.Members {
			sort.Ints(mem)
		}
	}
	return out, nil
}

// centroidKey is a centroid's identity across shard fragments: the
// concatenated raw ciphertext bytes (length-prefixed so adjacent
// attributes cannot alias).
func centroidKey(cent EncryptedRecord) string {
	var b []byte
	for _, ct := range cent {
		raw := ct.Raw().Bytes()
		b = append(b, byte(len(raw)>>8), byte(len(raw)))
		b = append(b, raw...)
	}
	return string(b)
}
