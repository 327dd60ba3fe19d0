package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sknn/internal/paillier"
)

// R-way shard replication. The outsourced table is plain Paillier
// ciphertext, so a replica is just another worker serving the same
// snapshot — no re-encryption ceremony, no key material beyond what the
// shard already held. A ReplicaSet groups R such interchangeable
// workers behind the Shard interface: the coordinator keeps scattering
// to "the shard" and this layer picks the least-loaded live replica,
// requeues the scan on a sibling when one dies mid-query, and accounts
// the retries. A dead or slow replica therefore costs one retried shard
// scan, never a failed query, as long as one replica of the shard
// survives.
//
// Leakage: replica choice is driven by load and liveness only, both of
// which every party can already observe from traffic; the replicas
// serve identical ciphertext, so C2 sees the same protocol whichever
// replica ran it. See docs/PROTOCOLS.md.

// ErrNoReplicas is returned when every replica of a shard has been
// marked dead: the query cannot be served until an operator replaces a
// worker (failover degrades capacity; it does not resurrect it).
var ErrNoReplicas = errors.New("core: all replicas of shard are dead")

// ReplicaStats is a point-in-time snapshot of one replica set's
// failover state.
type ReplicaStats struct {
	Shard     int    // shard index this set serves
	Replicas  int    // configured replica count
	Dead      []bool // per-replica death marks, by ordinal
	Retries   int    // shard scans requeued onto a sibling
	Failovers int    // replicas marked dead (≤ Retries)
}

// Live counts the replicas still serving.
func (s ReplicaStats) Live() int {
	n := 0
	for _, d := range s.Dead {
		if !d {
			n++
		}
	}
	return n
}

// ReplicaSet serves one shard through R interchangeable replicas. It
// implements Shard; TopK dispatches to the least-loaded live replica
// and fails over on retryable errors. Replica death is permanent for
// the life of the set — a worker that failed a scan mid-protocol is in
// an unknown state, and the deployment story replaces workers rather
// than trusting them again.
type ReplicaSet struct {
	replicas []Shard
	index    int // shard index, pinned at construction

	mu        sync.Mutex
	inflight  []int  // guarded by mu; scans running per replica, for least-loaded dispatch
	dead      []bool // guarded by mu; permanently failed replicas
	retries   int    // guarded by mu; scans requeued onto a sibling
	failovers int    // guarded by mu; replicas marked dead
}

// NewReplicaSet groups replicas of one shard. All must agree on the
// partition position and table shape — they are supposed to serve the
// same snapshot; live counts may differ transiently under mutation and
// are not compared. A single replica is a valid (degenerate) set.
func NewReplicaSet(replicas []Shard) (*ReplicaSet, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("%w: empty replica set", ErrShardTopology)
	}
	if len(replicas) > maxShardReplicas {
		return nil, fmt.Errorf("%w: %d replicas", ErrShardTopology, len(replicas))
	}
	first := replicas[0].Info()
	for i, r := range replicas[1:] {
		info := r.Info()
		if info.Index != first.Index || info.Count != first.Count ||
			info.M != first.M || info.FeatureM != first.FeatureM || info.AttrBits != first.AttrBits ||
			info.Clustered != first.Clustered {
			return nil, fmt.Errorf("%w: replica %d serves shard %d/%d table %d/%d/%d, replica 0 serves %d/%d table %d/%d/%d",
				ErrShardTopology, i+1, info.Index, info.Count, info.M, info.FeatureM, info.AttrBits,
				first.Index, first.Count, first.M, first.FeatureM, first.AttrBits)
		}
	}
	return &ReplicaSet{
		replicas: replicas,
		index:    first.Index,
		inflight: make([]int, len(replicas)),
		dead:     make([]bool, len(replicas)),
	}, nil
}

// Replicas reports the configured replica count.
func (rs *ReplicaSet) Replicas() int { return len(rs.replicas) }

// Replica returns worker i of the set.
func (rs *ReplicaSet) Replica(i int) Shard { return rs.replicas[i] }

// Stats snapshots the set's failover state.
func (rs *ReplicaSet) Stats() ReplicaStats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	dead := make([]bool, len(rs.dead))
	copy(dead, rs.dead)
	return ReplicaStats{
		Shard:     rs.index,
		Replicas:  len(rs.replicas),
		Dead:      dead,
		Retries:   rs.retries,
		Failovers: rs.failovers,
	}
}

// MarkDead removes replica i from dispatch (idempotent). Exposed for
// operators draining a worker deliberately; TopK calls it on failure.
func (rs *ReplicaSet) MarkDead(i int) {
	if i < 0 || i >= len(rs.replicas) {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.dead[i] {
		rs.dead[i] = true
		rs.failovers++
	}
}

// Info reports the shard's shape from the first live replica (falling
// back to replica 0 so topology introspection keeps working even on a
// fully dead set).
func (rs *ReplicaSet) Info() ShardInfo {
	rs.mu.Lock()
	pick := 0
	for i, d := range rs.dead {
		if !d {
			pick = i
			break
		}
	}
	rs.mu.Unlock()
	info := rs.replicas[pick].Info()
	info.Replica = pick
	return info
}

// pick reserves a scan slot on the least-loaded live replica and
// returns its ordinal, or an ErrNoReplicas error naming the shard. Ties
// break toward the lowest ordinal, so dispatch (and therefore failover
// accounting) is deterministic under serial load.
func (rs *ReplicaSet) pick() (int, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	best := -1
	for i := range rs.replicas {
		if rs.dead[i] {
			continue
		}
		if best < 0 || rs.inflight[i] < rs.inflight[best] {
			best = i
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("%w (shard %d, %d replicas configured)", ErrNoReplicas, rs.index, len(rs.replicas))
	}
	rs.inflight[best]++
	return best, nil
}

// release returns replica i's scan slot.
func (rs *ReplicaSet) release(i int) {
	rs.mu.Lock()
	rs.inflight[i]--
	rs.mu.Unlock()
}

// requeueable reports whether a failed scan should fail over to a
// sibling replica. Deterministic argument errors would fail identically
// everywhere, and a cancellation means the caller (or the scatter-wide
// abort) no longer wants the answer — retrying either would burn a
// healthy replica's time, and marking the replica dead for them would
// amputate a working worker.
func requeueable(err error) bool {
	return !errors.Is(err, ErrCanceled) &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, ErrBadK) && !errors.Is(err, ErrDimension) && !errors.Is(err, ErrDomainBits)
}

// TopK runs the shard scan on the least-loaded live replica, failing
// over — mark dead, requeue on a sibling — as long as the error is one
// a different replica could do better on and the ctx still wants the
// answer. Each attempt lands on a replica not yet marked dead, so a
// query retries at most R−1 times before ErrNoReplicas.
func (rs *ReplicaSet) TopK(ctx context.Context, q EncryptedQuery, k, domainBits, target int, secure bool) ([]Candidate, *SecureMetrics, error) {
	for attempt := 0; ; attempt++ {
		if err := ctxErr(ctx); err != nil {
			return nil, nil, err
		}
		i, err := rs.pick()
		if err != nil {
			return nil, nil, err
		}
		cands, sm, err := rs.replicas[i].TopK(ctx, q, k, domainBits, target, secure)
		rs.release(i)
		if err == nil {
			if attempt > 0 {
				if sm == nil {
					sm = &SecureMetrics{}
				}
				sm.Failovers += attempt
			}
			return cands, sm, nil
		}
		if !requeueable(err) {
			return nil, nil, err
		}
		rs.MarkDead(i)
		rs.mu.Lock()
		rs.retries++
		rs.mu.Unlock()
	}
}

// GroupReplicas folds a flat worker list into one Shard per partition
// index: workers announcing the same shard index become a ReplicaSet,
// singletons pass through unchanged. This is how a deployment goes
// replicated without the coordinator noticing — dial every worker,
// group, hand the result to NewShardedC1 (which still validates the
// grouped topology). Worker order within a shard is preserved, so
// replica ordinals follow dial order.
func GroupReplicas(workers []Shard) ([]Shard, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("%w: no workers", ErrShardTopology)
	}
	byIndex := make(map[int][]Shard)
	order := make([]int, 0, len(workers))
	for _, w := range workers {
		idx := w.Info().Index
		if len(byIndex[idx]) == 0 {
			order = append(order, idx)
		}
		byIndex[idx] = append(byIndex[idx], w)
	}
	out := make([]Shard, 0, len(order))
	for _, idx := range order {
		group := byIndex[idx]
		if len(group) == 1 {
			out = append(out, group[0])
			continue
		}
		rs, err := NewReplicaSet(group)
		if err != nil {
			return nil, fmt.Errorf("core: grouping shard %d replicas: %w", idx, err)
		}
		out = append(out, rs)
	}
	return out, nil
}

// Local reports a replicated shard as scanning in this process when any
// of its replicas does — the gather then throttles it like a LocalShard —
// and never lends: which replica a scan ran on is decided per attempt,
// and its siblings' pools belong to whatever scans they are serving.
func (rs *ReplicaSet) Local() (*CloudC1, bool) {
	for _, r := range rs.replicas {
		if _, ok := r.Local(); ok {
			return nil, true
		}
	}
	return nil, false
}

// ReplicaStats snapshots the failover state of every replicated shard
// in the coordinator's partition (un-replicated shards contribute
// nothing).
func (c *ShardedC1) ReplicaStats() []ReplicaStats {
	var out []ReplicaStats
	for _, sh := range c.shards {
		if rs, ok := sh.(*ReplicaSet); ok {
			out = append(out, rs.Stats())
		}
	}
	return out
}

// PK returns the public key the partition's tables are encrypted under.
func (c *ShardedC1) PK() *paillier.PublicKey { return c.pk }
