package core

import (
	"context"
	"fmt"
	"io"
	"math"

	"sknn/internal/mpc"
)

// CloudC1 is the data cloud: it stores Alice's encrypted table and owns
// a pool of connections (links) to C2. Queries do not run on CloudC1
// directly; each runs inside a QuerySession leased from the pool, so any
// number of queries can be in flight at once. A session spanning w links
// runs its per-record phases on w parallel workers (the paper's Section
// 5.3 OpenMP parallelization, expressed as goroutines); the scheduler
// multiplexes concurrent sessions over the links via tagged streams
// (mpc.Multiplexer), so sharing a link never crosses replies.
//
// In a sharded deployment a CloudC1 is one shard worker: it owns one
// partition of the table and its own link pool, and the ShardedC1
// coordinator scatters per-shard top-k scans across workers before a
// secure merge (see shard.go).
type CloudC1 struct {
	table *EncryptedTable
	pool  *linkPool
}

// NewCloudC1 wires the data cloud to C2 over the given connections.
// Every connection must be served by the same CloudC2 (its handlers are
// stateless, so any number of serve loops can share one CloudC2).
func NewCloudC1(table *EncryptedTable, conns []mpc.Conn, random io.Reader) (*CloudC1, error) {
	pool, err := newLinkPool(conns, random)
	if err != nil {
		return nil, err
	}
	c := &CloudC1{table: table, pool: pool}
	if err := pool.handshake(table.pk.N); err != nil {
		for _, link := range pool.links {
			link.Close()
		}
		return nil, err
	}
	return c, nil
}

// Table returns the outsourced encrypted table.
func (c *CloudC1) Table() *EncryptedTable { return c.table }

// Workers reports the parallelism degree (number of C2 links).
func (c *CloudC1) Workers() int { return c.pool.workers() }

// CommStats aggregates traffic over all links and their sessions.
func (c *CloudC1) CommStats() mpc.StatsSnapshot { return c.pool.commStats() }

// NewSession leases a QuerySession spanning width links, bound to ctx
// for the session's whole lifetime (cancel the context to abort the
// query it runs). width <= 0 asks the scheduler to decide: a session
// opened on an idle pool spans every link (lowest single-query latency,
// the paper's parallel variant), while sessions opened under concurrent
// load get an even share of the pool, narrowing toward one link per
// query so throughput scales with in-flight queries instead. Sessions
// placed on busy links interleave safely — streams are tagged — and the
// session must be Closed to return its capacity.
func (c *CloudC1) NewSession(ctx context.Context, width int) (*QuerySession, error) {
	// Capture the table view outside the pool lock (view takes the
	// table's own read lock); the session pins this state for its whole
	// lifetime.
	return newSession(ctx, c.pool, width, c.table.view())
}

// Close drains every in-flight session, then tears the link pool down.
// Queries issued after Close fail with ErrCloudClosed.
func (c *CloudC1) Close() error { return c.pool.Close() }

// checkQuery validates Bob's query against the session's feature columns.
func (s *QuerySession) checkQuery(q EncryptedQuery) error {
	if len(q) != s.featureM {
		return fmt.Errorf("%w: query has %d attributes, table has %d feature columns",
			ErrDimension, len(q), s.featureM)
	}
	return nil
}

// BasicQuery runs SkNNb in a session leased for this one call.
func (c *CloudC1) BasicQuery(ctx context.Context, q EncryptedQuery, k int) (*MaskedResult, error) {
	res, _, err := c.BasicQueryMetered(ctx, q, k)
	return res, err
}

// BasicQueryMetered is BasicQuery plus phase timings and traffic counts.
func (c *CloudC1) BasicQueryMetered(ctx context.Context, q EncryptedQuery, k int) (*MaskedResult, *BasicMetrics, error) {
	s, err := c.NewSession(ctx, 0)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	return s.BasicQueryMetered(q, k)
}

// SecureQuery runs SkNNm in a session leased for this one call.
func (c *CloudC1) SecureQuery(ctx context.Context, q EncryptedQuery, k, domainBits int) (*MaskedResult, error) {
	res, _, err := c.SecureQueryMetered(ctx, q, k, domainBits)
	return res, err
}

// SecureQueryMetered is SecureQuery plus phase timings and traffic counts.
func (c *CloudC1) SecureQueryMetered(ctx context.Context, q EncryptedQuery, k, domainBits int) (*MaskedResult, *SecureMetrics, error) {
	s, err := c.NewSession(ctx, 0)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	return s.SecureQueryMetered(q, k, domainBits)
}

// SecureQueryClustered runs the partition-pruned SkNNm variant in a
// session leased for this one call. The table must carry a cluster
// index (EncryptedTable.WithClusterIndex); target is the minimum
// candidate-pool size, see QuerySession.SecureQueryClustered.
func (c *CloudC1) SecureQueryClustered(ctx context.Context, q EncryptedQuery, k, domainBits, target int) (*MaskedResult, error) {
	res, _, err := c.SecureQueryClusteredMetered(ctx, q, k, domainBits, target)
	return res, err
}

// SecureQueryClusteredMetered is SecureQueryClustered plus phase
// timings, traffic counts, and pruning counters.
func (c *CloudC1) SecureQueryClusteredMetered(ctx context.Context, q EncryptedQuery, k, domainBits, target int) (*MaskedResult, *SecureMetrics, error) {
	s, err := c.NewSession(ctx, 0)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	return s.SecureQueryClusteredMetered(q, k, domainBits, target)
}

// TopK runs the shard-local half of a scatter-gather query in a session
// leased for this one call: the same scan a standalone query performs —
// pruned when the table carries a cluster index and target > 0, full
// otherwise — stopped before the masked reveal, so the encrypted top-k
// candidates can travel to a coordinator for the secure merge. k is
// clamped to the shard's live record count (a shard smaller than k
// contributes everything it has). ctx cancels the scan between rounds —
// the coordinator aborts every shard of a canceled scatter this way.
func (c *CloudC1) TopK(ctx context.Context, q EncryptedQuery, k, domainBits, target int, secure bool) ([]Candidate, *SecureMetrics, error) {
	s, err := c.NewSession(ctx, 0)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	return s.TopK(q, k, domainBits, target, secure)
}

// CoverageTarget converts a candidate-pool factor into the per-query
// pool floor max(k, ceil(coverage*k)) shared by the facade and the
// shard CLI.
func CoverageTarget(coverage float64, k int) int {
	target := int(math.Ceil(coverage * float64(k)))
	if target < k {
		target = k
	}
	return target
}
