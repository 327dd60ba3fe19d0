package core

import (
	"context"
	"fmt"
	"io"
	"math"

	"sknn/internal/mpc"
)

// CloudC1 is one worker of the data cloud: it stores one partition of
// Alice's encrypted table — the whole table when there is one worker —
// and owns a pool of connections (links) to C2. Queries enter through
// the ShardedC1 coordinator (shard.go), which asks every worker for its
// partition's encrypted top-k (TopK) and merges and reveals the result.
// Each scan runs inside a QuerySession leased from the pool, so any
// number can be in flight at once. A session spanning w links runs its
// per-record phases on w parallel workers (the paper's Section 5.3
// OpenMP parallelization, expressed as goroutines); the scheduler
// multiplexes concurrent sessions over the links via tagged streams
// (mpc.Multiplexer), so sharing a link never crosses replies.
type CloudC1 struct {
	table *EncryptedTable
	pool  *linkPool
}

// NewCloudC1 wires the data cloud to C2 over the given connections.
// Every connection must be served by the same CloudC2 (its handlers are
// stateless, so any number of serve loops can share one CloudC2). Every
// link's requesters read random (nil: crypto/rand).
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

// NewSession leases a QuerySession bound to ctx for the session's whole
// lifetime (cancel the context to abort the query it runs). The
// scheduler picks its links: a session opened on an idle pool spans
// every link (lowest single-query latency, the paper's parallel
// variant), while sessions opened under concurrent load get an even
// share of the pool, narrowing toward one link per query so throughput
// scales with in-flight queries instead. Sessions
// placed on busy links interleave safely — streams are tagged — and the
// session must be Closed to return its capacity.
func (c *CloudC1) NewSession(ctx context.Context) (*QuerySession, error) {
	// Capture the table view outside the pool lock (view takes the
	// table's own read lock); the session pins this state for its whole
	// lifetime.
	v := c.table.view()
	return openSession(ctx, c.pool, v, v.pk, v.Shape)
}

// Close drains every in-flight session, then tears the link pool down.
// Queries issued after Close fail with ErrCloudClosed.
func (c *CloudC1) Close() error { return c.pool.Close() }

// checkQuery validates Bob's query against the session's feature columns.
func (s *QuerySession) checkQuery(q EncryptedQuery) error {
	if len(q) != s.shape.FeatureM {
		return fmt.Errorf("%w: query has %d attributes, table has %d feature columns",
			ErrDimension, len(q), s.shape.FeatureM)
	}
	return nil
}

// BasicQueryMetered runs SkNNb on this one worker in a session leased for
// the call, with no coordinator. No query path of the product enters
// here — they all go through ShardedC1.BasicQuery; it and the session
// method under it survive solely because bench/workloads.go drives the
// basic_tcp workload through them and bench/ cannot change in the same
// PR as the engine. Move that workload onto the coordinator, then delete
// both.
func (c *CloudC1) BasicQueryMetered(ctx context.Context, q EncryptedQuery, k int) (*MaskedResult, *BasicMetrics, error) {
	s, err := c.NewSession(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	return s.BasicQueryMetered(q, k)
}

// TopK runs the worker's half of a query in a session leased for this
// one call: the scan — pruned when the table carries a cluster index and
// target > 0, full otherwise — stopped before the masked reveal, so the
// encrypted top-k candidates can travel to the coordinator for the
// secure merge. k is
// clamped to the shard's live record count (a shard smaller than k
// contributes everything it has). ctx cancels the scan between rounds —
// the coordinator aborts every shard of a canceled scatter this way.
func (c *CloudC1) TopK(ctx context.Context, q EncryptedQuery, k, target int, secure bool) ([]Candidate, *SecureMetrics, error) {
	s, err := c.NewSession(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	return s.TopK(q, k, target, secure)
}

// CoverageTarget converts a candidate-pool factor into the per-query
// pool floor max(k, ceil(coverage*k)) shared by the facade and the
// shard CLI. A pool no int can hold — an infinite, NaN or huge factor —
// saturates at math.MaxInt, which probes every cluster.
func CoverageTarget(coverage float64, k int) int {
	pool := math.Ceil(coverage * float64(k))
	switch {
	case !(pool < math.MaxInt):
		return math.MaxInt
	case pool < float64(k):
		return k
	}
	return int(pool)
}
