package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// Candidate is one entry of a shard-local top-k list, still fully
// encrypted: the obliviously extracted record — in the scanning
// session's RowLayout, so usually one or two row-packed ciphertexts
// rather than m — plus its composed distance E(d) — the rank-round's E(dmin) for SkNNm, the scanned
// distance for SkNNb. Shipping candidates instead of results is what
// makes the scatter-gather exact: the coordinator re-runs the selection
// protocol over s·k candidates rather than trusting any shard-local
// ordering. SkNNm candidates used to carry the [dmin] bit decomposition
// for the coordinator's bit-vector merge; the value-domain merge
// consumes composed values directly, so the l-ciphertext vector is gone
// from the struct and from the OpShardTopK frame.
type Candidate struct {
	Dist *paillier.Ciphertext // E(d), the candidate's composed distance
	Rec  EncryptedRecord
	// ID is the stable record id — meaningful on SkNNb candidates only,
	// where the protocol already reveals which records were selected.
	// SkNNm candidates are obliviously extracted, so no party (including
	// this code) knows which record one holds; the field stays zero.
	ID uint64
}

// ShardInfo describes one shard worker to the coordinator: its position
// in the partition (records with id ≡ Index mod Count live here), its
// live size, and the table shape every shard must agree on.
type ShardInfo struct {
	Index     int // shard index in [0, Count)
	Count     int // total shards in the partition
	N         int // live records on this shard
	M         int
	FeatureM  int
	Clustered bool
	// Replica is this worker's ordinal within its shard's replica set —
	// identification for operators and failover accounting only; replicas
	// of one shard serve the same snapshot and are interchangeable.
	Replica int
}

// Shard is one partition worker the coordinator scatters to: a local
// CloudC1 in the same process, or a remote worker reached over the wire
// (see shardwire.go). TopK runs the shard-local scan — pruned when the
// shard is clustered and target > 0 — and returns the encrypted
// candidates; Info is re-read per call because live sizes change under
// mutation.
type Shard interface {
	Info() ShardInfo
	// TopK honors ctx between protocol rounds: the coordinator cancels
	// every outstanding shard scan the moment one shard fails or the
	// query's own context is done.
	TopK(ctx context.Context, q EncryptedQuery, k, domainBits, target int, secure bool) ([]Candidate, *SecureMetrics, error)
}

// LocalShard adapts an in-process CloudC1 worker to the Shard interface.
type LocalShard struct {
	C1    *CloudC1
	Index int
	Count int
}

// Info reports the shard's current shape.
func (s *LocalShard) Info() ShardInfo {
	t := s.C1.Table()
	return ShardInfo{
		Index:     s.Index,
		Count:     s.Count,
		N:         t.N(),
		M:         t.M(),
		FeatureM:  t.FeatureM(),
		Clustered: t.Clustered(),
	}
}

// TopK runs the shard-local scan in a session leased from the shard's
// own link pool, bound to ctx.
func (s *LocalShard) TopK(ctx context.Context, q EncryptedQuery, k, domainBits, target int, secure bool) ([]Candidate, *SecureMetrics, error) {
	return s.C1.TopK(ctx, q, k, domainBits, target, secure)
}

// ErrShardTopology is returned when a set of shards does not form one
// coherent partition (mismatched counts, duplicate or missing indices,
// disagreeing table shapes or keys).
var ErrShardTopology = fmt.Errorf("core: inconsistent shard topology")

// ShardedC1 is the scatter-gather coordinator of a sharded deployment:
// S shard workers each own one partition of the encrypted table (record
// id mod S) and a private link pool to C2, and the coordinator owns its
// own link pool for the gather phase. A query scatters — every shard
// runs the existing pruned or full secure scan over its partition,
// producing an encrypted shard-local top-k — and gathers as the results
// land (stream.go): a secure SMINn-based merge over the s·k encrypted
// candidates (selectTopK, the identical engine the shards ran) yields
// the exact global top-k.
//
// Leakage is the same class as a single-shard query: C2 additionally
// sees that a merge round ranks s·k blinded values, and C1-side parties
// learn which shards were probed (all of them, every query — the
// scatter is oblivious by uniformity) and, per clustered shard, which
// clusters were probed. Nothing record-level is revealed; see
// docs/PROTOCOLS.md.
type ShardedC1 struct {
	shards []Shard
	pool   *linkPool
	pk     *paillier.PublicKey
	m      int
	featM  int
}

// NewShardedC1 wires a coordinator over the given shard workers and its
// own merge connections to C2. The shards must form one coherent
// partition: indices 0..S−1 exactly once, all agreeing on table shape;
// the merge links must be served by the same CloudC2 as the shards'.
func NewShardedC1(shards []Shard, mergeConns []mpc.Conn, pk *paillier.PublicKey, random io.Reader) (*ShardedC1, error) {
	// Every error path owns the merge connections: close them so the
	// peer's serve loops terminate instead of leaking.
	fail := func(err error) (*ShardedC1, error) {
		for _, conn := range mergeConns {
			conn.Close()
		}
		return nil, err
	}
	if len(shards) == 0 {
		return fail(fmt.Errorf("%w: no shards", ErrShardTopology))
	}
	seen := make([]bool, len(shards))
	var m, featM int
	for i, sh := range shards {
		info := sh.Info()
		if info.Count != len(shards) {
			return fail(fmt.Errorf("%w: shard %d says the partition has %d shards, coordinator has %d",
				ErrShardTopology, i, info.Count, len(shards)))
		}
		if info.Index < 0 || info.Index >= len(shards) || seen[info.Index] {
			return fail(fmt.Errorf("%w: shard index %d duplicated or out of range", ErrShardTopology, info.Index))
		}
		seen[info.Index] = true
		if i == 0 {
			m, featM = info.M, info.FeatureM
		} else if info.M != m || info.FeatureM != featM {
			return fail(fmt.Errorf("%w: shard %d table shape %d/%d, want %d/%d",
				ErrShardTopology, i, info.M, info.FeatureM, m, featM))
		}
	}
	// Order the workers by shard index so shards[i] owns ids ≡ i mod S.
	ordered := make([]Shard, len(shards))
	for _, sh := range shards {
		ordered[sh.Info().Index] = sh
	}
	pool, err := newLinkPool(mergeConns, random)
	if err != nil {
		return fail(err)
	}
	c := &ShardedC1{shards: ordered, pool: pool, pk: pk, m: m, featM: featM}
	if err := pool.handshake(pk.N); err != nil {
		for _, link := range pool.links {
			link.Close()
		}
		return nil, err
	}
	return c, nil
}

// Shards reports the partition width S.
func (c *ShardedC1) Shards() int { return len(c.shards) }

// Shard returns worker i (owning record ids ≡ i mod S).
func (c *ShardedC1) Shard(i int) Shard { return c.shards[i] }

// M reports the record arity every shard agreed on.
func (c *ShardedC1) M() int { return c.m }

// FeatureM reports the feature-column count every shard agreed on.
func (c *ShardedC1) FeatureM() int { return c.featM }

// N sums the live records over every shard.
func (c *ShardedC1) N() int {
	n := 0
	for _, sh := range c.shards {
		n += sh.Info().N
	}
	return n
}

// CommStats reports the coordinator's own merge-link traffic (shard
// scan traffic lives on each shard's pool).
func (c *ShardedC1) CommStats() mpc.StatsSnapshot { return c.pool.commStats() }

// Close tears down the coordinator's merge pool. The shard workers are
// owned by their creator and closed separately.
func (c *ShardedC1) Close() error { return c.pool.Close() }

// mergeSession leases a table-less session from the coordinator's pool:
// the selection engine (selectTopK / rankCandidates / reveal) runs on
// gathered candidates, needing only the key and record arity.
func (c *ShardedC1) mergeSession(ctx context.Context) (*QuerySession, error) {
	return openSession(ctx, c.pool, 0, nil, c.pk, c.m, c.featM)
}

// scatter is SkNNb's gather: it fans the query out to every shard
// concurrently, waits for all of them, and returns the gathered
// candidates plus the aggregated shard metrics (SkNNm streams instead,
// see stream.go). Every shard is probed on every query — the scatter
// itself is data-independent, so shard choice leaks nothing. All shard
// scans run under one child context: the first failure (or the caller's
// own cancellation) cancels every outstanding scan, and the merge never
// starts.
func (c *ShardedC1) scatter(ctx context.Context, q EncryptedQuery, k int, metrics *SecureMetrics) ([]Candidate, error) {
	type shardOut struct {
		cands []Candidate
		sm    *SecureMetrics
		err   error
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	outs := make([]shardOut, len(c.shards))
	start := time.Now()
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			cands, sm, err := sh.TopK(sctx, q, k, 0, 0, false)
			outs[i] = shardOut{cands: cands, sm: sm, err: err}
			if err != nil {
				cancel() // one failed shard aborts the whole scatter
			}
		}(i, sh)
	}
	wg.Wait()
	metrics.Scatter = time.Since(start)
	metrics.Shards = len(c.shards)

	var all []Candidate
	var firstErr error
	for i, out := range outs {
		if out.err != nil {
			// Prefer a real shard failure over the knock-on ErrCanceled
			// the surviving shards report after the scatter-wide cancel
			// (when the caller itself canceled, every error is an
			// ErrCanceled and the first one wins).
			if firstErr == nil || (errors.Is(firstErr, ErrCanceled) && !errors.Is(out.err, ErrCanceled)) {
				firstErr = fmt.Errorf("core: shard %d scan: %w", i, out.err)
			}
			continue
		}
		if out.sm != nil {
			metrics.add(out.sm)
		}
		all = append(all, out.cands...)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := validateK(k, len(all)); err != nil {
		return nil, fmt.Errorf("core: %d candidates gathered from %d shards: %w", len(all), len(c.shards), err)
	}
	return all, nil
}

// SecureQuery runs the scatter-gather SkNNm: shard-local secure scans,
// then the secure top-k merge. target > 0 selects the pruned scan on
// clustered shards (the per-shard candidate-pool floor); pass 0 for
// full shard scans. Canceling ctx cancels every outstanding shard scan
// and aborts the merge.
func (c *ShardedC1) SecureQuery(ctx context.Context, q EncryptedQuery, k, domainBits, target int) (*MaskedResult, error) {
	res, _, err := c.SecureQueryMetered(ctx, q, k, domainBits, target)
	return res, err
}

// BasicQuery runs the scatter-gather SkNNb: shard-local scan-and-rank,
// then one more rank round over the gathered s·k encrypted distances.
// Same leakage class as single-shard SkNNb (C2 sees plaintext
// distances, both clouds see access patterns). Canceling ctx cancels
// every outstanding shard scan and aborts the merge.
func (c *ShardedC1) BasicQuery(ctx context.Context, q EncryptedQuery, k int) (*MaskedResult, error) {
	res, _, err := c.BasicQueryMetered(ctx, q, k)
	return res, err
}

// BasicQueryMetered is BasicQuery plus aggregated metrics (in the
// SecureMetrics shape the coordinator shares with SkNNm: Distance is
// the summed shard SSED time, Scatter/Merge the wall-clock split).
func (c *ShardedC1) BasicQueryMetered(ctx context.Context, q EncryptedQuery, k int) (*MaskedResult, *SecureMetrics, error) {
	if len(q) != c.featM {
		return nil, nil, fmt.Errorf("%w: query has %d attributes, table has %d feature columns",
			ErrDimension, len(q), c.featM)
	}
	if err := validateK(k, c.N()); err != nil {
		return nil, nil, err
	}
	metrics := &SecureMetrics{}
	start := time.Now()
	cands, err := c.scatter(ctx, q, k, metrics)
	if err != nil {
		return nil, nil, err
	}
	mergeStart := time.Now()
	s, err := c.mergeSession(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	selected, err := s.rankCandidates(cands, k)
	if err != nil {
		return nil, nil, fmt.Errorf("core: merge: %w", err)
	}
	ids := make([]uint64, len(selected))
	for i, cand := range selected {
		ids[i] = cand.ID
	}
	res, err := s.reveal(candidateRecords(selected), perAttribute)
	if err != nil {
		return nil, nil, err
	}
	res.IDs = ids
	metrics.Merge = time.Since(mergeStart)
	metrics.Total = time.Since(start)
	metrics.Comm = metrics.Comm.Add(s.CommStats())
	return res, metrics, nil
}
