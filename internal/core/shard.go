package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// Candidate is one entry of a shard-local top-k list, still fully
// encrypted: the record — obliviously extracted for SkNNm, the stored one
// for SkNNb, either way in the scanning session's RowLayout, so usually
// one or two row-packed ciphertexts rather than m — plus its composed
// distance E(d) — the rank-round's E(dmin) for SkNNm, the scanned
// distance for SkNNb. Shipping candidates instead of results is what
// makes the scatter-gather exact: the coordinator re-runs the selection
// protocol over s·k candidates rather than trusting any shard-local
// ordering.
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
	AttrBits  int // the table's attribute width
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
	// Local reports where the shard's scans run. ok means they burn this
	// process's CPUs, so the gather admits at most GOMAXPROCS of them at
	// once; lender, when non-nil, is the in-process worker whose idle C2
	// links the merge may borrow once its scan has landed. A wrapper that
	// embeds a Shard is treated exactly like the shard it wraps.
	Local() (lender *CloudC1, ok bool)
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
		AttrBits:  t.AttrBits(),
		Clustered: t.Clustered(),
	}
}

// Local reports the worker itself: its scans run here and its idle
// links can be lent.
func (s *LocalShard) Local() (*CloudC1, bool) { return s.C1, true }

// TopK runs the shard-local scan in a session leased from the shard's
// own link pool, bound to ctx.
func (s *LocalShard) TopK(ctx context.Context, q EncryptedQuery, k, domainBits, target int, secure bool) ([]Candidate, *SecureMetrics, error) {
	return s.C1.TopK(ctx, q, k, domainBits, target, secure)
}

// ErrShardTopology is returned when a set of shards does not form one
// coherent partition (mismatched counts, duplicate or missing indices,
// disagreeing table shapes or keys).
var ErrShardTopology = fmt.Errorf("core: inconsistent shard topology")

// ShardedC1 is the query engine: the scatter-gather coordinator every
// query enters through, whatever the topology. S shard workers each own
// one partition of the encrypted table (record id mod S) and a private
// link pool to C2, and the coordinator owns its own link pool for the
// gather phase. A query scatters — every shard runs the pruned or full
// scan over its partition, producing an encrypted shard-local top-k —
// and gathers as the results land (stream.go): a secure SMINn-based
// merge over the s·k encrypted candidates (selectTopK, the identical
// engine the shards ran) yields the exact global top-k. The paper's one
// C1 is the S = 1 case: the single shard's rank-ordered k-set is already
// the answer, so the coordinator merges nothing and only reveals.
//
// Leakage is the same class as a single-shard query: C2 additionally
// sees that a merge round ranks s·k blinded values, and C1-side parties
// learn which shards were probed (all of them, every query — the
// scatter is oblivious by uniformity) and, per clustered shard, which
// clusters were probed. Nothing record-level is revealed; see
// docs/PROTOCOLS.md.
type ShardedC1 struct {
	shards   []Shard
	pool     *linkPool
	pk       *paillier.PublicKey
	m        int
	featM    int
	attrBits int
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
	var m, featM, attrBits int
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
			m, featM, attrBits = info.M, info.FeatureM, info.AttrBits
		} else if info.M != m || info.FeatureM != featM || info.AttrBits != attrBits {
			return fail(fmt.Errorf("%w: shard %d table shape %d/%d of %d-bit attributes, want %d/%d of %d",
				ErrShardTopology, i, info.M, info.FeatureM, info.AttrBits, m, featM, attrBits))
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
	c := &ShardedC1{shards: ordered, pool: pool, pk: pk, m: m, featM: featM, attrBits: attrBits}
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

// partitions is what SecureMetrics.Shards reports: S, or 0 for a table
// served whole (see the field's comment for why not 1).
func (c *ShardedC1) partitions() int {
	if len(c.shards) == 1 {
		return 0
	}
	return len(c.shards)
}

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
// gathered candidates, needing only the key and the table shape.
func (c *ShardedC1) mergeSession(ctx context.Context) (*QuerySession, error) {
	return openSession(ctx, c.pool, 0, nil, c.pk, c.m, c.featM, c.attrBits)
}

// scatter is SkNNb's gather: it fans the query out to every shard
// (launch), waits for all of them, and returns the gathered candidates
// in shard order plus the aggregated shard metrics (SkNNm folds arrivals
// as they land instead, see stream.go). Every shard is probed on every
// query — the scatter itself is data-independent, so shard choice leaks
// nothing. All shard scans run under one child context: the first
// failure (or the caller's own cancellation) cancels every outstanding
// scan, and the merge never starts.
func (c *ShardedC1) scatter(ctx context.Context, q EncryptedQuery, k, n int, metrics *SecureMetrics) ([]Candidate, error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	arrivals := c.launch(sctx, cancel, q, k, 0, 0, false)
	sets := make([][]Candidate, len(c.shards))
	var firstErr error
	for range c.shards {
		arr := <-arrivals
		if arr.err != nil {
			firstErr = firstFailure(firstErr, fmt.Errorf("core: shard %d scan: %w", arr.index, arr.err))
			continue
		}
		if arr.sm != nil {
			metrics.add(arr.sm)
		}
		sets[arr.index] = arr.cands
	}
	metrics.Scatter = time.Since(start)
	metrics.Shards = c.partitions()
	if firstErr != nil {
		return nil, firstErr
	}
	var all []Candidate
	for _, set := range sets {
		all = append(all, set...)
	}
	if err := c.checkGathered(k, len(all), n); err != nil {
		return nil, err
	}
	return all, nil
}

// checkArgs is the validation both protocols share, run before any
// shard is contacted. It returns the live record count it validated k
// against — read once per query, since every shard is asked for it.
func (c *ShardedC1) checkArgs(q EncryptedQuery, k int) (n int, err error) {
	if len(q) != c.featM {
		return 0, fmt.Errorf("%w: query has %d attributes, table has %d feature columns",
			ErrDimension, len(q), c.featM)
	}
	n = c.N()
	return n, validateK(k, n)
}

// checkGathered refuses a gather that came back short of k: the shards
// held n live records when the query was validated, so fewer than k
// candidates means deletes landed between that check and the scans.
func (c *ShardedC1) checkGathered(k, gathered, n int) error {
	if err := validateK(k, gathered); err != nil {
		return fmt.Errorf("core: %d candidates gathered from %d shards holding %d records: %w",
			gathered, len(c.shards), n, err)
	}
	return nil
}

// BasicQuery runs SkNNb (Algorithm 5) on the packed kernels: every shard
// computes its encrypted distances — one slot-packed ciphertext per
// record up, one down — and lets C2 decrypt and rank them, one more rank
// round over the gathered s·k encrypted distances picks the global top-k,
// and the winners are revealed to Bob via masking, nearest first, as
// ⌈m/c⌉ row-packed shares each. A single shard's k-set is already
// C2-ranked, so at S = 1 there is no second rank round. (The protocol as
// printed is internal/reference.SkNNb.) The slots are sized by the table's
// attribute width, which bounds the stored columns only: a query attribute
// is any uint64 — below 2^(b+64) it cannot overflow a slot — though one far
// above 2^b spends the statistical blind's margin, which is Bob's own.
//
// SkNNb is the efficiency baseline: it deliberately relaxes security —
// C2 learns every plaintext distance, and both clouds learn which
// records answer the query (data access patterns). Use SecureQuery for
// the full guarantees.
//
// The metrics come in the SecureMetrics shape the coordinator shares
// with SkNNm: Distance is the summed shard SSED time, Select the time C2
// spent ranking, Scatter/Merge the wall-clock split. Canceling ctx
// cancels every outstanding shard scan and aborts the merge.
func (c *ShardedC1) BasicQuery(ctx context.Context, q EncryptedQuery, k int) (*MaskedResult, *SecureMetrics, error) {
	n, err := c.checkArgs(q, k)
	if err != nil {
		return nil, nil, err
	}
	metrics := &SecureMetrics{}
	start := time.Now()
	selected, err := c.scatter(ctx, q, k, n, metrics)
	if err != nil {
		return nil, nil, err
	}
	mergeStart := time.Now()
	s, err := c.mergeSession(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	if len(c.shards) > 1 {
		phase := time.Now()
		selected, err = s.rankCandidates(selected, k)
		if err != nil {
			return nil, nil, fmt.Errorf("core: merge: %w", err)
		}
		metrics.Select += time.Since(phase)
	}
	phase := time.Now()
	res, err := s.revealBasic(selected)
	if err != nil {
		return nil, nil, err
	}
	metrics.Reveal = time.Since(phase)
	metrics.Merge = time.Since(mergeStart)
	metrics.Total = time.Since(start)
	metrics.Comm = metrics.Comm.Add(s.CommStats())
	return res, metrics, nil
}
