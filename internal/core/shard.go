package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// Candidate is one entry of a shard-local top-k list, still fully
// encrypted: the record — moved obliviously through the selection network
// for SkNNm, the stored one for SkNNb, either way in the scanning
// session's RowLayout, so usually one or two row-packed ciphertexts
// rather than m — plus its composed distance E(d), the one the network
// moved with it for SkNNm, the scanned one for SkNNb. Shipping candidates
// instead of results is what makes the scatter-gather exact: the
// coordinator re-runs the selection protocol over s·k candidates rather
// than trusting any shard-local ordering.
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
	Shape     dataset.Shape
	Clustered bool
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
	// query's own context is done. The int after k is ignored (callers
	// pass 0; l is the table's): bench/taps.go's shardSpy implements it.
	TopK(ctx context.Context, q EncryptedQuery, k, _, target int, secure bool) ([]Candidate, *SecureMetrics, error)
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
		Shape:     t.Shape(),
		Clustered: t.Clustered(),
	}
}

// TopK runs the shard-local scan in a session leased from the shard's
// own link pool, bound to ctx.
func (s *LocalShard) TopK(ctx context.Context, q EncryptedQuery, k, _, target int, secure bool) ([]Candidate, *SecureMetrics, error) {
	return s.C1.TopK(ctx, q, k, target, secure)
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
// and gathers once every shard has returned (gather): a secure merge
// over the s·k encrypted candidates (selectTopK, the identical selection
// network the shards ran) yields the exact global top-k. The paper's one
// C1 is the S = 1 case: the single shard's k-set is already the answer,
// so the coordinator merges nothing and only reveals.
//
// Leakage is the same class as a single-shard query: C2 additionally
// sees that a merge network compares s·k blinded values, and C1-side parties
// learn which shards were probed (all of them, every query — the
// scatter is oblivious by uniformity) and, per clustered shard, which
// clusters were probed. Nothing record-level is revealed; see
// docs/PROTOCOLS.md.
type ShardedC1 struct {
	shards []Shard
	pool   *linkPool
	pk     *paillier.PublicKey
	shape  dataset.Shape
}

// NewShardedC1 wires a coordinator over the given shard workers and its
// own merge connections to C2. The shards must form one coherent
// partition: indices 0..S−1 exactly once, all agreeing on table shape —
// and so on the squared-distance domain l, which the shape determines;
// the merge links must be served by the same CloudC2 as the shards',
// and every merge link's requesters read random (nil: crypto/rand).
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
	shape := shards[0].Info().Shape
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
		if info.Shape != shape {
			return fail(fmt.Errorf("%w: shard %d table shape %v, want %v", ErrShardTopology, i, info.Shape, shape))
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
	c := &ShardedC1{shards: ordered, pool: pool, pk: pk, shape: shape}
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

// Shape reports the table shape every shard agreed on: the record arity,
// the feature columns a query must have, and the attribute width b every
// SkNNm query attribute must stay below. Its DomainBits is l, the
// squared-distance domain SkNNm compares in.
func (c *ShardedC1) Shape() dataset.Shape { return c.shape }

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
	return openSession(ctx, c.pool, nil, c.pk, c.shape)
}

// gather is every query's path through the coordinator, SkNNm's and
// SkNNb's alike: scatter to every shard and wait for all of them, merge
// once, reveal. Every shard is probed on every query, so the scatter
// itself is data-independent and shard choice leaks nothing.
//
// SkNNm merges the non-empty per-shard lists with mergeCandidates when
// more than one remains; a lone k-set is already the answer.
// SkNNb ranks the lists' concatenation in one more OpRank round whenever
// S > 1. Either way the merge's frames are a function of S and the list
// lengths — public counts — not of which shard finished first.
//
// Scatter is the wall clock from start until the last shard returned,
// Merge the rest (merge and reveal); the shards' counters are summed,
// with the coordinator's merge traffic on top in Comm.
func (c *ShardedC1) gather(ctx context.Context, q EncryptedQuery, k, target int, secure bool) (*MaskedResult, *SecureMetrics, error) {
	n, err := c.checkArgs(q, k)
	if err != nil {
		return nil, nil, err
	}
	if secure {
		if err := CheckDomainBits(c.pk, c.shape.DomainBits()); err != nil {
			return nil, nil, err
		}
	}
	metrics := &SecureMetrics{Shards: c.partitions()}
	start := time.Now()
	lists, err := c.scatter(ctx, q, k, target, secure, metrics)
	if err != nil {
		return nil, nil, err
	}
	gathered := time.Now()
	metrics.Scatter = gathered.Sub(start)
	var nonEmpty [][]Candidate
	var all []Candidate
	for _, list := range lists {
		if len(list) > 0 {
			nonEmpty = append(nonEmpty, list)
			all = append(all, list...)
		}
	}
	if err := c.checkGathered(k, len(all), n); err != nil {
		return nil, nil, err
	}

	s, err := c.mergeSession(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	selected := all
	switch {
	case secure && len(nonEmpty) > 1:
		selected, err = s.mergeCandidates(nonEmpty, k, metrics)
	case !secure && len(c.shards) > 1:
		phase := time.Now()
		selected, err = s.rankCandidates(all, k)
		metrics.Select += time.Since(phase)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: merge: %w", err)
	}

	phase := time.Now()
	var res *MaskedResult
	if secure {
		res, err = s.reveal(candidateRecords(selected))
	} else {
		res, err = s.revealBasic(selected)
	}
	if err != nil {
		return nil, nil, err
	}
	metrics.Reveal = time.Since(phase)
	metrics.Merge = time.Since(gathered)
	metrics.Total = time.Since(start)
	metrics.Comm = metrics.Comm.Add(s.CommStats())
	return res, metrics, nil
}

// scatter runs every shard's TopK under one child context, waits for all
// of them, and returns their candidate lists in shard order, adding each
// shard's counters to metrics. A failed scan cancels the others, and the
// query reports the first real failure (firstFailure) once all are back.
func (c *ShardedC1) scatter(ctx context.Context, q EncryptedQuery, k, target int, secure bool, metrics *SecureMetrics) ([][]Candidate, error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	lists := make([][]Candidate, len(c.shards))
	sms := make([]*SecureMetrics, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lists[i], sms[i], errs[i] = sh.TopK(sctx, q, k, 0, target, secure)
			if errs[i] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	var first error
	for i, err := range errs {
		if err != nil {
			first = firstFailure(first, fmt.Errorf("core: shard %d scan: %w", i, err))
		} else if sms[i] != nil {
			metrics.add(sms[i])
		}
	}
	return lists, first
}

// firstFailure keeps the error a failed query reports: a real failure
// beats the knock-on ErrCanceled the other shards report after the
// scatter-wide cancel (when the caller itself canceled, every error is an
// ErrCanceled and the lowest shard's wins).
func firstFailure(first, err error) error {
	if first == nil || (errors.Is(first, ErrCanceled) && !errors.Is(err, ErrCanceled)) {
		return err
	}
	return first
}

// checkArgs is the validation both protocols share, run before any
// shard is contacted. It returns the live record count it validated k
// against — read once per query, since every shard is asked for it.
func (c *ShardedC1) checkArgs(q EncryptedQuery, k int) (n int, err error) {
	if len(q) != c.shape.FeatureM {
		return 0, fmt.Errorf("%w: query has %d attributes, table has %d feature columns",
			ErrDimension, len(q), c.shape.FeatureM)
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

// SecureQuery runs SkNNm (Algorithm 6), the fully secure protocol: data
// confidentiality, query privacy, and access-pattern hiding against both
// clouds. Every shard runs the scan and the selection network over its
// partition — pruned to the nearest clusters' records when the shard is
// clustered and target > 0 (the per-shard candidate-pool floor), full
// otherwise — the coordinator's merge picks the global top-k from the
// shards' k-sets, and the coordinator reveals it to Bob via masking, as
// a set: Bob ranks the rows himself (NearestFirst).
//
// The comparisons run in the table's squared-distance domain l
// (Shape().DomainBits()): every |Q−tᵢ|² is below 2^l for a query inside the
// attribute domain. dataset.DomainBits derives it from the attribute
// width and the feature columns, exactly: a comparison peels the l + 1
// bits of 2^l + a − b, so l needs no headroom bit (only
// internal/reference, whose step 3(e) sentinel must sit above every
// distance, decomposes at l + 1). l sizes the comparisons only; the packed slots are as wide as the
// table's attribute width, as SkNNb's are. A key that cannot carry l
// (CheckDomainBits: l ≤ K − 69) is ErrDomainBits.
//
// The pruned scan trades a documented leak for its speed: C1 learns
// which clusters (not which records) a query touches — the SVD-style
// relaxation of access-pattern hiding. C2's view is unchanged.
//
// The metrics aggregate the query (see gather). Canceling ctx cancels
// every outstanding shard scan and aborts the merge.
func (c *ShardedC1) SecureQuery(ctx context.Context, q EncryptedQuery, k, target int) (*MaskedResult, *SecureMetrics, error) {
	return c.gather(ctx, q, k, target, true)
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
	return c.gather(ctx, q, k, 0, false)
}
