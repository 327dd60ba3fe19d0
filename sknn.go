package sknn

import (
	"crypto/rand"
	"errors"
	"fmt"
	"sync"

	"sknn/internal/cluster"
	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// Mode selects which of the paper's two protocols answers a query.
type Mode int

const (
	// ModeBasic runs SkNNb (Algorithm 5): fast, but leaks distances to
	// C2 and access patterns to both clouds.
	ModeBasic Mode = iota
	// ModeSecure runs SkNNm (Algorithm 6): full confidentiality and
	// access-pattern hiding.
	ModeSecure
)

func (m Mode) String() string {
	switch m {
	case ModeBasic:
		return "SkNNb"
	case ModeSecure:
		return "SkNNm"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// IndexMode selects how SkNNm scans the table.
type IndexMode int

const (
	// IndexNone is the paper-faithful full scan: every query ranks all n
	// records, so nothing about the data distribution leaks — the
	// default.
	IndexNone IndexMode = iota
	// IndexClustered prunes with a clustered secure index: the data
	// owner k-means-partitions the rows at outsourcing time
	// (internal/cluster), the centroids ride along encrypted, and each
	// SkNNm query first obliviously ranks the centroids, then runs the
	// per-record protocol over only the nearest clusters' records. Cost
	// becomes proportional to the candidate set instead of n, in
	// exchange for a documented leak: C1 learns which clusters (never
	// which records) each query touches — the SVD-style access-pattern
	// relaxation (Yao, Li, Xiao, ICDE 2013). Results are exact whenever
	// the true k neighbors live in the probed clusters; Config.Coverage
	// sizes the candidate pool to make that hold on clusterable data.
	IndexClustered
)

func (m IndexMode) String() string {
	switch m {
	case IndexNone:
		return "none"
	case IndexClustered:
		return "clustered"
	default:
		return fmt.Sprintf("IndexMode(%d)", int(m))
	}
}

// DefaultCoverage is the default candidate-pool sizing factor for
// IndexClustered: a query's probed clusters must together hold at least
// max(k, DefaultCoverage·k) records.
const DefaultCoverage = 4.0

// Metric aliases so facade users can consume phase breakdowns without
// importing internal packages.
type (
	// BasicMetrics is the phase breakdown of one SkNNb query.
	BasicMetrics = core.BasicMetrics
	// SecureMetrics is the phase breakdown of one SkNNm query (and, on
	// a sharded system, the coordinator's aggregate for either mode).
	SecureMetrics = core.SecureMetrics
)

// QueryMetrics is the per-query phase breakdown attached to every
// Result, the same on every topology. Secure is the coordinator's
// aggregate for the query in either mode: scatter/merge split, summed
// shard counters and traffic, the partition width (0 when the table is
// served whole). Basic is additionally set for ModeBasic queries: SkNNb's
// own three phases read off that aggregate.
type QueryMetrics struct {
	Basic  *BasicMetrics
	Secure *SecureMetrics
}

// Config tunes System construction.
type Config struct {
	// KeyBits is the Paillier modulus size; the paper evaluates 512 and
	// 1024. Default 512.
	KeyBits int
	// Workers is the number of links — parallel C1↔C2 connections — per
	// link pool (the link half of the paper's Section 5.3
	// parallelization): every shard worker gets its own pool of this
	// width and the coordinator another for the merge and reveal. A query
	// arriving on an idle pool spans every link, one frame per link and
	// phase where one link sends one; queries arriving under concurrent
	// load get an even share of the links, so throughput scales with
	// concurrency instead. Default 1. Links are not cores: on any number
	// of links each party also spreads its batch computations over the
	// idle cores of its process, which changes no frame and has no
	// setting but GOMAXPROCS (docs/ARCHITECTURE.md "Concurrency model").
	Workers int
	// Shards splits the encrypted table into this many partitions, each
	// owned by an independent C1 shard worker with its own link pool to
	// C2, and plans every query as scatter (each shard runs the
	// existing pruned or full secure scan over its partition, producing
	// an encrypted shard-local top-k) then gather (a merge over the s·k
	// candidates on the same selection network yields the exact global
	// top-k).
	// Records are partitioned by stable id mod Shards; mutations route
	// to the owning shard. 0 or 1 = one worker holds the whole table and
	// the gather has nothing to merge. Requires Shards ≤ n.
	Shards int
	// Key reuses an existing Paillier key instead of generating one —
	// key generation dominates setup time, so benchmarks share keys. The
	// library only reads it: a key is immutable from construction, so
	// any number of systems may share one, stood up concurrently or not.
	Key *paillier.PrivateKey
	// FeatureColumns restricts distance computation to the first f
	// attributes; trailing columns (class labels, identifiers) are
	// returned with results but never ranked on. 0 means all columns
	// are features. This is the layout secure kNN classification uses
	// (see examples/classifier).
	FeatureColumns int
	// Index selects SkNNm's scan strategy: IndexNone (default, paper-
	// faithful full scan) or IndexClustered (partition-pruned; see the
	// IndexMode docs for the leakage tradeoff). ModeBasic ignores the
	// index — SkNNb already reveals access patterns, and its C2-side
	// rank step is not the bottleneck the index exists to cut.
	Index IndexMode
	// Clusters is the k-means cell count for IndexClustered. 0 picks
	// ⌈√n⌉ (cluster.DefaultClusters), which balances centroid ranking
	// against per-cluster scanning. On a sharded system the clustering
	// happens before the split, so each shard inherits its slice of the
	// global cells.
	Clusters int
	// Coverage sizes IndexClustered's candidate pool: clusters are
	// probed until they hold at least max(k, Coverage·k) records. 0
	// means DefaultCoverage. Larger values trade SMIN savings for
	// recall on badly clusterable (e.g. uniform) data. Sharded, the
	// floor applies per shard scan.
	Coverage float64
	// CompactThreshold is the dirty-fraction bound of the live table:
	// when (tombstones + inserts since the last clean build) exceeds
	// this fraction of stored records, the next Insert or Delete
	// triggers Compact — physical tombstone removal plus, on a
	// clustered system, the owner-side re-cluster that refreshes the
	// centroids. On a sharded system the bound applies shard by shard:
	// compacting one shard never disturbs the others. 0 means
	// DefaultCompactThreshold; negative disables automatic compaction
	// (call Compact yourself).
	CompactThreshold float64
}

// DefaultCompactThreshold is the default dirty-fraction bound that
// triggers automatic Compact on a mutated table.
const DefaultCompactThreshold = 0.25

// ErrClosed is returned by queries on a closed System.
var ErrClosed = errors.New("sknn: system closed")

// System wires every party of the paper in one process: Alice encrypts
// and outsources, C1 and C2 form the federated cloud (connected by
// in-process pipes), and Bob issues queries. It is the quickstart
// entry point. Its C1 is core.NewEngine's in-process shape, the one
// sknnd c1 also serves with its links dialled to a C2 daemon; sknnd
// coord instead wires a coordinator over shard workers it dials.
//
// A System is safe for concurrent use: any number of Query and
// QueryBatch calls may be in flight at once. Each query runs in its own
// sessions multiplexed over the Workers connections of each pool to C2,
// so concurrent queries share the pools instead of serializing behind a
// global lock. Every query takes a context.Context; canceling it aborts
// the query within one protocol round and releases its pooled links (see
// Query).
//
// There is one engine on every topology: C1 is a coordinator over
// Config.Shards workers, and every query runs scatter-gather —
// shard-local scans in parallel, then a secure merge and the reveal at
// the coordinator. The paper's single C1 is the default, one worker
// holding the whole table, where the gather has nothing to merge.
// Results are the same on every topology in both index modes.
// Replication is a deployment feature, not a System one: sknnd workers
// dialled by a coordinator and grouped by core.GroupReplicas.
type System struct {
	sk          *paillier.PrivateKey
	eng         *core.Engine // the coordinator every query enters through, over Shards workers
	client      *core.Client
	index       IndexMode
	cfgClusters int     // requested cluster count (0 = ⌈√n⌉), reused by Compact rebuilds
	coverage    float64 // candidate-pool factor when index == IndexClustered
	compactAt   float64 // dirty-fraction bound; <0 disables auto-compact

	// writeMu serializes table mutations (Insert, Delete, Compact):
	// writers are rare next to queries, which stay fully concurrent on
	// their session views.
	writeMu sync.Mutex

	mu        sync.Mutex
	closed    bool
	closeDone chan struct{}  // closed when teardown has fully finished
	closeErr  error          // valid once closeDone is closed
	inflight  sync.WaitGroup // in-flight Query/QueryBatch/mutation calls
	serveWG   sync.WaitGroup
}

// New builds a System over the given plaintext table: rows of uint64
// attributes, each value in [0, 2^attrBits). This performs Alice's
// one-time setup (key generation and attribute-wise encryption) and
// stands up the federated cloud.
func New(rows [][]uint64, attrBits int, cfg Config) (*System, error) {
	tbl := &dataset.Table{Rows: rows, AttrBits: attrBits}
	if err := tbl.Validate(); err != nil {
		return nil, fmt.Errorf("sknn: %w", err)
	}
	// Reject bad configuration, and a shape no table admits, before the
	// expensive key generation and table encryption below.
	if err := normalizeConfig(&cfg); err != nil {
		return nil, err
	}
	shape := dataset.Shape{M: tbl.M(), FeatureM: tbl.M(), AttrBits: attrBits}
	if cfg.FeatureColumns > 0 {
		shape.FeatureM = cfg.FeatureColumns
	}
	if err := shape.Check(); err != nil {
		return nil, fmt.Errorf("sknn: %w", err)
	}
	sk := cfg.Key
	if sk == nil {
		var err error
		sk, err = paillier.GenerateKey(rand.Reader, cfg.KeyBits)
		if err != nil {
			return nil, fmt.Errorf("sknn: generating key: %w", err)
		}
	}

	// Refuse a domain the key cannot carry before paying for the table.
	if err := core.CheckDomainBits(&sk.PublicKey, shape.DomainBits()); err != nil {
		return nil, fmt.Errorf("sknn: %w", err)
	}

	encTable, err := core.EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		return nil, fmt.Errorf("sknn: outsourcing table: %w", err)
	}
	// The declared shape — its domain, not the widest initial value,
	// bounds what Insert may add later, and so sizes the packed slots.
	snap := encTable.Snapshot()
	snap.Shape = shape
	if encTable, err = core.RestoreTable(&sk.PublicKey, snap); err != nil {
		return nil, fmt.Errorf("sknn: %w", err)
	}
	if cfg.Index == IndexClustered {
		// Alice-side partitioning: she still holds the plaintext here, so
		// clustering leaks nothing beyond the index layout it produces.
		// Only the feature prefix participates (payload columns carry no
		// distance information). Deterministic seed: a re-outsourced
		// table gets the same layout.
		featureRows := tbl.Rows
		if shape.FeatureM < shape.M {
			featureRows = make([][]uint64, len(tbl.Rows))
			for i, row := range tbl.Rows {
				featureRows[i] = row[:shape.FeatureM]
			}
		}
		c := cfg.Clusters
		if c == 0 {
			c = cluster.DefaultClusters(tbl.N())
		}
		part, err := cluster.KMeans(featureRows, c, 1)
		if err != nil {
			return nil, fmt.Errorf("sknn: clustering table: %w", err)
		}
		// encTable is fresh and unpublished: index it in place.
		if err := encTable.SetClusterIndex(rand.Reader, part.Centroids, part.Members); err != nil {
			return nil, fmt.Errorf("sknn: attaching cluster index: %w", err)
		}
	}
	return assemble(sk, encTable, cfg)
}

// normalizeConfig applies defaults and rejects invalid settings. Shared
// by New and LoadTable.
func normalizeConfig(cfg *Config) error {
	if cfg.KeyBits == 0 {
		cfg.KeyBits = 512
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("sknn: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Index != IndexNone && cfg.Index != IndexClustered {
		return fmt.Errorf("sknn: unknown index mode %d", int(cfg.Index))
	}
	if cfg.Clusters < 0 {
		return fmt.Errorf("sknn: negative cluster count %d", cfg.Clusters)
	}
	if !(cfg.Coverage >= 0) {
		return fmt.Errorf("sknn: coverage factor %g, want ≥ 0", cfg.Coverage)
	}
	if cfg.Coverage == 0 {
		cfg.Coverage = DefaultCoverage
	}
	if cfg.CompactThreshold == 0 {
		cfg.CompactThreshold = DefaultCompactThreshold
	}
	return nil
}

// assemble stands up the federated cloud around an already-encrypted
// table: the shared back half of New (fresh encryption) and LoadTable
// (snapshot reload — note no encryption happens here, which is what
// keeps the load path encrypt-free). core.NewEngine builds the one
// shape — Shards workers and a coordinator over them — and one
// in-process C2 serves every link of it, shard pools and the
// coordinator's merge pool alike (its handlers are stateless).
func assemble(sk *paillier.PrivateKey, encTable *core.EncryptedTable, cfg Config) (*System, error) {
	index := IndexNone
	if encTable.Clustered() {
		index = IndexClustered
	}
	sys := &System{
		sk:          sk,
		client:      core.NewClient(&sk.PublicKey, nil),
		index:       index,
		cfgClusters: cfg.Clusters,
		coverage:    cfg.Coverage,
		compactAt:   cfg.CompactThreshold,
		closeDone:   make(chan struct{}),
	}
	c2 := core.NewCloudC2(sk, nil)
	pool := func() ([]mpc.Conn, error) {
		conns := make([]mpc.Conn, cfg.Workers)
		for i := range conns {
			c1Side, c2Side := mpc.ChanPipe()
			conns[i] = c1Side
			sys.serveWG.Add(1)
			go func(conn mpc.Conn) {
				defer sys.serveWG.Done()
				// Serve returns nil on orderly shutdown; any other error is a
				// protocol bug surfaced to the requester as a broken round
				// trip, so it is not separately reported here.
				_ = c2.Serve(conn)
			}(c2Side)
		}
		return conns, nil
	}
	var err error
	if sys.eng, err = core.NewEngine(encTable, cfg.Shards, pool); err != nil {
		sys.serveWG.Wait() // NewEngine closed every link it was handed
		return nil, fmt.Errorf("sknn: %w", err)
	}
	return sys, nil
}

// tables lists the live tables, one per shard.
func (s *System) tables() []*core.EncryptedTable {
	out := make([]*core.EncryptedTable, len(s.eng.Workers))
	for i, sh := range s.eng.Workers {
		out[i] = sh.Table()
	}
	return out
}

// shardFor routes a stable record id to the worker of its owning
// partition (id mod S).
func (s *System) shardFor(id uint64) *core.CloudC1 {
	return s.eng.Workers[id%uint64(len(s.eng.Workers))]
}

// N returns the number of live outsourced records: the initial table
// plus Inserts, minus Deletes. Tombstoned rows awaiting Compact are not
// counted.
func (s *System) N() int { return s.eng.N() }

// M returns the number of attributes.
func (s *System) M() int { return s.eng.Shape().M }

// DomainBits returns l, the squared-distance domain size SkNNm uses:
// dataset.DomainBits of the table's attribute width and feature columns.
func (s *System) DomainBits() int { return s.eng.Shape().DomainBits() }

// PublicKey exposes the Paillier public key (e.g. for encrypting
// additional data under the same system).
func (s *System) PublicKey() *paillier.PublicKey { return &s.sk.PublicKey }

// Workers reports the configured links per link pool.
func (s *System) Workers() int { return s.eng.Workers[0].Workers() }

// Shards reports the partition width (1 when the table is served whole).
func (s *System) Shards() int { return s.eng.Shards() }

// Index reports the configured SkNNm scan strategy.
func (s *System) Index() IndexMode { return s.index }

// Clusters reports the total cluster count of the clustered index (0
// when Index is IndexNone; summed over shards when sharded). Compact
// may rebuild with a different count as the table grows or shrinks.
func (s *System) Clusters() int {
	c := 0
	for _, t := range s.tables() {
		c += t.Clusters()
	}
	return c
}

// FeatureM returns how many leading attributes participate in distance
// computation — the dimension a query vector must have (equal to M
// unless Config.FeatureColumns narrowed it).
func (s *System) FeatureM() int { return s.eng.Shape().FeatureM }

// CommStats reports cumulative C1↔C2 traffic over every link pool
// (shard workers and coordinator included).
func (s *System) CommStats() mpc.StatsSnapshot { return s.eng.CommStats() }

// begin registers an in-flight query so Close can drain instead of
// dropping it.
func (s *System) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.inflight.Add(1)
	return nil
}

func (s *System) end() { s.inflight.Done() }

// Close shuts down the federated cloud: new queries are refused with
// ErrClosed, in-flight queries are drained to completion (not dropped),
// and only then are the connections and serve loops torn down. Every
// Close call — including concurrent and repeated ones — returns only
// after teardown has fully finished.
func (s *System) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.closeDone
		return s.closeErr
	}
	s.closed = true
	s.mu.Unlock()
	s.inflight.Wait()
	s.closeErr = s.eng.Close()
	s.serveWG.Wait()
	close(s.closeDone)
	return s.closeErr
}
