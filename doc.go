// Package sknn is a Go implementation of "Secure k-Nearest Neighbor
// Query over Encrypted Data in Outsourced Environments" (Elmehdwi,
// Samanthula, Jiang — ICDE 2014).
//
// It lets a data owner outsource a Paillier-encrypted relational table to
// a federated cloud (two non-colluding semi-honest servers C1 and C2) and
// lets authorized users run exact k-nearest-neighbor queries over the
// encrypted data. Two protocols are provided:
//
//   - SkNNb (ModeBasic): efficient, but C2 learns plaintext distances
//     and both clouds learn data access patterns;
//   - SkNNm (ModeSecure): hides data content, the query, and access
//     patterns from both clouds, at a much higher computational cost.
//
// The top-level System type wires all parties in-process for
// single-machine use and experimentation. Queries go through one
// context-aware, options-based entry point (k defaults to 1, the mode
// to ModeSecure):
//
//	sys, err := sknn.New(rows, attrBits, sknn.Config{KeyBits: 512, Workers: 4})
//	defer sys.Close()
//	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
//	defer cancel()
//	res, err := sys.Query(ctx, query, sknn.WithK(5))
//	// res.Rows, res.Metrics.Secure; res.IDs on ModeBasic
//
// The context governs the whole multi-round protocol: cancel it (or
// let its deadline pass) and the query aborts within one protocol
// round, releases its pooled links, and returns an error satisfying
// errors.Is(err, sknn.ErrCanceled) as well as errors.Is against the
// context's own error. Bad requests fail fast with sknn.ErrBadQuery
// before any Paillier work. See docs/API.md for the options
// (WithK/WithMode/WithCoverage).
//
// A System is safe for concurrent use. Each query runs in its own
// protocol sessions multiplexed over the Config.Workers C1↔C2
// connections of each link pool, so any number of Query calls may be in
// flight at once,
// and QueryBatch answers a whole slice of queries concurrently:
//
//	results, err := sys.QueryBatch(ctx, queries, sknn.WithK(5), sknn.WithMode(sknn.ModeBasic))
//
// A lone query fans out across the idle connection pool (the paper's
// Section 5.3 parallel variant); concurrent queries share it, the
// scheduler narrowing each toward one connection as load grows. Close
// drains in-flight queries before tearing the cloud down.
//
// SkNNm's O(k·n) SMIN cost can be cut below linear with the clustered
// secure index: Config.Index = IndexClustered k-means-partitions the
// table at outsourcing time, ranks the encrypted cluster centroids
// obliviously at query time, and runs the per-record protocol over only
// the nearest clusters' records. The price is a documented leak — C1
// learns which clusters (never which records) a query touches — the
// partition-based relaxation of the secure-Voronoi line of work. See
// README.md's "Index modes and leakage" for the exact tradeoff;
// IndexNone (the default) remains the paper-faithful full scan.
//
// The outsourced table is live and durable. Insert appends
// owner-encrypted records (obliviously routed to their nearest cluster
// on an indexed table), Delete tombstones them by stable id, and
// Compact reclaims storage and re-clusters when churn passes
// Config.CompactThreshold; queries never block on mutations because
// every query session pins an immutable view of the table. SaveTable
// writes the versioned snapshot format of internal/store — ciphertexts,
// index, tombstones, domain metadata, key fingerprint — and LoadTable
// rebuilds a System from it with zero Paillier encryptions, so
// encrypt-once/query-many across restarts is the normal workflow:
//
//	sys.SaveTable(f)                              // C1's artifact: no plaintext, no key
//	sys2, err := sknn.LoadTable(f, sk, sknn.Config{})
//	id, err := sys2.Insert(row)
//	err = sys2.Delete(id)
//
// Every query runs as scatter-gather through one coordinator: each
// shard worker runs the pruned or full scan over its partition
// producing an encrypted shard-local top-k, and the coordinator merges
// the s·k candidates with the same SMINn selection protocol the shards
// ran and reveals the exact global top-k. By default one worker holds
// the whole table — the paper's single C1, where the gather has nothing
// to merge; Config.Shards > 1 partitions it across independent workers
// (record id mod S, pure ciphertext shuffling), at the same leakage
// class as a single-shard query. Mutations route to
// the owning shard; SaveTable writes the merged whole table, and
// LoadTable reshards it at any Config.Shards:
//
//	sys, err := sknn.New(rows, attrBits, sknn.Config{Shards: 4, Workers: 2})
//
// Config.Replicas > 1 additionally runs R interchangeable workers per
// shard over one shared ciphertext table: the coordinator picks the
// least-loaded live replica per scan and fails over with a requeue
// when one dies — a dead replica costs one retry, never a failed
// query. ReplicaStats reports liveness and retry counters, and
// GatewayBackend adapts the System to the multi-tenant serving tier in
// internal/gateway (tenant auth, admission control, metrics, drain).
//
// There is one query engine and no Config field that selects another:
// every query packs its uplinks, ranks in the value domain and carries
// records row-packed, which bounds the squared-distance domain at
// l ≤ K − 69 bits for a K-bit key (New and LoadTable refuse a wider one
// with core.ErrDomainBits). The paper's own Algorithms 4 and 6, as
// printed, live in internal/reference — the oracle the engine is tested
// against, not a mode of it.
//
// For a real multi-machine deployment, use the building blocks directly
// (internal/core, internal/mpc with the TCP transport) the way
// cmd/sknnd does — its shard/coord subcommands run the same
// scatter-gather across S shard processes, one C2, and a coordinator
// over TCP (c1 is coord's one-shard case, worker and coordinator in one
// process); its gateway/query subcommands add the replicated,
// token-authenticated multi-tenant serving tier (see
// docs/DEPLOYMENT.md).
//
// See README.md for the module layout and concurrency architecture,
// docs/ARCHITECTURE.md and docs/PROTOCOLS.md for the deep dives,
// docs/INVARIANTS.md for the invariant rules the in-tree sknnlint
// analyzer suite enforces over this codebase (randomness, bounded
// decoding, cancellation, the party boundary, lock discipline, and
// wire-error flow), and cmd/sknnbench for the reproduction of the
// paper's evaluation.
package sknn
