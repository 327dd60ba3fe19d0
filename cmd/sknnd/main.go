// Command sknnd deploys the federated cloud across real processes and
// machines using the TCP transport. It has four subcommands mirroring
// the paper's parties:
//
//	sknnd keygen  -bits 512 -out alice.key
//	    Alice generates her Paillier key pair.
//
//	sknnd encrypt -key alice.key -data data.csv -bits 8 -out table.snap [-clusters 16]
//	    Alice encrypts her table attribute-wise for outsourcing, writing
//	    the internal/store snapshot format; -clusters attaches the
//	    clustered secure index at outsourcing time.
//
//	sknnd c2 -key alice.key -listen :7002 [-inflight 4]
//	    The key cloud C2: holds the secret key, serves protocol requests.
//	    Each connection's interleaved session frames are handled
//	    concurrently (-inflight at a time).
//
//	sknnd c1 -table table.snap -connect host:7002 -q 1,2,3 -k 5 -mode secure [-workers 4]
//	    The data cloud C1: holds the encrypted table, runs the protocol,
//	    and (playing Bob as well, for CLI convenience) encrypts the query
//	    and unmasks the result. It is the one-shard case of coord below —
//	    the same engine over a single worker in this process. Multiple
//	    queries — ';'-separated in -q or one per line in -qfile — are
//	    answered concurrently, each in its own sessions multiplexed over
//	    the -workers connections of each link pool. A clustered snapshot
//	    is queried through the partition-pruned SkNNm variant (-coverage
//	    tunes the candidate pool).
//
// Three more subcommands deploy the sharded scatter-gather topology —
// S shard workers, one C2, one coordinator, all over TCP:
//
//	sknnd split -table table.snap -shards 2
//	    Partition a snapshot into table.snap.s0, table.snap.s1 (record
//	    id mod S; pure ciphertext shuffling, no re-encryption).
//
//	sknnd shard -table table.snap.s0 -connect host:7002 -listen :7101 [-workers 4]
//	    One C1 shard worker: holds its partition, scans it with its own
//	    link pool to C2, and serves shard-local encrypted top-k lists to
//	    coordinators.
//
//	sknnd coord -shards host:7101,host:7102 -connect host:7002 -q 1,2,3 -k 5 [-mode secure]
//	    The scatter-gather coordinator (playing Bob as well): scatters
//	    each query to every shard, folds shard results into a streaming
//	    value-domain merge over its own C2 links as each scan lands, and
//	    unmasks the exact global top-k. Listing the same shard's replicas
//	    as separate addresses groups them into a failover set.
//
// Two more subcommands deploy the multi-tenant serving tier:
//
//	sknnd gateway -tenants gateway.json -listen :7100 [-metrics :7190] [-token T]
//	    The serving front end: each tenant in the roster gets its own
//	    backend (the coordinator over a snapshot-backed worker or over
//	    dialed, possibly replicated shard workers), admission control, and
//	    Prometheus-text metrics. Shutdown drains: in-flight queries
//	    finish, nothing new is admitted.
//
//	sknnd query -connect host:7100 -tenant alpha -token S -q 1,2,3 -k 5
//	    Bob at the edge: authenticates to a gateway as one tenant and
//	    queries through it, printing results in the c1/coord format.
//
// Every listener supports wire hardening: -token requires a pre-shared
// token proved in a challenge-response handshake before any protocol
// frame is served (unauthenticated connections are refused uniformly),
// and -rate caps the frame rate one connection can push. Serving
// subcommands drain gracefully on SIGINT/SIGTERM; batch query
// subcommands abort in-flight protocol rounds with the typed
// cancellation error instead.
//
// The table file never contains plaintext or the secret key; C1 learns
// nothing it wouldn't in the paper's model — the snapshot is exactly
// C1's legitimate artifact (ciphertexts, public key, index layout), and
// a shard file is exactly one worker's slice of it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"sknn/internal/cluster"
	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/store"

	"crypto/rand"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sknnd: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "keygen":
		cmdKeygen(os.Args[2:])
	case "encrypt":
		cmdEncrypt(os.Args[2:])
	case "c2":
		cmdC2(os.Args[2:])
	case "c1", "coord":
		cmdEngine(os.Args[1], os.Args[2:])
	case "split":
		cmdSplit(os.Args[2:])
	case "shard":
		cmdShard(os.Args[2:])
	case "gateway":
		cmdGateway(os.Args[2:])
	case "query":
		cmdQuery(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sknnd {keygen|encrypt|c2|c1|split|shard|coord|gateway|query} [flags]")
	os.Exit(2)
}

func cmdKeygen(args []string) {
	fs := flag.NewFlagSet("keygen", flag.ExitOnError)
	bits := fs.Int("bits", 512, "Paillier key size")
	out := fs.String("out", "alice.key", "private key output file")
	fs.Parse(args)

	sk, err := paillier.GenerateKey(rand.Reader, *bits)
	if err != nil {
		log.Fatal(err)
	}
	if err := store.WriteKeyFile(*out, sk); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d-bit private key to %s\n", *bits, *out)
}

func loadKey(path string) *paillier.PrivateKey {
	sk, err := store.ReadKeyFile(path)
	if err != nil {
		log.Fatal(err)
	}
	return sk
}

func cmdEncrypt(args []string) {
	fs := flag.NewFlagSet("encrypt", flag.ExitOnError)
	keyPath := fs.String("key", "alice.key", "Alice's private key")
	dataPath := fs.String("data", "", "plaintext CSV table (required)")
	bits := fs.Int("bits", 8, "attribute domain size in bits")
	out := fs.String("out", "table.snap", "encrypted table snapshot output file")
	clusters := fs.Int("clusters", 0, "attach a clustered secure index with this many cells (0 = no index)")
	fs.Parse(args)
	if *dataPath == "" {
		fs.Usage()
		os.Exit(2)
	}

	sk := loadKey(*keyPath)
	f, err := os.Open(*dataPath)
	if err != nil {
		log.Fatal(err)
	}
	tbl, err := dataset.ReadCSV(f, *bits)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	enc, err := core.EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		log.Fatal(err)
	}
	// -bits is the declared domain: it, not the widest value in the file,
	// is the width the snapshot header carries.
	if enc, err = enc.WithAttrBits(tbl.AttrBits); err != nil {
		log.Fatal(err)
	}
	if *clusters > 0 {
		// Owner-side partitioning: Alice still holds the plaintext here.
		part, err := cluster.KMeans(tbl.Rows, *clusters, 1)
		if err != nil {
			log.Fatal(err)
		}
		enc, err = enc.WithClusterIndex(rand.Reader, part.Centroids, part.Members)
		if err != nil {
			log.Fatal(err)
		}
	}
	err = store.WriteFile(*out, &sk.PublicKey, enc.Snapshot(), dataset.DomainBits(tbl.AttrBits, tbl.M()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "encrypted %d×%d table to %s (%d clusters)\n",
		tbl.N(), tbl.M(), *out, enc.Clusters())
}

func cmdC2(args []string) {
	fs := flag.NewFlagSet("c2", flag.ExitOnError)
	keyPath := fs.String("key", "alice.key", "Alice's private key (entrusted to C2)")
	listen := fs.String("listen", ":7002", "TCP listen address")
	inflight := fs.Int("inflight", 4, "interleaved requests handled at once per connection")
	token := fs.String("token", "", "pre-shared token clients must prove (empty = open listener)")
	rate := fs.Float64("rate", 0, "per-connection frame rate limit, frames/sec (0 = unlimited)")
	burst := fs.Int("burst", 0, "rate-limit burst (minimum 1 when -rate is set)")
	drain := fs.Duration("drain", 10*time.Second, "how long shutdown waits for clients to hang up")
	fs.Parse(args)

	sk := loadKey(*keyPath)
	c2 := core.NewCloudC2(sk, nil)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "C2 (key cloud) serving on %s (%d in-flight requests/conn)\n", ln.Addr(), *inflight)
	serveUntilSignal(ln, *drain, nil, func(netConn net.Conn) {
		defer netConn.Close()
		conn, err := guard(netConn, *token, *rate, *burst)
		if err != nil {
			log.Printf("connection from %s refused: %v", netConn.RemoteAddr(), err)
			return
		}
		// Each accepted connection carries any number of multiplexed C1
		// query sessions; serve their interleaved frames concurrently.
		if err := c2.ServeConcurrent(conn, *inflight); err != nil {
			log.Printf("session from %s: %v", netConn.RemoteAddr(), err)
		}
	})
	fmt.Fprintln(os.Stderr, "C2 drained")
}

// cmdEngine is the c1 and coord subcommands: the one query engine over
// a worker in this process holding the whole snapshot (c1, the paper's
// single data cloud) or over dialled shard workers (coord), answering a
// batch of queries and — playing Bob for CLI convenience — unmasking the
// results.
func cmdEngine(sub string, args []string) {
	fs := flag.NewFlagSet(sub, flag.ExitOnError)
	var spec tenantSpec
	var shardsStr string
	concurrency := 0
	if sub == "c1" {
		fs.StringVar(&spec.Table, "table", "table.snap", "encrypted table snapshot file")
		fs.IntVar(&concurrency, "concurrency", 0, "queries in flight at once (0 = all at once)")
	} else {
		fs.StringVar(&shardsStr, "shards", "", "comma-separated shard worker addresses (required)")
		fs.StringVar(&spec.ShardToken, "shard-token", "", "pre-shared token the shard listeners require")
	}
	fs.StringVar(&spec.C2, "connect", "127.0.0.1:7002", "C2 address")
	fs.StringVar(&spec.C2Token, "c2-token", "", "pre-shared token the C2 listener requires")
	fs.IntVar(&spec.Workers, "workers", 1, "links: parallel connections to C2 per link pool this process owns (the coordinator's, and the table worker's under c1); cores are used regardless, up to GOMAXPROCS")
	queryStr := fs.String("q", "", "query attributes, comma-separated; separate multiple queries with ';'")
	queryFile := fs.String("qfile", "", "file with one comma-separated query per line (alternative to -q)")
	k := fs.Int("k", 5, "number of neighbors")
	mode := fs.String("mode", "secure", `protocol: "basic" or "secure"`)
	coverage := fs.Float64("coverage", 4, "per-shard candidate-pool factor on a clustered table")
	timeout := fs.Duration("timeout", 0, "per-query deadline; 0 = none. Expiry cancels every outstanding shard scan")
	fs.Parse(args)
	queries, err := collectQueries(*queryStr, *queryFile)
	if err != nil {
		log.Fatal(err)
	}
	if len(queries) == 0 || (sub == "coord" && shardsStr == "") {
		fs.Usage()
		os.Exit(2)
	}
	if shardsStr != "" {
		spec.Shards = strings.Split(shardsStr, ",")
	}
	eng, err := buildEngine(spec)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	eng.runQueries(queries, *k, *mode, *coverage, concurrency, *timeout)
}

// queryContext arms a per-query deadline (0 = only the base context's
// cancellation — typically the operator's interrupt — bounds the run).
func queryContext(base context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(base, timeout)
	}
	return context.WithCancel(base)
}

// fatalQueryErr names the typed error class of a failed query instead
// of echoing an opaque string.
func fatalQueryErr(i int, q []uint64, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		log.Fatalf("query %d %v aborted: core.ErrCanceled (context.DeadlineExceeded, -timeout elapsed)", i, q)
	case errors.Is(err, core.ErrCanceled):
		log.Fatalf("query %d %v aborted: core.ErrCanceled (%v)", i, q, err)
	default:
		log.Fatalf("query %d %v: %v", i, q, err)
	}
}

// cmdSplit partitions a whole-table snapshot into shard files — the
// owner-side resharding step, no re-encryption involved.
func cmdSplit(args []string) {
	fs := flag.NewFlagSet("split", flag.ExitOnError)
	tablePath := fs.String("table", "table.snap", "whole-table snapshot to partition")
	shards := fs.Int("shards", 2, "number of shard files to produce")
	outBase := fs.String("out", "", "output base path (default: the -table path; shard i lands at <base>.s<i>)")
	fs.Parse(args)
	if *shards < 1 {
		log.Fatalf("-shards must be ≥ 1, got %d", *shards)
	}
	base := *outBase
	if base == "" {
		base = *tablePath
	}
	paths, err := store.SplitFile(*tablePath, base, *shards)
	if err != nil {
		log.Fatal(err)
	}
	for i, path := range paths {
		fmt.Fprintf(os.Stderr, "wrote shard %d/%d to %s\n", i, *shards, path)
	}
}

// cmdShard runs one C1 shard worker: it owns one partition file, scans
// it against C2 over its own link pool, and serves encrypted top-k
// candidate lists to any number of coordinators.
func cmdShard(args []string) {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	tablePath := fs.String("table", "", "shard snapshot file from sknnd split (required)")
	connect := fs.String("connect", "127.0.0.1:7002", "C2 address")
	listen := fs.String("listen", ":7101", "TCP listen address for coordinators")
	workers := fs.Int("workers", 1, "parallel connections to C2")
	replica := fs.Int("replica", 0, "this worker's ordinal within its shard's replica set")
	token := fs.String("token", "", "pre-shared token coordinators must prove (empty = open listener)")
	c2Token := fs.String("c2-token", "", "pre-shared token the C2 listener requires")
	rate := fs.Float64("rate", 0, "per-connection frame rate limit, frames/sec (0 = unlimited)")
	burst := fs.Int("burst", 0, "rate-limit burst (minimum 1 when -rate is set)")
	drain := fs.Duration("drain", 10*time.Second, "how long shutdown waits for coordinators to hang up")
	fs.Parse(args)
	if *tablePath == "" {
		fs.Usage()
		os.Exit(2)
	}
	snap, err := store.ReadFile(*tablePath)
	if err != nil {
		log.Fatal(err)
	}
	if !snap.Sharded() {
		log.Fatalf("%s is a whole-table snapshot; run sknnd split first (or serve it with sknnd c1)", *tablePath)
	}
	table, err := core.RestoreTable(snap.PK, snap.Table)
	if err != nil {
		log.Fatal(err)
	}
	conns := make([]mpc.Conn, *workers)
	for i := range conns {
		if conns[i], err = mpc.DialAuth(*connect, *c2Token); err != nil {
			log.Fatal(err)
		}
	}
	c1, err := core.NewCloudC1(table, conns, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer c1.Close()
	srv, err := core.NewShardServer(c1, snap.ShardIndex, snap.ShardCount, snap.DomainBits)
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.SetReplica(*replica); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "shard %d/%d replica %d (%d records, index clustered=%v) serving on %s, C2 at %s\n",
		snap.ShardIndex, snap.ShardCount, *replica, table.N(), table.Clustered(), ln.Addr(), *connect)
	serveUntilSignal(ln, *drain, nil, func(netConn net.Conn) {
		defer netConn.Close()
		conn, err := guard(netConn, *token, *rate, *burst)
		if err != nil {
			log.Printf("connection from %s refused: %v", netConn.RemoteAddr(), err)
			return
		}
		if err := srv.Serve(conn); err != nil {
			log.Printf("coordinator session from %s: %v", netConn.RemoteAddr(), err)
		}
	})
	fmt.Fprintf(os.Stderr, "shard %d/%d replica %d drained\n", snap.ShardIndex, snap.ShardCount, *replica)
}

// collectQueries merges the -q list and the -qfile lines.
func collectQueries(queryStr, queryFile string) ([][]uint64, error) {
	var out [][]uint64
	if queryStr != "" {
		for _, part := range strings.Split(queryStr, ";") {
			if strings.TrimSpace(part) == "" {
				continue // tolerate trailing/doubled separators
			}
			q, err := parseQuery(part)
			if err != nil {
				return nil, err
			}
			out = append(out, q)
		}
	}
	if queryFile != "" {
		data, err := os.ReadFile(queryFile)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			q, err := parseQuery(line)
			if err != nil {
				return nil, err
			}
			out = append(out, q)
		}
	}
	return out, nil
}

func parseQuery(s string) ([]uint64, error) {
	parts := strings.Split(s, ",")
	out := make([]uint64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("query attribute %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}
