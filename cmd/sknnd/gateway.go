package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"sknn/internal/gateway"
	"sknn/internal/mpc"
)

// The gateway subcommand stands up the multi-tenant serving tier in
// front of whatever C1 topology each tenant runs — the engine
// buildEngine makes of a snapshot file or of dialed shard workers
// (replicas grouped automatically by their announced shard index). The
// query subcommand is the matching Bob-side client.

// tenantSpec is one entry of the -tenants JSON file. Exactly one of
// Table (a whole-table snapshot served by one in-process worker — the
// one-shard case of the same coordinator) and Shards (worker addresses;
// list the same shard's replicas as separate addresses and they are
// grouped by the shard index each worker announces) must be set. The
// tenant's C2 and shard dials authenticate with C2Token/ShardToken when
// those listeners require one. The c1 and coord subcommands fill in the
// same topology fields from their flags.
type tenantSpec struct {
	Name  string `json:"name"`
	Token string `json:"token"`

	Table      string   `json:"table,omitempty"`
	Shards     []string `json:"shards,omitempty"`
	ShardToken string   `json:"shard_token,omitempty"`

	C2      string `json:"c2"`
	C2Token string `json:"c2_token,omitempty"`
	Workers int    `json:"workers,omitempty"`

	// Target is the pruned-scan candidate floor on clustered tables
	// (core.CoverageTarget(coverage, k) for the operator's chosen
	// coverage and typical k); 0 scans fully.
	Target int `json:"target,omitempty"`

	// Admission quotas; zero values mean unlimited (see
	// gateway.TenantConfig).
	RateQPS     float64 `json:"rate_qps,omitempty"`
	Burst       int     `json:"burst,omitempty"`
	MaxInflight int     `json:"max_inflight,omitempty"`
	MaxQueue    int     `json:"max_queue,omitempty"`
}

// gatewaySpec is the -tenants file: the tenant roster.
type gatewaySpec struct {
	Tenants []tenantSpec `json:"tenants"`
}

func cmdGateway(args []string) {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	tenantsPath := fs.String("tenants", "", "tenant roster JSON file (required)")
	listen := fs.String("listen", ":7100", "TCP listen address for tenant clients")
	metricsAddr := fs.String("metrics", "", "HTTP listen address for GET /metrics (empty = no endpoint)")
	token := fs.String("token", "", "transport token required before the tenant handshake (empty = open listener)")
	rate := fs.Float64("rate", 0, "per-connection frame rate limit, frames/sec (0 = unlimited)")
	burst := fs.Int("burst", 0, "rate-limit burst (minimum 1 when -rate is set)")
	drain := fs.Duration("drain", 10*time.Second, "how long shutdown waits for tenant sessions to hang up")
	fs.Parse(args)
	if *tenantsPath == "" {
		fs.Usage()
		os.Exit(2)
	}

	data, err := os.ReadFile(*tenantsPath)
	if err != nil {
		log.Fatal(err)
	}
	var spec gatewaySpec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		log.Fatalf("%s: %v", *tenantsPath, err)
	}
	if len(spec.Tenants) == 0 {
		log.Fatalf("%s: no tenants", *tenantsPath)
	}

	g := gateway.NewGateway()
	for _, ts := range spec.Tenants {
		eng, err := buildEngine(ts)
		if err != nil {
			log.Fatalf("tenant %q: %v", ts.Name, err)
		}
		cfg := gateway.TenantConfig{
			Name:        ts.Name,
			Token:       ts.Token,
			DomainBits:  eng.domainBits,
			Target:      ts.Target,
			RateQPS:     ts.RateQPS,
			Burst:       ts.Burst,
			MaxInflight: ts.MaxInflight,
			MaxQueue:    ts.MaxQueue,
		}
		if err := g.AddTenant(cfg, gateway.NewCoordinatorBackend(eng.coord, eng.owned...)); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tenant %q: %s\n", ts.Name, eng.desc)
	}

	var msrv *http.Server
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", g.Metrics())
		msrv = &http.Server{Handler: mux}
		go func() {
			if err := msrv.Serve(mln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("metrics server: %v", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", mln.Addr())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "gateway serving %d tenants on %s\n", len(g.Tenants()), ln.Addr())
	serveUntilSignal(ln, *drain, func() {
		// Drain the serving tier: in-flight queries finish, then tenant
		// connections and backends close, which unblocks the handler
		// goroutines the accept loop is waiting on.
		if err := g.Close(); err != nil {
			log.Printf("gateway close: %v", err)
		}
	}, func(netConn net.Conn) {
		conn, err := guard(netConn, *token, *rate, *burst)
		if err != nil {
			log.Printf("connection from %s refused: %v", netConn.RemoteAddr(), err)
			return
		}
		if err := g.HandleConn(conn); err != nil {
			log.Printf("tenant session from %s: %v", netConn.RemoteAddr(), err)
		}
	})
	if msrv != nil {
		msrv.Close()
	}
	fmt.Fprintln(os.Stderr, "gateway drained")
}

// cmdQuery is Bob at the edge: it authenticates to a gateway as one
// tenant and runs queries through it, printing results in exactly the
// format the c1/coord subcommands use so outputs diff cleanly.
func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	connect := fs.String("connect", "127.0.0.1:7100", "gateway address")
	tenantName := fs.String("tenant", "", "tenant name (required)")
	token := fs.String("token", "", "tenant pre-shared token (required)")
	transportToken := fs.String("transport-token", "", "listener transport token (when the gateway runs -token)")
	queryStr := fs.String("q", "", "query attributes, comma-separated; separate multiple queries with ';'")
	queryFile := fs.String("qfile", "", "file with one comma-separated query per line (alternative to -q)")
	k := fs.Int("k", 5, "number of neighbors")
	mode := fs.String("mode", "secure", `protocol: "basic" or "secure"`)
	timeout := fs.Duration("timeout", 0, "per-query deadline; 0 = none")
	fs.Parse(args)
	queries, err := collectQueries(*queryStr, *queryFile)
	if err != nil {
		log.Fatal(err)
	}
	if *tenantName == "" || len(queries) == 0 {
		fs.Usage()
		os.Exit(2)
	}
	var secure bool
	switch *mode {
	case "basic":
		secure = false
	case "secure":
		secure = true
	default:
		log.Fatalf("unknown -mode %q", *mode)
	}

	conn, err := mpc.DialAuth(*connect, *transportToken)
	if err != nil {
		log.Fatal(err)
	}
	tc, err := gateway.DialTenant(conn, *tenantName, *token)
	if err != nil {
		log.Fatal(err)
	}
	defer tc.Close()

	base, stop := signalContext()
	defer stop()
	start := time.Now()
	for i, q := range queries {
		ctx, cancel := queryContext(base, *timeout)
		rows, _, err := tc.Query(ctx, q, *k, secure)
		cancel()
		if err != nil {
			fatalQueryErr(i+1, q, err)
		}
		if len(queries) > 1 {
			fmt.Printf("query %d: %v\n", i+1, q)
		}
		printRows(rows, q)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "%d %s queries as tenant %q in %v (%.2f QPS)\n",
		len(queries), *mode, *tenantName, elapsed.Round(1e6),
		float64(len(queries))/elapsed.Seconds())
}
