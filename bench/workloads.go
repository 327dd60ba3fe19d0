package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sknn"
	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/gateway"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/store"
)

// shape is the fixed size of one workload. The sizes are what lets at
// least 100 timed queries fit the measuring window on the 2-core
// reference host; they are recorded in every report header.
type shape struct {
	N        int    `json:"n"`
	M        int    `json:"m"`
	AttrBits int    `json:"attr_bits"`
	K        int    `json:"k"`
	Mode     string `json:"mode"`  // "secure" (SkNNm) or "basic" (SkNNb)
	Index    string `json:"index"` // "none" or "clustered"
	Clusters int    `json:"clusters,omitempty"`
	Workers  int    `json:"workers"` // C1↔C2 links per pool
	Shards   int    `json:"shards,omitempty"`
	Clients  int    `json:"clients"` // closed-loop clients
}

func (s shape) domainBits() int { return dataset.DomainBits(s.AttrBits, s.M) }
func (s shape) secure() bool    { return s.Mode == "secure" }

// workloadDef names a workload, says why it exists, and knows how to
// generate its inputs from a seed and stand the system up.
type workloadDef struct {
	name  string
	why   string
	shape shape
	// exact workloads must return the plaintext oracle's distance
	// multiset on every query; on the others recall is a metric.
	exact bool
	// mutating workloads interleave Insert and Delete with the queries.
	mutating bool
	gen      func(seed int64, sh shape) (*inputs, error)
	setup    func(e env, sh shape, in *inputs) (*instance, error)
}

// workloads is the benchmark: four closed-loop workloads, each stressing
// layers the others bypass. The reasons are repeated in BENCHMARK.json
// and the README.
var workloads = []workloadDef{
	{
		name:  "secure_scan",
		why:   "SkNNm full scan through the facade over in-process links: pure paillier and smc cost, no codec, no topology",
		shape: shape{N: 8, M: 6, AttrBits: 4, K: 2, Mode: "secure", Index: "none", Workers: 1, Clients: 1},
		exact: true, gen: genUniform, setup: setupFacade,
	},
	{
		name:  "basic_tcp",
		why:   "SkNNb over loopback TCP with 2 links: few large gob frames and C2 decrypt-and-rank, bypasses SMIN and SBD entirely",
		shape: shape{N: 32, M: 6, AttrBits: 8, K: 5, Mode: "basic", Index: "none", Workers: 2, Clients: 1},
		exact: true, gen: genUniform, setup: setupBasicTCP,
	},
	{
		name:  "gateway_sharded",
		why:   "2 tenant clients through the gateway to a 2-shard streaming coordinator, every link TCP: scatter, merge, admission, many small frames",
		shape: shape{N: 8, M: 6, AttrBits: 4, K: 2, Mode: "secure", Index: "none", Workers: 1, Shards: 2, Clients: 2},
		exact: true, gen: genUniform, setup: setupGateway,
	},
	{
		name:     "live_mixed",
		why:      "clustered index through the facade with Insert and Delete between queries: centroid ranking, secure routing, tombstones, compaction",
		shape:    shape{N: 32, M: 2, AttrBits: 6, K: 2, Mode: "secure", Index: "clustered", Clusters: 4, Workers: 1, Clients: 1},
		mutating: true, gen: genBlobs, setup: setupFacade,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// inputs is everything the program under test is fed: it never sees the
// seed, only these rows and query points.
type inputs struct {
	rows    [][]uint64
	queries [][]uint64
	inserts [][]uint64 // mutating workloads: the insert stream, in order
}

// queryPool is how many distinct query points a run cycles through.
const queryPool = 256

func genQueries(seed int64, sh shape) ([][]uint64, error) {
	qs := make([][]uint64, queryPool)
	for i := range qs {
		q, err := dataset.GenerateQuery(seed*1_000_003+int64(i), sh.M, sh.AttrBits)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return qs, nil
}

// genUniform is the paper's recipe: uniform rows, uniform query points.
func genUniform(seed int64, sh shape) (*inputs, error) {
	tbl, err := dataset.Generate(seed, sh.N, sh.M, sh.AttrBits)
	if err != nil {
		return nil, err
	}
	qs, err := genQueries(seed, sh)
	if err != nil {
		return nil, err
	}
	return &inputs{rows: tbl.Rows, queries: qs}, nil
}

// insertsPerBlob is the length of each blob's insert stream; the cycle
// wraps round when a long run uses it up.
const insertsPerBlob = 64

// genBlobs lays sh.Clusters equal blobs on a grid, one per cell. Each
// blob is dataset.GenerateClustered's single-centre output in a small
// domain, shifted into its cell, so blobs never touch and k-means finds
// exactly them whatever the seed. That keeps the number of candidates a
// pruned query scans — and with it the cost of a query — the same from
// seed to seed; what the seed moves is where the points sit inside the
// blobs, the query points, and the inserted rows. Insert j lands in blob
// j mod Clusters, so the blobs also grow evenly.
func genBlobs(seed int64, sh shape) (*inputs, error) {
	blobs := sh.Clusters
	if blobs < 1 || sh.N%blobs != 0 || sh.M < 2 {
		return nil, fmt.Errorf("blob shape needs m ≥ 2 and n divisible by clusters, got %+v", sh)
	}
	per := sh.N / blobs
	cols := int(math.Ceil(math.Sqrt(float64(blobs))))
	rws := (blobs + cols - 1) / cols
	side := 1 << sh.AttrBits
	cw, ch := side/cols, side/rws
	cell := cw
	if ch < cell {
		cell = ch
	}
	blobBits := 1
	for 1<<(blobBits+1) <= cell/2 {
		blobBits++
	}
	if 1<<blobBits > cell {
		return nil, fmt.Errorf("domain of %d bits too small for %d blobs", sh.AttrBits, blobs)
	}
	width := 1 << blobBits

	in := &inputs{}
	streams := make([][][]uint64, blobs)
	for b := 0; b < blobs; b++ {
		tbl, err := dataset.GenerateClustered(seed*131+int64(b), per+insertsPerBlob, sh.M, blobBits, 1)
		if err != nil {
			return nil, err
		}
		offset := make([]uint64, sh.M)
		offset[0] = uint64((b%cols)*cw + (cw-width)/2)
		offset[1] = uint64((b/cols)*ch + (ch-width)/2)
		for j := 2; j < sh.M; j++ {
			offset[j] = uint64((side - width) / 2)
		}
		for _, row := range tbl.Rows {
			for j := range row {
				row[j] += offset[j]
			}
		}
		in.rows = append(in.rows, tbl.Rows[:per]...)
		streams[b] = tbl.Rows[per:]
	}
	for j := 0; j < blobs*insertsPerBlob; j++ {
		in.inserts = append(in.inserts, streams[j%blobs][j/blobs])
	}
	qs, err := genQueries(seed, sh)
	if err != nil {
		return nil, err
	}
	in.queries = qs
	return in, nil
}

// env is what a set-up needs besides the inputs.
type env struct {
	keyPath string
	kit     *traceKit // nil on the untraced pass
}

// qmetrics is the engine's own account of one query, whichever protocol
// answered it.
type qmetrics struct {
	basic  *core.BasicMetrics
	secure *core.SecureMetrics
}

func (m qmetrics) comm() mpc.StatsSnapshot {
	switch {
	case m.secure != nil:
		return m.secure.Comm
	case m.basic != nil:
		return m.basic.Comm
	}
	return mpc.StatsSnapshot{}
}

func (m qmetrics) total() time.Duration {
	switch {
	case m.secure != nil:
		return m.secure.Total
	case m.basic != nil:
		return m.basic.Total
	}
	return 0
}

type phase struct {
	name string
	d    time.Duration
}

// recordPhases lists the engine's per-record phase timings in protocol
// order. On a sharded query they are sums over shards that ran side by
// side, so they overlap in time.
func (m qmetrics) recordPhases() []phase {
	if s := m.secure; s != nil {
		return []phase{
			{"centroid", s.Centroid}, {"distance", s.Distance}, {"bitdecom", s.BitDecom},
			{"sminn", s.SMINn}, {"select", s.Select}, {"extract", s.Extract},
			{"exclude", s.Exclude}, {"reveal", s.Reveal},
		}
	}
	if b := m.basic; b != nil {
		return []phase{{"distance", b.Distance}, {"rank", b.Rank}, {"reveal", b.Reveal}}
	}
	return nil
}

// phases lists the timings that partition the query's wall clock: the
// per-record phases, or Scatter and Merge on a sharded query.
func (m qmetrics) phases() []phase {
	if s := m.secure; s != nil && s.Shards > 0 {
		return []phase{{"scatter", s.Scatter}, {"merge", s.Merge}}
	}
	return m.recordPhases()
}

// instance is one stood-up system ready to answer queries.
type instance struct {
	sh shape
	sk *paillier.PrivateKey
	// query answers q for one closed-loop client. qno and root identify
	// the client query in the trace (0 on warm-up and untraced passes).
	query func(client, qno, root int, q []uint64) ([][]uint64, qmetrics, error)
	// sys is the facade system on the workloads that go through it; the
	// mutation cycle, DecryptTable and SaveTable need it.
	sys *sknn.System
	// newMs is how long sknn.New took; dialMs what each gateway client
	// spent dialling and authenticating.
	newMs  float64
	dialMs []float64
	// gatewayStats reads the gateway's admission counters (nil without
	// a gateway): queries shed, and the deepest queue seen after a query.
	gatewayStats func() (shed, queueDepthMax int)
	// what finalTableChecks measured on a mutating workload
	saveMs, loadMs, compactMs    float64
	savedBytes, savedCiphertexts int
	kit                          *traceKit
	close                        func()
}

func loadKey(path string) (*paillier.PrivateKey, error) {
	sk, err := store.ReadKeyFile(path)
	if err != nil {
		return nil, fmt.Errorf("loading benchmark key: %w", err)
	}
	return sk, nil
}

func (sh shape) facadeConfig(sk *paillier.PrivateKey) sknn.Config {
	cfg := sknn.Config{Key: sk, Workers: sh.Workers, Shards: sh.Shards}
	if sh.Index == "clustered" {
		cfg.Index = sknn.IndexClustered
		cfg.Clusters = sh.Clusters
	}
	return cfg
}

// setupFacade is sknn.New over in-process links: the path a library
// user takes. The facade owns both clouds, so nothing between C1 and C2
// can be tapped from outside; the traced pass lays the engine's own
// phase timings under each query instead.
func setupFacade(e env, sh shape, in *inputs) (*instance, error) {
	sk, err := loadKey(e.keyPath)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sys, err := sknn.New(in.rows, sh.AttrBits, sh.facadeConfig(sk))
	if err != nil {
		return nil, err
	}
	mode := sknn.ModeBasic
	if sh.secure() {
		mode = sknn.ModeSecure
	}
	inst := &instance{sh: sh, sk: sk, sys: sys, kit: e.kit, newMs: ms(time.Since(start))}
	inst.query = func(_, _, _ int, q []uint64) ([][]uint64, qmetrics, error) {
		res, err := sys.Query(context.Background(), q, sknn.WithK(sh.K), sknn.WithMode(mode))
		if err != nil {
			return nil, qmetrics{}, err
		}
		return res.Rows, qmetrics{basic: res.Metrics.Basic, secure: res.Metrics.Secure}, nil
	}
	inst.close = func() { sys.Close() }
	return inst, nil
}

// tcpServer is a loopback listener and the goroutines serving what it
// accepted.
type tcpServer struct {
	ln net.Listener
	wg sync.WaitGroup
}

func serveTCP(handle func(net.Conn)) (*tcpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &tcpServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer c.Close()
				handle(c)
			}()
		}
	}()
	return s, nil
}

func (s *tcpServer) addr() string { return s.ln.Addr().String() }

// close stops accepting and waits for every handler; callers close the
// peers first so the handlers see their connections end.
func (s *tcpServer) close() {
	s.ln.Close()
	s.wg.Wait()
}

// c2Inflight is sknnd c2's default -inflight.
const c2Inflight = 4

// startC2 is `sknnd c2`: the key cloud behind a TCP listener, each
// accepted connection served concurrently. Traced, every request is
// timed by a handler wrapped round the same Mux.
func startC2(sk *paillier.PrivateKey, kit *traceKit) (*tcpServer, error) {
	c2 := core.NewCloudC2(sk, nil)
	return serveTCP(func(c net.Conn) {
		var h mpc.Handler = c2.Mux()
		if kit != nil {
			h = kit.timedHandler(h, c.RemoteAddr().String())
		}
		// A serve error is a torn link; the requester sees it as a failed
		// round trip and the run counts the query as failed.
		_ = mpc.ServeConcurrent(mpc.WrapNet(c), h, c2Inflight)
	})
}

// dialLinks opens n C1-side links to C2, as mpc.Dial does; traced, each
// socket is byte-counted and each link tapped into sc.
func dialLinks(addr string, n int, kit *traceKit, sc *scope) ([]mpc.Conn, error) {
	conns := make([]mpc.Conn, 0, n)
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			for _, open := range conns {
				open.Close()
			}
			return nil, err
		}
		if kit == nil {
			conns = append(conns, mpc.WrapNet(c))
			continue
		}
		conns = append(conns, kit.tap(mpc.WrapNet(kit.count(c)), sc, c.LocalAddr().String()))
	}
	return conns, nil
}

// kitScope is a fresh scope on a traced pass, nil otherwise.
func kitScope(kit *traceKit) *scope {
	if kit == nil {
		return nil
	}
	return newScope()
}

// setupBasicTCP composes the deployed two-cloud shape from internal/core
// the way examples/cloudwire and `sknnd c1` / `sknnd c2` do: C2 behind a
// loopback listener, C1 with dialled links, and the benchmark as Bob.
// Like sknnd it builds no fixed-base tables.
func setupBasicTCP(e env, sh shape, in *inputs) (*instance, error) {
	sk, err := loadKey(e.keyPath)
	if err != nil {
		return nil, err
	}
	c2, err := startC2(sk, e.kit)
	if err != nil {
		return nil, err
	}
	table, err := core.EncryptTable(rand.Reader, &sk.PublicKey, in.rows)
	if err != nil {
		c2.close()
		return nil, err
	}
	sc := kitScope(e.kit)
	conns, err := dialLinks(c2.addr(), sh.Workers, e.kit, sc)
	if err != nil {
		c2.close()
		return nil, err
	}
	c1, err := core.NewCloudC1(table, conns, nil)
	if err != nil {
		for _, c := range conns {
			c.Close()
		}
		c2.close()
		return nil, err
	}
	bob := core.NewClient(&sk.PublicKey, nil)
	tr := tracerOf(e.kit)
	inst := &instance{sh: sh, sk: sk, kit: e.kit}
	inst.query = func(_, qno, root int, q []uint64) ([][]uint64, qmetrics, error) {
		sp := tr.begin(root, qno, "bob", "bob.encrypt")
		eq, err := bob.EncryptQuery(q)
		tr.end(sp, len(q))
		if err != nil {
			return nil, qmetrics{}, err
		}
		o := owner{tr.begin(root, qno, "core", "c1.query"), qno}
		sc.enter(o)
		res, bm, err := c1.BasicQueryMetered(context.Background(), eq, sh.K)
		sc.leave(o)
		tr.end(o.span, sh.K)
		if err != nil {
			return nil, qmetrics{}, err
		}
		sp = tr.begin(root, qno, "bob", "bob.unmask")
		rows, err := bob.Unmask(res)
		tr.end(sp, sh.K)
		return rows, qmetrics{basic: bm}, err
	}
	inst.close = func() {
		c1.Close()
		c2.close()
	}
	return inst, nil
}

// clientTap notes when a tenant client's query frame left and when its
// reply arrived, which is all of TenantClient.Query that is not Bob's
// own encrypt and unmask.
type clientTap struct {
	tr         *tracer
	sent, recv atomic.Int64
}

func (c *clientTap) observe(dir mpc.Direction, _ *mpc.Message) {
	if dir == mpc.DirSend {
		c.sent.Store(c.tr.now())
	} else {
		c.recv.Store(c.tr.now())
	}
}

func tenantName(client int) string  { return fmt.Sprintf("tenant%d", client) }
func tenantToken(client int) string { return fmt.Sprintf("bench-token-%d", client) }

// setupGateway composes the full serving tier, every inter-party link a
// loopback socket: tenant clients → gateway → streaming coordinator over
// LocalShards, each shard and the merge with their own link pool to one
// shared C2. Each client is its own tenant, both served by the one
// coordinator, so a tenant's backend call is always its client's query.
func setupGateway(e env, sh shape, in *inputs) (*instance, error) {
	sk, err := loadKey(e.keyPath)
	if err != nil {
		return nil, err
	}
	pk := &sk.PublicKey
	tr := tracerOf(e.kit)
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	fail := func(err error) (*instance, error) {
		closeAll()
		return nil, err
	}

	c2, err := startC2(sk, e.kit)
	if err != nil {
		return nil, err
	}
	closers = append(closers, c2.close)

	table, err := core.EncryptTable(rand.Reader, pk, in.rows)
	if err != nil {
		return fail(err)
	}
	parts, err := table.Snapshot().Split(sh.Shards)
	if err != nil {
		return fail(err)
	}
	shards := make([]core.Shard, sh.Shards)
	for i, part := range parts {
		shardTable, err := core.RestoreTable(pk, part)
		if err != nil {
			return fail(err)
		}
		sc := kitScope(e.kit)
		conns, err := dialLinks(c2.addr(), sh.Workers, e.kit, sc)
		if err != nil {
			return fail(err)
		}
		c1, err := core.NewCloudC1(shardTable, conns, nil)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return fail(err)
		}
		closers = append(closers, func() { c1.Close() })
		shards[i] = &core.LocalShard{C1: c1, Index: i, Count: sh.Shards}
		if e.kit != nil {
			shards[i] = &shardSpy{Shard: shards[i], tr: tr, sc: sc, index: i}
		}
	}
	mergeScope := kitScope(e.kit)
	mergeConns, err := dialLinks(c2.addr(), sh.Workers, e.kit, mergeScope)
	if err != nil {
		return fail(err)
	}
	coord, err := core.NewShardedC1(shards, mergeConns, pk, nil) // owns mergeConns even on failure
	if err != nil {
		return fail(err)
	}
	closers = append(closers, func() { coord.Close() })

	gw := gateway.NewGateway()
	backends := make([]*tenantBackend, sh.Clients)
	for c := range backends {
		backends[c] = &tenantBackend{Backend: gateway.NewCoordinatorBackend(coord), tr: tr, merge: mergeScope}
		cfg := gateway.TenantConfig{
			Name: tenantName(c), Token: tenantToken(c),
			DomainBits: sh.domainBits(), MaxInflight: 2, MaxQueue: 2,
		}
		if err := gw.AddTenant(cfg, backends[c]); err != nil {
			return fail(err)
		}
	}
	front, err := serveTCP(func(c net.Conn) {
		// HandleConn returns when the client hangs up or the gateway
		// drains; a protocol error there fails that client's query.
		_ = gw.HandleConn(mpc.WrapNet(c))
	})
	if err != nil {
		return fail(err)
	}
	closers = append(closers, front.close, func() { gw.Close() })

	inst := &instance{sh: sh, sk: sk, kit: e.kit}
	clients := make([]*gateway.TenantClient, sh.Clients)
	taps := make([]*clientTap, sh.Clients)
	for c := range clients {
		start := time.Now()
		conn, err := mpc.Dial(front.addr())
		if err != nil {
			return fail(err)
		}
		if e.kit != nil {
			taps[c] = &clientTap{tr: tr}
			conn = mpc.Tap(conn, taps[c].observe)
		}
		tc, err := gateway.DialTenant(conn, tenantName(c), tenantToken(c))
		if err != nil {
			return fail(err)
		}
		inst.dialMs = append(inst.dialMs, ms(time.Since(start)))
		clients[c] = tc
		closers = append(closers, func() { tc.Close() })
	}

	var depthMax atomic.Int64
	inst.gatewayStats = func() (int, int) {
		shed := 0
		for c := range clients {
			snap := gw.Metrics().TenantSnapshot(tenantName(c))
			shed += snap.ShedRate + snap.ShedQueue
		}
		return shed, int(depthMax.Load())
	}
	inst.query = func(client, qno, root int, q []uint64) ([][]uint64, qmetrics, error) {
		be := backends[client]
		var rtt int
		if tr != nil {
			rtt = tr.begin(root, qno, "gateway", "gateway.rtt")
			be.cur.Store(&owner{rtt, qno})
		}
		begin := tr.now()
		rows, _, err := clients[client].Query(context.Background(), q, sh.K, true)
		if err != nil {
			return nil, qmetrics{}, err
		}
		if d := int64(gw.Metrics().TenantSnapshot(tenantName(client)).QueueDepth); d > depthMax.Load() {
			depthMax.Store(d) // a stale maximum only ever loses to a larger one
		}
		if tr != nil {
			sent, recv := taps[client].sent.Load(), taps[client].recv.Load()
			tr.setTimes(rtt, sent, recv)
			tr.add(root, qno, "bob", "bob.encrypt", begin, sent, len(q))
			tr.add(root, qno, "bob", "bob.unmask", recv, tr.now(), sh.K)
		}
		return rows, qmetrics{secure: be.last.Load()}, nil
	}
	inst.close = closeAll
	return inst, nil
}
