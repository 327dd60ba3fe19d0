// Package gateway is sknnd's multi-tenant serving tier: one front end
// multiplexing many tenants — each with its own table, key, backend
// (a coordinator over one local worker or over dialed, possibly
// replicated shard workers), and quotas —
// behind a single listener. The gateway authenticates each connection
// to a tenant (pre-shared token, challenge-response), admission-
// controls queries (rate buckets shed immediately, inflight caps queue
// up to a bound), relays the masked-result shares back to Bob's edge,
// and exports per-tenant metrics in Prometheus text format.
//
// Trust model: the gateway is C1-side infrastructure. It sees exactly
// what C1 already sees — encrypted queries, masked shares — and holds
// no key material, so adding it to a deployment changes nothing about
// the two-cloud security argument (see docs/PROTOCOLS.md). Tenant
// tokens authenticate *who may spend a tenant's quota*, they are not
// protocol keys.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"

	"sknn/internal/core"
	"sknn/internal/mpc"
)

// Gateway serves tenant connections. Construct with NewGateway, add
// tenants with AddTenant, feed accepted connections to HandleConn, and
// drain with Close.
type Gateway struct {
	metrics *Metrics

	mu      sync.Mutex
	tenants map[string]*tenant    // guarded by mu
	conns   map[mpc.Conn]struct{} // guarded by mu; open client connections
	closed  bool                  // guarded by mu; draining, refuse new work

	inflight sync.WaitGroup // queries being executed or replied to
}

// NewGateway returns an empty gateway with a fresh metrics registry.
func NewGateway() *Gateway {
	return &Gateway{
		metrics: NewMetrics(),
		tenants: make(map[string]*tenant),
		conns:   make(map[mpc.Conn]struct{}),
	}
}

// Metrics returns the gateway's registry (mount it on an http.Server
// at /metrics).
func (g *Gateway) Metrics() *Metrics { return g.metrics }

// AddTenant registers a tenant and takes ownership of its backend
// (Close closes it). Adding a duplicate name or adding after Close is
// an error.
func (g *Gateway) AddTenant(cfg TenantConfig, be Backend) error {
	t, err := newTenant(cfg, be)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return fmt.Errorf("gateway: closed")
	}
	if _, dup := g.tenants[cfg.Name]; dup {
		return fmt.Errorf("gateway: duplicate tenant %q", cfg.Name)
	}
	g.tenants[cfg.Name] = t
	g.metrics.Register(cfg.Name)
	return nil
}

// Tenants reports the registered tenant names (any order).
func (g *Gateway) Tenants() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	names := make([]string, 0, len(g.tenants))
	for n := range g.tenants {
		names = append(names, n)
	}
	return names
}

// Close drains the gateway: new connections and new queries are
// refused immediately, queries already admitted run to completion and
// deliver their replies, then every client connection and every tenant
// backend is closed. Safe to call once; concurrent HandleConn loops
// unwind as their connections die.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()

	g.inflight.Wait()

	g.mu.Lock()
	conns := make([]mpc.Conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	tenants := make([]*tenant, 0, len(g.tenants))
	for _, t := range g.tenants {
		tenants = append(tenants, t)
	}
	g.mu.Unlock()

	var err error
	for _, c := range conns {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	for _, t := range tenants {
		if cerr := t.be.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// HandleConn serves one client connection to completion: tenant
// handshake, then a serial query loop until the peer closes, sends
// OpClose, or fails authentication. It blocks; run it in the accept
// loop's per-connection goroutine. The connection is always closed on
// return.
func (g *Gateway) HandleConn(conn mpc.Conn) error {
	defer conn.Close()

	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return fmt.Errorf("gateway: closed")
	}
	g.conns[conn] = struct{}{}
	g.mu.Unlock()
	g.metrics.connOpened()
	defer func() {
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
		g.metrics.connClosed()
	}()

	t, err := g.authenticate(conn)
	if err != nil {
		return err
	}
	return g.serveQueries(conn, t)
}

// authenticate runs mpc's token handshake with the tenant's name bound
// into the MAC and returns the authenticated tenant; its accept frame
// is the welcome. Every failed handshake counts one auth failure.
func (g *Gateway) authenticate(conn mpc.Conn) (*tenant, error) {
	var t *tenant
	err := mpc.AuthServerNamed(conn, func(name string) (string, []*big.Int) {
		g.mu.Lock()
		t = g.tenants[name]
		g.mu.Unlock()
		if t == nil {
			return "", nil
		}
		return t.cfg.Token, encodeGateWelcome(t.be.PK().N, t.be.N(), t.be.Shape())
	})
	if err != nil {
		g.metrics.authFailure()
		return nil, fmt.Errorf("%w: %w", ErrGateAuth, err)
	}
	return t, nil
}

// serveQueries is the post-auth serve loop: one query at a time per
// connection (clients open more connections for more concurrency,
// which is also what the per-connection transport limits meter).
func (g *Gateway) serveQueries(conn mpc.Conn, t *tenant) error {
	for {
		req, err := conn.Recv()
		if err != nil {
			if errors.Is(err, mpc.ErrConnClosed) {
				return nil
			}
			return fmt.Errorf("gateway: serve recv: %w", err)
		}
		if req.Op == mpc.OpClose {
			return nil
		}
		// An admitted query stays in the inflight group until its reply is
		// on the wire: Close waits for the group and then hangs up on every
		// connection, so leaving earlier lets it cut off an answered query.
		admitted := req.Op == OpGateQuery && g.admit()
		var resp *mpc.Message
		switch {
		case admitted:
			resp = g.runQuery(t, req)
		case req.Op == OpGateQuery:
			resp = &mpc.Message{Op: mpc.OpError, Err: "gateway: draining, query refused"}
		default:
			resp = &mpc.Message{Op: mpc.OpError, Err: fmt.Sprintf("unknown gateway op %d", req.Op)}
		}
		resp.Tag = req.Tag
		err = conn.Send(resp)
		if admitted {
			g.inflight.Done()
		}
		if err != nil {
			if errors.Is(err, mpc.ErrConnClosed) {
				return nil
			}
			return fmt.Errorf("gateway: serve send: %w", err)
		}
	}
}

// admit joins the inflight group unless the gateway is draining. Drain
// gate and inflight accounting are one atomic step: Close waits for the
// group, so a query must never join it after closed flips.
func (g *Gateway) admit() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.inflight.Add(1)
	return true
}

// runQuery meters and executes one query frame the drain gate has
// admitted, returning the reply frame (OpError on shed, refusal, or
// protocol failure — the serve loop keeps the connection alive either
// way).
func (g *Gateway) runQuery(t *tenant, req *mpc.Message) *mpc.Message {
	oops := func(err error) *mpc.Message {
		return &mpc.Message{Op: mpc.OpError, Err: err.Error()}
	}
	name := t.cfg.Name
	if !t.admitRate(time.Now()) {
		g.metrics.shed(name, "rate")
		return oops(fmt.Errorf("%w: tenant %s over rate", ErrShed, name))
	}
	if err := t.acquireSlot(g.metrics); err != nil {
		g.metrics.shed(name, "queue")
		return oops(err)
	}
	defer t.releaseSlot()

	k, secure, q, err := decodeGateQuery(t.be.PK(), t.be.Shape().FeatureM, req)
	if err != nil {
		g.metrics.queryStarted(name)
		g.metrics.queryDone(name, 0, 0, err)
		return oops(err)
	}

	g.metrics.queryStarted(name)
	start := time.Now()
	var res *core.MaskedResult
	failovers := 0
	if secure {
		// Target 0: a tenant's query always scans fully, so a clustered
		// table never shows which clusters a gateway query touched.
		r, sm, qerr := t.be.SecureQuery(context.Background(), q, k, 0, 0)
		err = qerr
		res = r
		if sm != nil {
			failovers = sm.Failovers
		}
	} else {
		res, err = t.be.BasicQuery(context.Background(), q, k)
	}
	g.metrics.queryDone(name, time.Since(start), failovers, err)
	if err != nil {
		return oops(fmt.Errorf("gateway: query: %w", err))
	}
	return encodeGateResult(res)
}
