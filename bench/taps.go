package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"sknn/internal/core"
	"sknn/internal/gateway"
	"sknn/internal/mpc"
)

// This file holds the measuring points the traced pass puts round the
// layers' public interfaces. None of them is installed on the untraced
// pass, except tenantBackend, which is also the only place a gateway
// query's SecureMetrics can be read.

// linkTap observes one C1-side link through mpc.Tap: a round-trip span
// opens when a request leaves and closes when the reply with the same
// session tag arrives.
type linkTap struct {
	tr   *tracer
	sc   *scope
	link string

	frames atomic.Int64

	mu   sync.Mutex
	open map[uint64]int // guarded by mu; tag → open span
	reqs map[uint64]int // guarded by mu; tag → ciphertexts in the request
	refs []rttRef       // guarded by mu
}

func (k *traceKit) tap(conn mpc.Conn, sc *scope, link string) mpc.Conn {
	t := &linkTap{tr: k.tr, sc: sc, link: link, open: make(map[uint64]int), reqs: make(map[uint64]int)}
	k.mu.Lock()
	k.taps = append(k.taps, t)
	k.mu.Unlock()
	return mpc.Tap(conn, t.observe)
}

func (t *linkTap) observe(dir mpc.Direction, m *mpc.Message) {
	t.frames.Add(1)
	if dir == mpc.DirSend {
		o := t.sc.ownerFor(t.link, m.Tag)
		id := t.tr.begin(o.span, o.query, "mpc", fmt.Sprintf("rtt:%d", m.Op))
		t.mu.Lock()
		t.open[m.Tag] = id
		t.reqs[m.Tag] = len(m.Ints)
		t.refs = append(t.refs, rttRef{Span: id, Link: t.link, Tag: m.Tag, Op: m.Op, Start: t.tr.now()})
		t.mu.Unlock()
		return
	}
	t.mu.Lock()
	id, n := t.open[m.Tag], t.reqs[m.Tag]
	delete(t.open, m.Tag)
	t.mu.Unlock()
	t.tr.end(id, n+len(m.Ints))
}

// timedHandler wraps C2's dispatcher for one accepted connection and
// logs when each request was in C2's hands.
func (k *traceKit) timedHandler(inner mpc.Handler, link string) mpc.Handler {
	return mpc.HandlerFunc(func(req *mpc.Message) (*mpc.Message, error) {
		start := k.tr.now()
		resp, err := inner.Handle(req)
		ev := handleEvent{Link: link, Tag: req.Tag, Op: req.Op, Start: start, End: k.tr.now()}
		k.mu.Lock()
		k.handles = append(k.handles, ev)
		k.mu.Unlock()
		return resp, err
	})
}

// countingConn counts the bytes a socket actually carried, under
// mpc.WrapNet, so the codec's framing overhead can be read against the
// protocol-level estimate in mpc.Stats.
type countingConn struct {
	net.Conn
	read, written atomic.Int64
}

func (k *traceKit) count(c net.Conn) net.Conn {
	cc := &countingConn{Conn: c}
	k.mu.Lock()
	k.conns = append(k.conns, cc)
	k.mu.Unlock()
	return cc
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

type ownerKey struct{}

// shardSpy times one shard's TopK. The coordinator sees a spied shard
// as remote — it no longer borrows the shard's idle links for the merge
// nor caps concurrent local scans — which is part of what
// proc.trace_overhead_frac reports on gateway_sharded.
type shardSpy struct {
	core.Shard
	tr    *tracer
	sc    *scope
	index int
}

func (s *shardSpy) TopK(ctx context.Context, q core.EncryptedQuery, k, domainBits, target int, secure bool) ([]core.Candidate, *core.SecureMetrics, error) {
	parent, _ := ctx.Value(ownerKey{}).(owner)
	o := owner{s.tr.begin(parent.span, parent.query, "core", fmt.Sprintf("shard.topk[%d]", s.index)), parent.query}
	s.sc.enter(o)
	cands, sm, err := s.Shard.TopK(ctx, q, k, domainBits, target, secure)
	s.sc.leave(o)
	s.tr.end(o.span, len(cands))
	return cands, sm, err
}

// tenantBackend stands between the gateway and one tenant's production
// backend adapter. It keeps the SecureMetrics of the tenant's last
// query — the gateway drops them before replying — and, traced, opens
// the gateway.backend span. A tenant has one closed-loop client, so
// "the query in flight" is unambiguous.
type tenantBackend struct {
	gateway.Backend
	tr    *tracer
	merge *scope

	cur  atomic.Pointer[owner] // the client query in flight: its gateway.rtt span and number
	last atomic.Pointer[core.SecureMetrics]
}

func (b *tenantBackend) SecureQuery(ctx context.Context, q core.EncryptedQuery, k, domainBits, target int) (*core.MaskedResult, *core.SecureMetrics, error) {
	if b.tr != nil {
		cur := b.cur.Load()
		o := owner{b.tr.begin(cur.span, cur.query, "gateway", "gateway.backend"), cur.query}
		ctx = context.WithValue(ctx, ownerKey{}, o)
		b.merge.enter(o)
		defer func() {
			b.merge.leave(o)
			b.tr.end(o.span, k)
		}()
	}
	res, sm, err := b.Backend.SecureQuery(ctx, q, k, domainBits, target)
	b.last.Store(sm)
	return res, sm, err
}

// Close is a no-op: both tenants share one coordinator, which the
// workload closes once itself.
func (b *tenantBackend) Close() error { return nil }
