package core

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/plainknn"
)

// newWrappedSharded builds a local sharded system like newShardedSystem
// but passes every shard worker through wrap before wiring the
// coordinator, so tests can inject delays, failures, and completion
// signals into the streaming gather.
func newWrappedSharded(t *testing.T, tbl *dataset.Table, shards, workers int, wrap func(int, Shard) Shard) (*ShardedC1, *Client) {
	t.Helper()
	sk := testKey()
	encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := encTable.Snapshot().Split(shards)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCloudC2(sk, nil)
	var wg sync.WaitGroup
	newConns := func(n int) []mpc.Conn {
		conns := make([]mpc.Conn, n)
		for i := range conns {
			c1Side, c2Side := mpc.ChanPipe()
			conns[i] = c1Side
			wg.Add(1)
			go func(conn mpc.Conn) {
				defer wg.Done()
				if err := c2.Serve(conn); err != nil {
					t.Errorf("C2 serve loop: %v", err)
				}
			}(c2Side)
		}
		return conns
	}
	c1s := make([]*CloudC1, shards)
	workersList := make([]Shard, shards)
	for i, part := range parts {
		shardTable, err := RestoreTable(&sk.PublicKey, part)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		c1s[i], err = NewCloudC1(shardTable, newConns(workers), nil)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		workersList[i] = wrap(i, &LocalShard{C1: c1s[i], Index: i, Count: shards})
	}
	coord, err := NewShardedC1(workersList, newConns(workers), &sk.PublicKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := coord.Close(); err != nil {
			t.Errorf("closing coordinator: %v", err)
		}
		for _, c1 := range c1s {
			if err := c1.Close(); err != nil {
				t.Errorf("closing shard: %v", err)
			}
		}
		wg.Wait()
	})
	return coord, NewClient(&sk.PublicKey, nil)
}

// gateShard wraps a Shard with test hooks: an injected failure, a block
// that holds the scan until the query context dies, and a completion
// signal for sequencing mid-stream events.
type gateShard struct {
	Shard
	fail     error // returned instead of scanning
	blockCtx bool  // park until ctx is done, then report its error
	doneOnce sync.Once
	done     chan struct{} // closed when a scan completes (if non-nil)
}

func (g *gateShard) TopK(ctx context.Context, q EncryptedQuery, k, domainBits, target int, secure bool) ([]Candidate, *SecureMetrics, error) {
	if g.fail != nil {
		return nil, nil, g.fail
	}
	if g.blockCtx {
		<-ctx.Done()
		return nil, nil, ctxErr(ctx)
	}
	cands, sm, err := g.Shard.TopK(ctx, q, k, domainBits, target, secure)
	if g.done != nil && err == nil {
		g.doneOnce.Do(func() { close(g.done) })
	}
	return cands, sm, err
}

// Local: a parked gate burns none of this process's CPU, so launch must
// not count it against the local-scan slots — at GOMAXPROCS=1 there is
// one, and a gate that took it first would starve the shard the test is
// waiting on (which goroutine starts first is the scheduler's choice).
func (g *gateShard) Local() (*CloudC1, bool) {
	if g.blockCtx {
		return nil, false
	}
	return g.Shard.Local()
}

// sortedDistances maps unmasked result rows to their sorted squared
// distances from q — the multiset two topologies must agree on.
func sortedDistances(t *testing.T, rows [][]uint64, q []uint64) []uint64 {
	t.Helper()
	ds := make([]uint64, len(rows))
	for i, row := range rows {
		var err error
		if ds[i], err = plainknn.SquaredDistance(row[:len(q)], q); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds
}

// TestStreamingVsSerialDifferential is the streaming gather's oracle:
// over both coordinator↔shard topologies (in-process and wire), the
// pipelined 3-shard merge must return the identical top-k distance
// multiset as the serial scan of the whole table by a one-shard
// coordinator — the same engine with nothing to gather — and both must match
// the plaintext oracle. workers=2 gives every local shard pool a lendable
// link, so the in-process run also covers the borrow/attach/reclaim
// cycle.
func TestStreamingVsSerialDifferential(t *testing.T) {
	const attrBits, m, n, k = 4, 2, 15, 4
	tbl, err := dataset.Generate(811, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	l := dataset.DomainBits(attrBits, m)
	whole, bob := newSystem(t, tbl, 2)
	for _, remote := range []bool{false, true} {
		coord, _ := newShardedSystem(t, tbl, 3, 2, remote)
		for _, q := range [][]uint64{{7, 3}, {0, 14}} {
			eq, err := bob.EncryptQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			res, sm, err := coord.SecureQuery(context.Background(), eq, k, l, 0)
			if err != nil {
				t.Fatalf("remote=%v streaming: %v", remote, err)
			}
			got, err := bob.Unmask(res)
			if err != nil {
				t.Fatal(err)
			}
			if sm.Shards != 3 || sm.Scatter <= 0 {
				t.Errorf("streaming metrics missing scatter shape: %+v", sm)
			}
			stream := sortedDistances(t, got, q)
			serial := sortedDistances(t, runSecure(t, whole, bob, q, k, l), q)
			for i := range stream {
				if stream[i] != serial[i] {
					t.Fatalf("remote=%v q=%v: streaming distances %v, serial %v", remote, q, stream, serial)
				}
			}
			shardOracleCheck(t, tbl.Rows, got, q, k)
		}
	}
}

// TestStreamingDeadShard: one shard failing outright must surface its
// error — not a knock-on ErrCanceled, not a deadlock — whatever order
// the healthy shards land in.
func TestStreamingDeadShard(t *testing.T) {
	const attrBits, m, n, k = 4, 2, 12, 3
	tbl, err := dataset.Generate(821, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	l := dataset.DomainBits(attrBits, m)
	errDead := errors.New("shard hardware on fire")
	coord, bob := newWrappedSharded(t, tbl, 3, 1, func(i int, s Shard) Shard {
		if i == 1 {
			return &gateShard{Shard: s, fail: errDead}
		}
		return s
	})
	eq, err := bob.EncryptQuery([]uint64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := coord.SecureQuery(context.Background(), eq, k, l, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errDead) {
			t.Fatalf("err = %v, want the dead shard's failure", err)
		}
		if errors.Is(err, ErrCanceled) {
			t.Fatalf("dead shard reported as cancellation: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("streaming query with a dead shard never returned")
	}
}

// TestStreamingMidStreamCancel cancels after the first shard has
// delivered but while the second is still scanning: the query must
// return ErrCanceled promptly instead of waiting on the parked shard,
// and the coordinator must stay usable.
func TestStreamingMidStreamCancel(t *testing.T) {
	const attrBits, m, n, k = 4, 2, 12, 3
	tbl, err := dataset.Generate(823, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	l := dataset.DomainBits(attrBits, m)
	first := make(chan struct{})
	coord, bob := newWrappedSharded(t, tbl, 2, 1, func(i int, s Shard) Shard {
		if i == 0 {
			return &gateShard{Shard: s, done: first}
		}
		return &gateShard{Shard: s, blockCtx: true}
	})
	eq, err := bob.EncryptQuery([]uint64{3, 9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := coord.SecureQuery(ctx, eq, k, l, 0)
		done <- err
	}()
	select {
	case <-first:
	case <-time.After(2 * time.Minute):
		t.Fatal("first shard never delivered")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("mid-stream canceled query never returned")
	}
}

// TestStreamingSingleShardFallsBack pins the S=1 degeneration: with one
// shard there is nothing to overlap or merge, so the gather falls back to
// the shard's own rank-ordered k-set — no fold, no tail merge, only the
// reveal on the coordinator's links — and still answers exactly.
func TestStreamingSingleShardFallsBack(t *testing.T) {
	const attrBits, m, n, k = 4, 2, 9, 3
	tbl, err := dataset.Generate(827, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	l := dataset.DomainBits(attrBits, m)
	coord, bob := newShardedSystem(t, tbl, 1, 1, false)
	q := []uint64{8, 2}
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, sm, err := coord.SecureQuery(context.Background(), eq, k, l, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := k * (n - 1); sm.SMINCount != want {
		t.Errorf("SMINCount = %d, want the shard scan's k·(n−1) = %d and no merge on top", sm.SMINCount, want)
	}
	if rounds := coord.CommStats().Rounds; rounds != 2 {
		t.Errorf("coordinator links carried %d rounds, want 2 (hello and reveal)", rounds)
	}
	rows, err := bob.Unmask(res)
	if err != nil {
		t.Fatal(err)
	}
	shardOracleCheck(t, tbl.Rows, rows, q, k)
}

// heldShard holds its scan back until released (or the query dies).
type heldShard struct {
	Shard
	release <-chan struct{}
}

func (h *heldShard) TopK(ctx context.Context, q EncryptedQuery, k, domainBits, target int, secure bool) ([]Candidate, *SecureMetrics, error) {
	select {
	case <-h.release:
	case <-ctx.Done():
		return nil, nil, ctxErr(ctx)
	}
	return h.Shard.TopK(ctx, q, k, domainBits, target, secure)
}

// TestWrappedShardLendsLinks: a shard wrapped by embedding Shard — a
// timing spy, a fault injector — is to the gather the shard it wraps.
// Shard 1 starts scanning only once the merge session holds a link of
// shard 0's pool, which can only happen if the coordinator saw through
// shard 0's wrapper to its worker; afterwards every loan is back home.
func TestWrappedShardLendsLinks(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the held scan would occupy the only local scan slot")
	}
	const attrBits, m, n, k, workers = 4, 2, 12, 3, 2
	tbl, err := dataset.Generate(831, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	l := dataset.DomainBits(attrBits, m)
	pools := make([]*linkPool, 2)
	release := make(chan struct{})
	coord, bob := newWrappedSharded(t, tbl, 2, workers, func(i int, s Shard) Shard {
		lender, _ := s.Local()
		pools[i] = lender.pool
		if i == 0 {
			return &gateShard{Shard: s}
		}
		return &heldShard{Shard: s, release: release}
	})
	home := func(p *linkPool) int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.availLocked()
	}
	borrowed := make(chan bool, 1)
	go func() {
		defer close(release)
		for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if home(pools[0]) < workers {
				borrowed <- true
				return
			}
		}
		borrowed <- false
	}()

	q := []uint64{4, 13}
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := coord.SecureQuery(context.Background(), eq, k, l, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !<-borrowed {
		t.Error("the merge session never borrowed the wrapped shard's idle link")
	}
	for i, p := range pools {
		if got := home(p); got != workers {
			t.Errorf("shard %d pool has %d of %d links home after the query", i, got, workers)
		}
	}
	rows, err := bob.Unmask(res)
	if err != nil {
		t.Fatal(err)
	}
	shardOracleCheck(t, tbl.Rows, rows, q, k)
}

// TestStreamingConcurrentChurn drives overlapping streaming queries on
// one coordinator — the -race acceptance for the lend/attach/reclaim
// cycle interleaving with normal pool scheduling.
func TestStreamingConcurrentChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("many protocol rounds; skipped in -short")
	}
	const attrBits, m, n, k = 4, 2, 12, 2
	tbl, err := dataset.Generate(829, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	l := dataset.DomainBits(attrBits, m)
	coord, bob := newShardedSystem(t, tbl, 2, 2, false)
	const queries = 4
	errs := make([]error, queries)
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := []uint64{uint64(i * 3 % 16), uint64(15 - i)}
			eq, err := bob.EncryptQuery(q)
			if err != nil {
				errs[i] = err
				return
			}
			res, _, err := coord.SecureQuery(context.Background(), eq, k, l, 0)
			if err != nil {
				errs[i] = err
				return
			}
			rows, err := bob.Unmask(res)
			if err != nil {
				errs[i] = err
				return
			}
			want, err := plainknn.KDistances(tbl.Rows, q, k)
			if err != nil {
				errs[i] = err
				return
			}
			got := sortedDistances(t, rows, q)
			for j := range want {
				if got[j] != want[j] {
					errs[i] = fmt.Errorf("query %v: distances %v, oracle %v", q, got, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent query %d: %v", i, err)
		}
	}
}

// TestLinkPoolLendReclaim pins the loan accounting: lent links leave
// the scheduler's sight entirely (width planning, least-loaded
// placement) and come back on reclaim, the pool never lends its last
// free link, and busy links are not lendable.
func TestLinkPoolLendReclaim(t *testing.T) {
	conns := make([]mpc.Conn, 3)
	for i := range conns {
		conns[i], _ = mpc.ChanPipe()
	}
	p, err := newLinkPool(conns, nil)
	if err != nil {
		t.Fatal(err)
	}

	idx, links := p.lend(10)
	if len(idx) != 2 || len(links) != 2 {
		t.Fatalf("lend(10) on an idle 3-link pool gave %d links, want 2 (one stays home)", len(idx))
	}
	for _, i := range idx {
		if !p.lent[i] {
			t.Errorf("link %d handed out but not marked lent", i)
		}
	}
	p.mu.Lock()
	if got := p.availLocked(); got != 1 {
		t.Errorf("availLocked = %d with 2 links lent, want 1", got)
	}
	slots := p.leastLoadedLocked(3)
	p.mu.Unlock()
	if len(slots) != 1 {
		t.Fatalf("leastLoadedLocked returned %d slots, want 1 (lent links excluded)", len(slots))
	}
	for _, s := range slots {
		for _, lent := range idx {
			if s == lent {
				t.Fatalf("leastLoadedLocked placed on lent link %d", s)
			}
		}
	}

	// An auto-width lease spans only the owned link; a second lend finds
	// nothing free.
	lease, err := p.lease(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(lease) != 1 || lease[0] != slots[0] {
		t.Fatalf("lease on loan-depleted pool = %v, want [%d]", lease, slots[0])
	}
	if more, _ := p.lend(10); more != nil {
		t.Fatalf("lend with no idle free link gave %v", more)
	}
	p.release(lease)

	// Reclaim restores full width; the busy-link rule keeps loaded links
	// home on the next lend.
	p.reclaim(idx)
	p.mu.Lock()
	if got := p.availLocked(); got != 3 {
		t.Errorf("availLocked = %d after reclaim, want 3", got)
	}
	p.mu.Unlock()
	lease, err = p.lease(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(lease) != 3 {
		t.Fatalf("post-reclaim auto lease spans %d links, want 3", len(lease))
	}
	idx, _ = p.lend(10)
	if len(idx) != 0 {
		t.Fatalf("lend with every link under load gave %d links, want 0", len(idx))
	}
	p.release(lease)

	// With loans outstanding, Close must wait for reclaim.
	idx, _ = p.lend(1)
	if len(idx) != 1 {
		t.Fatalf("lend(1) = %v", idx)
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with a loan outstanding")
	case <-time.After(50 * time.Millisecond):
	}
	p.reclaim(idx)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned after reclaim")
	}
	// A closed pool lends nothing.
	if idx, _ := p.lend(1); idx != nil {
		t.Fatal("closed pool lent a link")
	}
}
