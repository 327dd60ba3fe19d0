package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/plainknn"
)

// newWrappedSharded is newShardedSystem with every worker passed
// through wrap and fronted by a coordinator of its own, so tests can
// inject delays, failures, completion signals or the shard wire into
// the gather. A nil wrap keeps the engine's coordinator.
func newWrappedSharded(t *testing.T, tbl *dataset.Table, shards, workers int, wrap func(*LocalShard) Shard) (*ShardedC1, *Client) {
	t.Helper()
	sk := testKey()
	c2 := NewCloudC2(sk, nil)
	links := func() []mpc.Conn { return pipesTo(t, c2, workers) }
	e := newEngine(t, encryptDataset(t, sk, tbl), shards, links)
	bob := NewClient(&sk.PublicKey, nil)
	if wrap == nil {
		return e.ShardedC1, bob
	}
	wrapped := make([]Shard, shards)
	for i, w := range e.Workers {
		wrapped[i] = wrap(&LocalShard{C1: w, Index: i, Count: shards})
	}
	coord, err := NewShardedC1(wrapped, links(), &sk.PublicKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := coord.Close(); err != nil {
			t.Errorf("closing coordinator: %v", err)
		}
	})
	return coord, bob
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

// TestStreamingVsSerialDifferential is the gather's oracle: over both
// coordinator↔shard topologies (in-process and wire), the 3-shard merge
// must return the identical top-k distance multiset as the serial scan of
// the whole table by a one-shard coordinator — the same engine with
// nothing to gather — and both must match the plaintext oracle.
func TestStreamingVsSerialDifferential(t *testing.T) {
	const attrBits, m, n, k = 4, 2, 15, 4
	tbl, err := dataset.Generate(811, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	whole, bob := newSystem(t, tbl, 2)
	for _, remote := range []bool{false, true} {
		coord, _ := newShardedSystem(t, tbl, 3, 2, remote)
		for _, q := range [][]uint64{{7, 3}, {0, 14}} {
			eq, err := bob.EncryptQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			res, sm, err := coord.SecureQuery(context.Background(), eq, k, 0)
			if err != nil {
				t.Fatalf("remote=%v sharded: %v", remote, err)
			}
			got, err := bob.Unmask(res)
			if err != nil {
				t.Fatal(err)
			}
			if sm.Shards != 3 || sm.Scatter <= 0 {
				t.Errorf("sharded metrics missing scatter shape: %+v", sm)
			}
			sharded := sortedDistances(t, got, q)
			serial := sortedDistances(t, runSecure(t, whole, bob, q, k), q)
			for i := range sharded {
				if sharded[i] != serial[i] {
					t.Fatalf("remote=%v q=%v: sharded distances %v, serial %v", remote, q, sharded, serial)
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
	errDead := errors.New("shard hardware on fire")
	coord, bob := newWrappedSharded(t, tbl, 3, 1, func(s *LocalShard) Shard {
		if s.Index == 1 {
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
		_, _, err := coord.SecureQuery(context.Background(), eq, k, 0)
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
		t.Fatal("sharded query with a dead shard never returned")
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
	first := make(chan struct{})
	coord, bob := newWrappedSharded(t, tbl, 2, 1, func(s *LocalShard) Shard {
		if s.Index == 0 {
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
		_, _, err := coord.SecureQuery(ctx, eq, k, 0)
		done <- err
	}()
	select {
	case <-first:
	case err := <-done: // a failing scan aborts the query before any delivery
		t.Fatalf("query ended before the first shard delivered: %v", err)
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
// shard there is nothing to merge, so the gather falls back to the
// shard's own rank-ordered k-set — only the reveal on the coordinator's
// links — and still answers exactly.
func TestStreamingSingleShardFallsBack(t *testing.T) {
	const attrBits, m, n, k = 4, 2, 9, 3
	tbl, err := dataset.Generate(827, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	coord, bob := newShardedSystem(t, tbl, 1, 1, false)
	q := []uint64{8, 2}
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, sm, err := coord.SecureQuery(context.Background(), eq, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := predict(t, coord.Shape(), testKey().Bits(), n, k, 1, 1).Secure.SMINCount; sm.SMINCount != want {
		t.Errorf("SMINCount = %d, want the shard scan's %d and no merge on top", sm.SMINCount, want)
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

// TestStreamingConcurrentChurn drives overlapping sharded queries on one
// coordinator — the -race acceptance for concurrent gathers sharing the
// shard and merge pools.
func TestStreamingConcurrentChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("many protocol rounds; skipped in -short")
	}
	const attrBits, m, n, k = 4, 2, 12, 2
	tbl, err := dataset.Generate(829, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
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
			res, _, err := coord.SecureQuery(context.Background(), eq, k, 0)
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
