package sknn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"sknn/internal/dataset"
	"sknn/internal/paillier"
	"sknn/internal/plainknn"
)

// cancelReturnBound is how long after cancellation a query may take to
// surface its error. One protocol round at test sizes is milliseconds;
// the bound is generous for CI boxes while still catching a query that
// runs its full multi-second course ignoring the cancel.
const cancelReturnBound = 5 * time.Second

// newCancelSystem builds a 48-record system in the given topology: a full
// SkNNm scan of some hundred round trips, tens of milliseconds on a
// laptop core. The clustered configs use a coverage factor that probes
// every cluster, keeping pruned results oracle-exact.
func newCancelSystem(t *testing.T, shards int, index IndexMode) (*System, *dataset.Table) {
	t.Helper()
	tbl, err := dataset.Generate(701, 48, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Key: facadeKey(), Workers: 2, Shards: shards, Index: index}
	if index == IndexClustered {
		cfg.Clusters = 4
		cfg.Coverage = 100 // pool target ≥ n: probe everything, stay exact
	}
	sys, err := New(tbl.Rows, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sys.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return sys, tbl
}

// assertCanceled checks the full cancellation contract on err: typed
// sentinel, context error visibility, and not a success.
func assertCanceled(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("canceled query succeeded")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("errors.Is(err, ErrCanceled) = false for %v", err)
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err carries no context error: %v", err)
	}
}

// assertOracle runs one follow-up secure query and compares the sorted
// squared distances against the plaintext oracle — the "System stays
// usable after cancellation" half of the contract.
func assertOracle(t *testing.T, sys *System, tbl *dataset.Table, q []uint64, k int) {
	t.Helper()
	res, err := sys.Query(context.Background(), q, WithK(k))
	if err != nil {
		t.Fatalf("follow-up query after cancel: %v", err)
	}
	want, err := plainknn.KDistances(tbl.Rows, q, k)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]uint64, len(res.Rows))
	for i, row := range res.Rows {
		if got[i], err = plainknn.SquaredDistance(row, q); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("follow-up distances %v, oracle %v", got, want)
		}
	}
}

// TestCancelMidProtocol is the acceptance matrix: a secure query
// canceled mid-protocol — one shard and 2-shard scatter-gather, in both
// index modes — returns ErrCanceled promptly, releases its pooled links,
// and leaves the System answering oracle-correct queries.
func TestCancelMidProtocol(t *testing.T) {
	cases := []struct {
		name   string
		shards int
		index  IndexMode
	}{
		{"unsharded/full", 0, IndexNone},
		{"unsharded/clustered", 0, IndexClustered},
		{"sharded2/full", 2, IndexNone},
		{"sharded2/clustered", 2, IndexClustered},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, tbl := newCancelSystem(t, tc.shards, tc.index)
			q, _ := dataset.GenerateQuery(702, 2, 4)
			// A warm query times the protocol on this host and engine; the
			// cancel then fires a third of the way into an identical one,
			// mid-protocol however fast either is.
			start := time.Now()
			assertOracle(t, sys, tbl, q, 2)
			full := time.Since(start)

			ctx, cancel := context.WithCancel(context.Background())
			errCh := make(chan error, 1)
			go func() {
				_, err := sys.Query(ctx, q, WithK(2))
				errCh <- err
			}()
			time.Sleep(full / 3) // deep inside the tournament by now
			canceledAt := time.Now()
			cancel()
			select {
			case err := <-errCh:
				assertCanceled(t, err)
				if d := time.Since(canceledAt); d > cancelReturnBound {
					t.Errorf("query returned %v after cancel, want < %v", d, cancelReturnBound)
				}
			case <-time.After(2 * time.Minute):
				t.Fatal("canceled query never returned")
			}

			// The canceled session must have released its links: a fresh
			// query answers exactly.
			assertOracle(t, sys, tbl, q, 2)
		})
	}
}

// TestQueryDeadline covers the deadline flavor: a 1ms budget fails fast
// with context.DeadlineExceeded visible through the wrap, and the
// System keeps working.
func TestQueryDeadline(t *testing.T) {
	sys, tbl := newCancelSystem(t, 0, IndexNone)
	q, _ := dataset.GenerateQuery(703, 2, 4)

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := sys.Query(ctx, q, WithK(2))
	if err == nil {
		t.Fatal("1ms-deadline query succeeded")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if d := time.Since(start); d > cancelReturnBound {
		t.Errorf("deadline query took %v to fail", d)
	}
	assertOracle(t, sys, tbl, q, 2)
}

// TestCancelBatch cancels a whole batch: every query fails with
// ErrCanceled (visible through the errors.Join), failed slots are nil,
// and the System stays usable.
func TestCancelBatch(t *testing.T) {
	sys, tbl := newCancelSystem(t, 0, IndexNone)
	queries := make([][]uint64, 4)
	for i := range queries {
		queries[i], _ = dataset.GenerateQuery(int64(710+i), 2, 4)
	}

	ctx, cancel := context.WithCancel(context.Background())
	type out struct {
		results []*Result
		err     error
	}
	outCh := make(chan out, 1)
	go func() {
		results, err := sys.QueryBatch(ctx, queries, WithK(2))
		outCh <- out{results, err}
	}()
	time.Sleep(40 * time.Millisecond)
	cancel()
	o := <-outCh
	assertCanceled(t, o.err)
	for i, res := range o.results {
		if res != nil {
			t.Errorf("result %d non-nil on canceled batch", i)
		}
	}
	assertOracle(t, sys, tbl, queries[0], 2)
}

// TestCancelBeforeStart covers the pre-flight path: an already-dead
// context is refused before any Paillier work.
func TestCancelBeforeStart(t *testing.T) {
	tbl, _ := dataset.Generate(721, 8, 2, 3)
	sys := newTestSystem(t, tbl.Rows, 3, 1)
	q, _ := dataset.GenerateQuery(722, 2, 3)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	enc0 := paillier.EncryptCalls()
	_, err := sys.Query(ctx, q, WithK(1))
	assertCanceled(t, err)
	if d := paillier.EncryptCalls() - enc0; d != 0 {
		t.Errorf("dead-context query performed %d encryptions, want 0", d)
	}
}

// TestCloseRacesCancel drives Close concurrently with in-flight
// canceled queries — the teardown/cancellation interleaving must be
// race-clean (go test -race) and every query must resolve to one of the
// three legitimate outcomes.
func TestCloseRacesCancel(t *testing.T) {
	tbl, err := dataset.Generate(731, 24, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tbl.Rows, 4, Config{Key: facadeKey(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	const queries = 6
	errs := make([]error, queries)
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			if i%2 == 0 {
				// Half the queries get canceled mid-flight...
				time.AfterFunc(time.Duration(10+5*i)*time.Millisecond, cancel)
			} else {
				defer cancel()
			}
			q, _ := dataset.GenerateQuery(int64(732+i), 2, 4)
			_, errs[i] = sys.Query(ctx, q, WithK(2))
		}(i)
	}
	// ...while Close races the whole pack.
	time.Sleep(20 * time.Millisecond)
	if err := sys.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || errors.Is(err, ErrCanceled) || errors.Is(err, ErrClosed) {
			continue
		}
		t.Errorf("query %d: unexpected error %v", i, err)
	}
}

// TestQueryValidation pins the satellite bugfix: bad requests are
// rejected with typed ErrBadQuery errors before any Paillier work.
func TestQueryValidation(t *testing.T) {
	tbl, _ := dataset.Generate(741, 6, 2, 3)
	sys := newTestSystem(t, tbl.Rows, 3, 1)
	q, _ := dataset.GenerateQuery(742, 2, 3)
	ctx := context.Background()

	cases := []struct {
		name string
		q    []uint64
		opts []QueryOption
	}{
		{"unknown mode", q, []QueryOption{WithMode(Mode(42))}},
		{"k too small", q, []QueryOption{WithK(0)}},
		{"k beyond n", q, []QueryOption{WithK(sys.N() + 1)}},
		{"dimension mismatch", []uint64{1}, nil},
		{"negative coverage", q, []QueryOption{WithCoverage(-1)}},
		{"NaN coverage", q, []QueryOption{WithCoverage(math.NaN())}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc0 := paillier.EncryptCalls()
			_, err := sys.Query(ctx, tc.q, tc.opts...)
			if !errors.Is(err, ErrBadQuery) {
				t.Fatalf("err = %v, want ErrBadQuery", err)
			}
			if d := paillier.EncryptCalls() - enc0; d != 0 {
				t.Errorf("rejected query performed %d encryptions, want 0", d)
			}
		})
	}

	// A valid request still passes, proving validation is not overeager.
	if _, err := sys.Query(ctx, q, WithK(1), WithMode(ModeBasic)); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
}

// TestSecureQueryOutsideDomain: SkNNm's comparators hold |q−t|² below
// 2^l only while every query attribute is inside the table's domain. At
// b = 4, m = 2 (l = 10) the query (300, 2) used to come back with wrong
// neighbours and a nil error; it is refused before any encryption.
// SkNNb decrypts its distances and stays exact for any uint64, and the
// domain's top value is still a valid SkNNm query.
func TestSecureQueryOutsideDomain(t *testing.T) {
	tbl, _ := dataset.Generate(743, 8, 2, 4)
	sys := newTestSystem(t, tbl.Rows, 4, 1)
	const k = 2
	far := []uint64{300, 2}
	enc0 := paillier.EncryptCalls()
	_, err := sys.Query(context.Background(), far, WithK(k), WithMode(ModeSecure))
	if !errors.Is(err, ErrBadQuery) || !errors.Is(err, dataset.ErrValueTooLarge) {
		t.Fatalf("SkNNm query %v on a 4-bit table: err = %v, want ErrBadQuery wrapping ErrValueTooLarge", far, err)
	}
	if d := paillier.EncryptCalls() - enc0; d != 0 {
		t.Errorf("refused query performed %d encryptions, want 0", d)
	}
	for _, c := range []struct {
		q    []uint64
		mode Mode
	}{{far, ModeBasic}, {[]uint64{15, 15}, ModeSecure}} {
		got := queryDistances(t, sys, c.q, k, c.mode)
		want, _ := plainknn.KDistances(tbl.Rows, c.q, k)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("mode %v query %v: distances %v, oracle %v", c.mode, c.q, got, want)
		}
	}
}

// TestResultIDs checks the basic-mode id channel: Result.IDs names the
// returned rows (SkNNb reveals access patterns anyway) with one shard —
// whose ids come as C2 ranked them — and with two, through the second
// rank round, while SkNNm — whose
// point is hiding exactly this — returns none.
func TestResultIDs(t *testing.T) {
	for _, shards := range []int{0, 2} {
		tbl, _ := dataset.Generate(751, 12, 2, 4)
		sys, err := New(tbl.Rows, 4, Config{Key: facadeKey(), Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		q, _ := dataset.GenerateQuery(752, 2, 4)

		res, err := sys.Query(context.Background(), q, WithK(3), WithMode(ModeBasic))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IDs) != 3 {
			t.Fatalf("shards=%d: got %d ids, want 3", shards, len(res.IDs))
		}
		// Initial records hold stable ids 0..n−1 in row order, so each id
		// must point at the very row that came back.
		for i, id := range res.IDs {
			for j, v := range res.Rows[i] {
				if tbl.Rows[id][j] != v {
					t.Fatalf("shards=%d: id %d names row %v, result row is %v",
						shards, id, tbl.Rows[id], res.Rows[i])
				}
			}
		}

		sec, err := sys.Query(context.Background(), q, WithK(2))
		if err != nil {
			t.Fatal(err)
		}
		if sec.IDs != nil {
			t.Errorf("shards=%d: secure result leaked ids %v", shards, sec.IDs)
		}
		if sec.Metrics == nil || sec.Metrics.Secure == nil {
			t.Errorf("shards=%d: secure result missing metrics", shards)
		}
	}
}
