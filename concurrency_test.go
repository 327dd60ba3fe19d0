package sknn

import (
	"crypto/rand"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/paillier"
	"sknn/internal/plainknn"
)

// oracleRows returns the plaintext kNN answer in rank order.
func oracleRows(t *testing.T, rows [][]uint64, q []uint64, k int) [][]uint64 {
	t.Helper()
	nbs, err := plainknn.KNN(rows, q, k)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]uint64, len(nbs))
	for i, nb := range nbs {
		out[i] = rows[nb.Index]
	}
	return out
}

// assertBasicMatches compares an SkNNb result row-for-row with the
// oracle (SkNNb's stable rank makes the full row order deterministic).
func assertBasicMatches(t *testing.T, rows [][]uint64, q []uint64, k int, got [][]uint64) {
	t.Helper()
	want := oracleRows(t, rows, q, k)
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("q=%v row %d = %v, want %v", q, i, got[i], want[i])
			}
		}
	}
}

// assertSecureMatches compares an SkNNm result with the oracle by
// distance multiset (ties are broken randomly by the protocol).
func assertSecureMatches(t *testing.T, rows [][]uint64, q []uint64, k int, got [][]uint64) {
	t.Helper()
	want, err := plainknn.KDistances(rows, q, k)
	if err != nil {
		t.Fatal(err)
	}
	ds := make([]uint64, len(got))
	for i, row := range got {
		ds[i], _ = plainknn.SquaredDistance(row, q)
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	for i := range want {
		if ds[i] != want[i] {
			t.Fatalf("q=%v secure distances = %v, want %v", q, ds, want)
		}
	}
}

// TestConcurrentQueriesMatchOracle fires 8 simultaneous Query calls per
// mode on a shared System and checks every answer against the plaintext
// kNN oracle. Run under -race this is the session-isolation proof: no
// cross-session state, no crossed streams.
func TestConcurrentQueriesMatchOracle(t *testing.T) {
	const concurrent = 8

	t.Run("basic", func(t *testing.T) {
		tbl, _ := dataset.Generate(301, 32, 3, 4)
		sys := newTestSystem(t, tbl.Rows, 4, 4)
		queries := make([][]uint64, concurrent)
		for i := range queries {
			queries[i], _ = dataset.GenerateQuery(int64(310+i), 3, 4)
		}
		var wg sync.WaitGroup
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q []uint64) {
				defer wg.Done()
				got, err := queryRows(sys, q, 3, ModeBasic)
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				assertBasicMatches(t, tbl.Rows, q, 3, got)
			}(i, q)
		}
		wg.Wait()
	})

	t.Run("secure", func(t *testing.T) {
		tbl, _ := dataset.Generate(321, 10, 2, 3)
		sys := newTestSystem(t, tbl.Rows, 3, 4)
		queries := make([][]uint64, concurrent)
		for i := range queries {
			queries[i], _ = dataset.GenerateQuery(int64(330+i), 2, 3)
		}
		var wg sync.WaitGroup
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q []uint64) {
				defer wg.Done()
				got, err := queryRows(sys, q, 2, ModeSecure)
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				assertSecureMatches(t, tbl.Rows, q, 2, got)
			}(i, q)
		}
		wg.Wait()
	})
}

// TestConcurrentNewSharesKey stands four systems up at once on one
// freshly generated key — New used to build nonce tables into the
// caller's Config.Key, unsynchronised — and checks every system's answers
// against the plaintext oracle. Under -race this is the proof that the
// library only reads the key it is handed.
func TestConcurrentNewSharesKey(t *testing.T) {
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := dataset.Generate(341, 10, 2, 3)
	q, _ := dataset.GenerateQuery(342, 2, 3)
	const systems, k = 4, 2
	basic, secure := make([][][]uint64, systems), make([][][]uint64, systems)
	var wg sync.WaitGroup
	for i := 0; i < systems; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sys, err := New(tbl.Rows, 3, Config{Key: sk, Shards: i % 2 * 2})
			if err != nil {
				t.Errorf("system %d: %v", i, err)
				return
			}
			defer sys.Close()
			if basic[i], err = queryRows(sys, q, k, ModeBasic); err != nil {
				t.Errorf("system %d, basic: %v", i, err)
			}
			if secure[i], err = queryRows(sys, q, k, ModeSecure); err != nil {
				t.Errorf("system %d, secure: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 0; i < systems; i++ {
		assertBasicMatches(t, tbl.Rows, q, k, basic[i])
		assertSecureMatches(t, tbl.Rows, q, k, secure[i])
	}
}

// TestQueryBatchMatchesOracle checks the batch API in both modes.
func TestQueryBatchMatchesOracle(t *testing.T) {
	t.Run("basic", func(t *testing.T) {
		tbl, _ := dataset.Generate(341, 24, 2, 4)
		sys := newTestSystem(t, tbl.Rows, 4, 4)
		queries := make([][]uint64, 8)
		for i := range queries {
			queries[i], _ = dataset.GenerateQuery(int64(350+i), 2, 4)
		}
		results, err := queryBatchRows(sys, queries, 3, ModeBasic)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(queries) {
			t.Fatalf("got %d results, want %d", len(results), len(queries))
		}
		for i, q := range queries {
			assertBasicMatches(t, tbl.Rows, q, 3, results[i])
		}
	})

	t.Run("secure", func(t *testing.T) {
		tbl, _ := dataset.Generate(361, 10, 2, 3)
		sys := newTestSystem(t, tbl.Rows, 3, 2)
		queries := make([][]uint64, 8)
		for i := range queries {
			queries[i], _ = dataset.GenerateQuery(int64(370+i), 2, 3)
		}
		results, err := queryBatchRows(sys, queries, 2, ModeSecure)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			assertSecureMatches(t, tbl.Rows, q, 2, results[i])
		}
	})
}

// TestQueryBatchValidation covers the batch API's edge and error paths.
func TestQueryBatchValidation(t *testing.T) {
	tbl, _ := dataset.Generate(381, 8, 2, 3)
	sys := newTestSystem(t, tbl.Rows, 3, 2)

	if res, err := queryBatchRows(sys, nil, 1, ModeBasic); err != nil || res != nil {
		t.Errorf("empty batch = %v, %v", res, err)
	}
	queries := [][]uint64{{1, 2}, {3}} // second query has the wrong dimension
	results, err := queryBatchRows(sys, queries, 1, ModeBasic)
	if err == nil {
		t.Fatal("dimension error not surfaced")
	}
	if len(results) != 2 || results[0] == nil || results[1] != nil {
		t.Errorf("partial results = %v", results)
	}
	if _, err := queryBatchRows(sys, [][]uint64{{1, 2}}, 1, Mode(42)); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestCloseDrainsInflightQueries races Close against a wave of queries:
// every query that got in before Close must complete with a correct
// result (drained, not dropped), and every query after must see
// ErrClosed — never a torn protocol stream.
func TestCloseDrainsInflightQueries(t *testing.T) {
	tbl, _ := dataset.Generate(401, 24, 2, 4)
	sys, err := New(tbl.Rows, 4, Config{Key: facadeKey(), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := dataset.GenerateQuery(402, 2, 4)

	const queries = 8
	started := make(chan struct{}, queries)
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			got, err := queryRows(sys, q, 2, ModeBasic)
			if errors.Is(err, ErrClosed) {
				return // lost the race with Close before starting: fine
			}
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			assertBasicMatches(t, tbl.Rows, q, 2, got)
		}(i)
	}
	// Close once at least half the queries are launched; the rest race.
	for i := 0; i < queries/2; i++ {
		<-started
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if _, err := queryRows(sys, q, 2, ModeBasic); !errors.Is(err, ErrClosed) {
		t.Errorf("query after close = %v, want ErrClosed", err)
	}
}

// TestConcurrentClose races several Close calls: each must return only
// after teardown fully finished, so a query issued after any Close
// returns must see ErrClosed and no serve goroutine may still be live.
func TestConcurrentClose(t *testing.T) {
	tbl, _ := dataset.Generate(421, 8, 2, 3)
	sys, err := New(tbl.Rows, 3, Config{Key: facadeKey(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := dataset.GenerateQuery(422, 2, 3)
	queryDone := make(chan struct{})
	go func() {
		defer close(queryDone)
		if _, err := queryRows(sys, q, 2, ModeBasic); err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("in-flight query: %v", err)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sys.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			// Teardown is complete by the time any Close returns.
			if _, err := queryRows(sys, q, 1, ModeBasic); !errors.Is(err, ErrClosed) {
				t.Errorf("query after Close = %v, want ErrClosed", err)
			}
		}()
	}
	wg.Wait()
	<-queryDone
}

// TestMixedModeConcurrency interleaves both protocols and the batch API
// on one System at once.
func TestMixedModeConcurrency(t *testing.T) {
	tbl, _ := dataset.Generate(411, 10, 2, 3)
	sys := newTestSystem(t, tbl.Rows, 3, 4)
	q1, _ := dataset.GenerateQuery(412, 2, 3)
	q2, _ := dataset.GenerateQuery(413, 2, 3)

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		got, err := queryRows(sys, q1, 2, ModeSecure)
		if err != nil {
			t.Errorf("secure: %v", err)
			return
		}
		assertSecureMatches(t, tbl.Rows, q1, 2, got)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			got, err := queryRows(sys, q2, 3, ModeBasic)
			if err != nil {
				t.Errorf("basic %d: %v", i, err)
				return
			}
			assertBasicMatches(t, tbl.Rows, q2, 3, got)
		}
	}()
	go func() {
		defer wg.Done()
		results, err := queryBatchRows(sys, [][]uint64{q1, q2}, 2, ModeBasic)
		if err != nil {
			t.Errorf("batch: %v", err)
			return
		}
		assertBasicMatches(t, tbl.Rows, q1, 2, results[0])
		assertBasicMatches(t, tbl.Rows, q2, 2, results[1])
	}()
	wg.Wait()

	if fmt.Sprint(sys.CommStats().Rounds) == "0" {
		t.Error("no rounds accounted")
	}
}
