package paillier_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sknn/internal/paillier"
)

// withProcs runs the test body at the given GOMAXPROCS and restores the
// previous setting (the -cpu flag's) afterwards.
func withProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// spin burns roughly d of CPU: the stand-in for a modular exponentiation.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// waitIdle fails the test unless every helper has exited: ForEach's
// contract is that none outlives the call.
func waitIdle(t *testing.T) {
	t.Helper()
	if got := paillier.HelpersInFlight(); got != 0 {
		t.Fatalf("%d fan-out helpers still alive after ForEach returned", got)
	}
}

// TestForEachSmallRunsInline: nothing to share out, no helper taken.
func TestForEachSmallRunsInline(t *testing.T) {
	withProcs(t, 4)
	if err := paillier.ForEach(0, func(int) error { return errors.New("ran") }); err != nil {
		t.Fatalf("n=0 ran its function: %v", err)
	}
	ran := 0
	err := paillier.ForEach(1, func(i int) error {
		ran++
		if h := paillier.HelpersInFlight(); h != 0 {
			t.Errorf("n=1 took %d helpers", h)
		}
		return nil
	})
	if err != nil || ran != 1 {
		t.Fatalf("n=1: ran %d times, err %v", ran, err)
	}
}

// TestForEachSingleProcRunsInline: GOMAXPROCS is the only control, and
// at 1 the budget is empty — the loop is the serial loop, in index order.
func TestForEachSingleProcRunsInline(t *testing.T) {
	withProcs(t, 1)
	var order []int
	err := paillier.ForEach(16, func(i int) error {
		order = append(order, i) // unsynchronised on purpose: -race proves one goroutine
		if h := paillier.HelpersInFlight(); h != 0 {
			t.Errorf("took %d helpers at GOMAXPROCS=1", h)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("inline order %v", order)
		}
	}
}

// TestForEachCoversEveryIndexOnce at a GOMAXPROCS that grants helpers.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	withProcs(t, 4)
	const n = 200
	var hits [n]atomic.Int32
	var helped atomic.Bool
	err := paillier.ForEach(n, func(i int) error {
		hits[i].Add(1)
		if paillier.HelpersInFlight() > 0 {
			helped.Store(true)
		}
		spin(20 * time.Microsecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
	if !helped.Load() {
		t.Error("no helper joined a 200-item loop at GOMAXPROCS=4")
	}
	waitIdle(t)
}

// TestForEachBudgetIsProcessWide: eight callers at once never have more
// than GOMAXPROCS−1 helpers between them, so at most 8 + 3 items run at
// any moment.
func TestForEachBudgetIsProcessWide(t *testing.T) {
	const procs, callers = 4, 8
	withProcs(t, procs)
	var running, maxRunning, maxHelpers atomic.Int32
	raise := func(max *atomic.Int32, v int32) {
		for {
			cur := max.Load()
			if v <= cur || max.CompareAndSwap(cur, v) {
				return
			}
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = paillier.ForEach(64, func(int) error {
				raise(&maxRunning, running.Add(1))
				raise(&maxHelpers, int32(paillier.HelpersInFlight()))
				spin(50 * time.Microsecond)
				running.Add(-1)
				return nil
			})
		}()
	}
	wg.Wait()
	if got := maxHelpers.Load(); got > procs-1 {
		t.Errorf("%d helpers in flight, budget is %d", got, procs-1)
	}
	if got := maxRunning.Load(); got > callers+procs-1 {
		t.Errorf("%d items running at once, want at most %d", got, callers+procs-1)
	}
	if maxHelpers.Load() == 0 {
		t.Error("no caller ever got a helper")
	}
	waitIdle(t)
}

// TestForEachNestedDoesNotDeadlock: an item that fans out again finds
// the budget taken or not, and never waits for it.
func TestForEachNestedDoesNotDeadlock(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			var leaves atomic.Int32
			done := make(chan error, 1)
			go func() {
				done <- paillier.ForEach(6, func(int) error {
					return paillier.ForEach(6, func(int) error {
						return paillier.ForEach(3, func(int) error {
							leaves.Add(1)
							spin(10 * time.Microsecond)
							return nil
						})
					})
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("nested ForEach did not return")
			}
			if got := leaves.Load(); got != 6*6*3 {
				t.Fatalf("%d leaf items ran, want %d", got, 6*6*3)
			}
			waitIdle(t)
		})
	}
}

// TestForEachReturnsLowestFailure: what the serial loop would have
// returned, at any GOMAXPROCS, and nothing starts long after it.
func TestForEachReturnsLowestFailure(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			const n, firstBad = 400, 37
			var ran atomic.Int32
			err := paillier.ForEach(n, func(i int) error {
				ran.Add(1)
				spin(5 * time.Microsecond)
				if i >= firstBad && i%2 == 1 {
					return fmt.Errorf("item %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != fmt.Sprintf("item %d", firstBad) {
				t.Fatalf("got %v, want the failure of item %d", err, firstBad)
			}
			// One item per worker can be in flight past the failure.
			if got := int(ran.Load()); got > firstBad+1+procs {
				t.Errorf("%d items ran, failure was at %d", got, firstBad)
			}
			waitIdle(t)
		})
	}
}

// TestForEachPanicReachesCaller: whichever goroutine the panicking item
// lands on — item 0 holds its goroutine until item 1 has panicked, so
// caller and helper each get one — the caller sees the panic, after
// every helper has exited.
func TestForEachPanicReachesCaller(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			for round := 0; round < 20; round++ {
				release := make(chan struct{})
				var got any
				func() {
					defer func() { got = recover() }()
					_ = paillier.ForEach(2, func(i int) error {
						if i == 1 || procs == 1 {
							defer close(release)
							panic("boom")
						}
						<-release
						return nil
					})
				}()
				if got == nil || !strings.Contains(fmt.Sprint(got), "boom") {
					t.Fatalf("round %d: recovered %v, want the task's panic", round, got)
				}
				waitIdle(t)
			}
		})
	}
}
