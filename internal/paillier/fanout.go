package paillier

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file is the repository's one compute fan-out: every batch loop of
// whole-ciphertext operations — C2's group decryptions and reply nonce
// powers, C1's packing and unblinding exponentiations, the owner's table
// encryption — runs its independent items through ForEach. It spreads
// CPU work over idle cores inside one party and is orthogonal to the
// link count (sknn.Config.Workers), which spreads a query over more
// frames: here nothing about the wire changes.

// helpers counts the fan-out helper goroutines alive in this process,
// across every concurrent ForEach: the budget all callers share.
var helpers atomic.Int32

// acquireHelpers takes up to want helper tokens from the process-wide
// budget of GOMAXPROCS − 1 and reports how many it got. It never waits:
// a process whose cores are already busy (other queries, other parties
// in the same process, an outer ForEach) hands out nothing, and the
// caller's loop runs inline exactly as it would without this file — so
// the fan-out cannot oversubscribe the scheduler, cannot deadlock on a
// nested call, and costs a saturated process one atomic load per batch.
func acquireHelpers(want int) int {
	limit := runtime.GOMAXPROCS(0) - 1
	for {
		cur := int(helpers.Load())
		take := min(limit-cur, want)
		if take <= 0 {
			return 0
		}
		if helpers.CompareAndSwap(int32(cur), int32(cur+take)) {
			return take
		}
	}
}

// fanOut is the shared state of one ForEach that took helpers.
type fanOut struct {
	n    int
	fn   func(i int) error
	next atomic.Int64 // next unclaimed item
	stop atomic.Bool  // set by the first failure: no new item is claimed

	mu       sync.Mutex
	errAt    int   // guarded by mu; lowest failed item so far
	err      error // guarded by mu; its error
	panicked any   // guarded by mu; first panic a helper recovered
}

// work claims items in index order until none is left or one has failed.
// A claimed item always runs, and claims are monotonic, so by the time
// any item fails every lower item has been claimed and will report: the
// lowest failing index — what the serial loop would have returned — is
// always among the recorded ones.
func (f *fanOut) work() {
	for !f.stop.Load() {
		i := int(f.next.Add(1)) - 1
		if i >= f.n {
			return
		}
		if err := f.fn(i); err != nil {
			f.stop.Store(true)
			f.mu.Lock()
			if f.err == nil || i < f.errAt {
				f.errAt, f.err = i, err
			}
			f.mu.Unlock()
		}
	}
}

// help is one helper goroutine's body: work, hand a panic to the caller
// instead of killing the process from a goroutine nobody can recover on,
// give the token back.
func (f *fanOut) help(wg *sync.WaitGroup) {
	defer wg.Done()
	defer helpers.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			f.stop.Store(true)
			f.mu.Lock()
			if f.panicked == nil {
				f.panicked = fmt.Sprintf("%v\n\nfan-out helper stack:\n%s", r, debug.Stack())
			}
			f.mu.Unlock()
		}
	}()
	f.work()
}

// ForEach runs fn(0), …, fn(n−1) and returns the error of the lowest
// index that failed, or nil. The calling goroutine works through the
// items itself; up to n − 1 helper goroutines join it, as many as the
// process-wide budget (GOMAXPROCS − 1 helpers in flight, shared by every
// ForEach in the process) has free at the moment of the call, possibly
// none. After a failure no further item is started. ForEach returns only
// once every helper it started has exited, and a panic in fn — on the
// caller or on a helper — propagates to the caller after that.
//
// fn must be safe to run concurrently for distinct i and should cost a
// modular exponentiation or more: the items are handed out one at a time.
// It must not read a caller-supplied io.Reader — draw randomness before
// the call, in index order, so the reader is never shared and a
// deterministic one yields the same bytes at any GOMAXPROCS.
func ForEach(n int, fn func(i int) error) error {
	got := 0
	if n > 1 {
		got = acquireHelpers(n - 1)
	}
	if got == 0 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	f := &fanOut{n: n, fn: fn}
	var wg sync.WaitGroup
	wg.Add(got)
	for h := 0; h < got; h++ {
		go f.help(&wg)
	}
	// The caller's own panic unwinds through here: stop the helpers and
	// wait for them on the way out either way.
	func() {
		defer wg.Wait()
		defer f.stop.Store(true)
		f.work()
	}()
	if f.panicked != nil {
		panic(f.panicked)
	}
	return f.err
}
