package paillier

import (
	"bytes"
	"errors"
	"io"
	"math/big"
	mrand "math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// powersOf raises every nonce and returns the powers as strings, for
// comparing streams.
func powersOf(nonces []*Nonce) []string {
	out := make([]string, len(nonces))
	for i, nc := range nonces {
		out[i] = nc.power().String()
	}
	return out
}

// waitForGoroutines waits until no more than want goroutines are alive,
// failing the test once the deadline passes.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, %d before the reserve was used", runtime.NumGoroutine(), want)
		}
	}
}

// newTestReserve is NewNonceReserve whose raiser the test waits out, so
// no raiser outlives the test that started it and skews the next one's
// goroutine count.
func newTestReserve(t *testing.T, random io.Reader) *NonceReserve {
	r := NewNonceReserve(fbKey(), random)
	t.Cleanup(func() { waitRaised(t, r) })
	return r
}

// waitRaised waits, to a deadline, until r's raiser has raised the whole
// queue and left its loop.
func waitRaised(t *testing.T, r *NonceReserve) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		r.mu.Lock()
		raising := r.raising
		r.mu.Unlock()
		if !raising {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the reserve's raiser is still running")
		}
	}
}

// TestNonceReserveKeepsStreamOrder: under a seeded reader, successive
// Takes — smaller than the reserve, zero, exactly its depth, larger than
// it — hand out exactly the nonces as many private-key draws from the
// same reader produce, in order, whatever the raiser had raised by then.
func TestNonceReserveKeepsStreamOrder(t *testing.T) {
	sk := fbKey()
	r := newTestReserve(t, mrand.New(mrand.NewSource(5)))
	var got []*Nonce
	for _, k := range []int{1, 3, 0, reserveDepth, reserveDepth + 7, 2, 2 * reserveDepth, 5} {
		nonces, err := r.Take(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(nonces) != k {
			t.Fatalf("Take(%d) returned %d nonces", k, len(nonces))
		}
		got = append(got, nonces...)
	}
	want, err := drawNonces(len(got), mrand.New(mrand.NewSource(5)), sk.drawNonce)
	if err != nil {
		t.Fatal(err)
	}
	g, w := powersOf(got), powersOf(want)
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("nonce %d of the reserve differs from the private draw's nonce %d", i, i)
		}
	}
}

// TestNonceReserveConcurrentTakes: 8 goroutines × 200 Takes on one
// reserve, each raising what it took while the raiser works on the
// queue. Every power handed out is distinct, and together they are
// exactly the first nonces of the reader's stream — each ρ the power of
// the exponents drawn for it.
func TestNonceReserveConcurrentTakes(t *testing.T) {
	sk := fbKey()
	r := newTestReserve(t, mrand.New(mrand.NewSource(9)))
	const goroutines, takes = 8, 200
	taken := make([][]*Nonce, goroutines)
	var wg sync.WaitGroup
	for g := range taken {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < takes; i++ {
				nonces, err := r.Take(1 + (g+i)%3)
				if err != nil {
					t.Error(err)
					return
				}
				if err := RaiseAlongside(nonces, 0, nil); err != nil {
					t.Error(err)
					return
				}
				taken[g] = append(taken[g], nonces...)
			}
		}()
	}
	wg.Wait()
	seen := make(map[string]bool)
	for _, nonces := range taken {
		for _, rho := range powersOf(nonces) {
			if seen[rho] {
				t.Fatal("the reserve handed out one nonce power twice")
			}
			seen[rho] = true
		}
	}
	want, err := drawNonces(len(seen), mrand.New(mrand.NewSource(9)), sk.drawNonce)
	if err != nil {
		t.Fatal(err)
	}
	for i, rho := range powersOf(want) {
		if !seen[rho] {
			t.Fatalf("nonce %d of the stream was never handed out (or handed out wrong)", i)
		}
	}
}

// TestNonceReserveRaiserExits: a Take leaves a full queue behind and
// starts the raiser, which raises all of it and exits on its own — an
// idle reserve holds no goroutine, and there is no Close to forget.
func TestNonceReserveRaiserExits(t *testing.T) {
	before := runtime.NumGoroutine()
	r := NewNonceReserve(fbKey(), nil)
	for i := 0; i < 3; i++ {
		if _, err := r.Take(5); err != nil {
			t.Fatal(err)
		}
	}
	waitRaised(t, r)
	waitForGoroutines(t, before)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.raising || len(r.queue) != reserveDepth || r.next != len(r.queue) {
		t.Fatalf("idle reserve: raising %v, %d queued, %d started", r.raising, len(r.queue), r.next)
	}
	for i, nc := range r.queue {
		if nc.rho == nil {
			t.Fatalf("queued nonce %d was left unraised", i)
		}
	}
}

// goroutineID names the calling goroutine, read off its stack header
// ("goroutine 18 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// readLedger is a reader that counts the bytes each goroutine reads from
// the stream it wraps.
type readLedger struct {
	src io.Reader
	mu  sync.Mutex
	by  map[string]int // guarded by mu; bytes read, by goroutine
}

func (l *readLedger) Read(p []byte) (int, error) {
	n, err := l.src.Read(p)
	id := goroutineID()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.by[id] += n
	return n, err
}

// readBy returns the bytes the goroutine id has read so far.
func (l *readLedger) readBy(id string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.by[id]
}

// total returns the bytes read so far, by every goroutine.
func (l *readLedger) total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	all := 0
	for _, n := range l.by {
		all += n
	}
	return all
}

// TestNonceReserveDrawsAheadOnTheRaiser: Take(k) on an empty reserve
// reads exactly the randomness of the k nonces it hands out, on the
// caller's goroutine; the draw-ahead is the raiser's, which fills the
// queue to reserveDepth, raises all of it in stream order and exits.
func TestNonceReserveDrawsAheadOnTheRaiser(t *testing.T) {
	sk := fbKey()
	for _, k := range []int{1, 5, reserveDepth + 3} {
		// What k and then reserveDepth more private draws read of the
		// stream.
		want := &readLedger{src: mrand.New(mrand.NewSource(11)), by: map[string]int{}}
		if _, err := drawNonces(k, want, sk.drawNonce); err != nil {
			t.Fatal(err)
		}
		kBytes := want.total()
		if _, err := drawNonces(reserveDepth, want, sk.drawNonce); err != nil {
			t.Fatal(err)
		}
		fullBytes := want.total()

		before := runtime.NumGoroutine()
		random := &readLedger{src: mrand.New(mrand.NewSource(11)), by: map[string]int{}}
		r := NewNonceReserve(sk, random)
		caller := goroutineID()
		if _, err := r.Take(k); err != nil {
			t.Fatal(err)
		}
		if got := random.readBy(caller); got != kBytes {
			t.Errorf("Take(%d) read %d bytes on its caller's goroutine, its %d nonces take %d", k, got, k, kBytes)
		}
		waitRaised(t, r)
		waitForGoroutines(t, before)
		if byCaller, all := random.readBy(caller), random.total(); byCaller != kBytes || all != fullBytes {
			t.Errorf("after the raiser: %d bytes on the caller, %d in all; want %d and %d", byCaller, all, kBytes, fullBytes)
		}
		r.mu.Lock()
		if r.raising || len(r.queue) != reserveDepth || r.next != len(r.queue) {
			t.Errorf("idle reserve: raising %v, %d queued, %d started", r.raising, len(r.queue), r.next)
		}
		for i, nc := range r.queue {
			if !nc.raised.Load() {
				t.Errorf("queued nonce %d was left unraised", i)
			}
		}
		r.mu.Unlock()
	}
}

// TestRaiseAlongsideSkipsRaisedNonces: a nonce the raiser has already
// raised gets no task — a handler whose nonces are all raised runs just
// its n tasks, so a single one runs inline with no fan-out helper — and
// every other nonce comes out raised.
func TestRaiseAlongsideSkipsRaisedNonces(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	nonces, err := drawNonces(4, mrand.New(mrand.NewSource(13)), fbKey().drawNonce)
	if err != nil {
		t.Fatal(err)
	}
	nonces[0].Raise()
	nonces[2].Raise()
	if got := unraised(nonces); len(got) != 2 || got[0] != nonces[1] || got[1] != nonces[3] {
		t.Fatalf("unraised = %v, want nonces 1 and 3", got)
	}
	var ran atomic.Int32
	if err := RaiseAlongside(nonces, 2, func(int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 2 || len(unraised(nonces)) != 0 {
		t.Fatalf("%d tasks of 2 ran, %d nonces left unraised", ran.Load(), len(unraised(nonces)))
	}
	helpers := -1
	if err := RaiseAlongside(nonces, 1, func(int) error { helpers = HelpersInFlight(); return nil }); err != nil {
		t.Fatal(err)
	}
	if helpers != 0 {
		t.Fatalf("a handler with every nonce raised ran beside %d fan-out helpers", helpers)
	}
}

// TestNonceRaiseRunsOnce: a second Raise that arrives while the first is
// computing waits for that result instead of computing it again — a
// handler reaching a nonce the raiser is working on.
func TestNonceRaiseRunsOnce(t *testing.T) {
	var calls atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	nc := &Nonce{raise: func() *big.Int {
		calls.Add(1)
		close(started)
		<-release
		return big.NewInt(42)
	}}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); nc.Raise() }()
	<-started
	second := make(chan struct{})
	go func() { defer wg.Done(); nc.Raise(); close(second) }()
	select {
	case <-second:
		t.Fatal("the second Raise returned before the first had a result")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("the nonce power was computed %d times", got)
	}
	if nc.power().Int64() != 42 {
		t.Fatalf("power = %v, want the one raise's result", nc.power())
	}
}

// TestNonceReserveReaderFailure: a reader that runs dry during the
// draw-ahead costs the Take nothing it asked for; the Take that needs a
// nonce the reader could not supply reports the reader's error.
func TestNonceReserveReaderFailure(t *testing.T) {
	sk := fbKey()
	want, err := drawNonces(2, mrand.New(mrand.NewSource(3)), sk.drawNonce)
	if err != nil {
		t.Fatal(err)
	}
	// The stream's first 160 bytes — a few nonces of two 16-byte
	// exponents each, at this key — then an error.
	buf := make([]byte, 160)
	mrand.New(mrand.NewSource(3)).Read(buf)
	r := newTestReserve(t, io.MultiReader(bytes.NewReader(buf), errReader{}))
	got, err := r.Take(2)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := powersOf(got), powersOf(want); g[0] != w[0] || g[1] != w[1] {
		t.Fatal("a short reader changed the nonces handed out")
	}
	if _, err := r.Take(reserveDepth); !errors.Is(err, errDry) {
		t.Fatalf("Take past what the reader held: err = %v, want %v", err, errDry)
	}
}

var errDry = errors.New("reader ran dry")

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errDry }
