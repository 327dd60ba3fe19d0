package paillier

import (
	"crypto/rand"
	"io"
	"sync"
)

// reserveDepth is how many nonces a NonceReserve's raiser draws and
// raises ahead of the next Take: ≈ 8 KiB of raised powers at a 512-bit
// N. One constant for every key and every request; a request larger
// than the reserve draws its shortfall inline.
const reserveDepth = 64

// NonceReserve is the key cloud's reply randomness, drawn and raised
// before the request that needs it arrives. A nonce power does not
// depend on the message it will encrypt (Paillier 1999 notes it can be
// computed ahead of time), so once C2 hands out its current nonces one
// goroutine draws the next ones and raises them while the reply travels
// to C1 and the next request travels back: a handler's own goroutine
// reads the reader only for a shortfall the reserve could not cover.
//
// The reserve hands out its reader's nonce stream in order: Take(k₁),
// Take(k₂), … return exactly the nonces k₁+k₂+… private-key draws from
// random would, whether or not they were raised yet, so a deterministic
// reader yields the same ciphertexts with or without a reserve and at
// any GOMAXPROCS. Every draw — Take's shortfall, the raiser's
// draw-ahead — happens under the reserve's lock and appends to the one
// stream; the raising happens outside it.
//
// The raiser is one goroutine per reserve, outside ForEach's helper
// budget — the helpers are busy exactly when C2 is, which is when the
// raiser has nothing to do. It starts when a Take leaves the queue short
// of reserveDepth or unraised, draws it back to reserveDepth one nonce
// at a time, raising each in stream order, and exits as soon as the
// queue is full and raised, so an idle reserve holds no goroutine and
// needs no Close. Safe for concurrent use.
type NonceReserve struct {
	sk     *PrivateKey
	random io.Reader

	mu      sync.Mutex
	queue   []*Nonce // guarded by mu; drawn and not yet handed out, in stream order
	next    int      // guarded by mu; queue[next:] are the nonces the raiser has not started
	raising bool     // guarded by mu; a raiser goroutine is running
}

// NewNonceReserve builds an empty reserve over sk's private-key nonce
// kernel and random (crypto/rand if nil). Nothing is drawn before the
// first Take. The reserve owns random from then on: its raiser reads it
// between Takes, so no other party may read the same reader.
func NewNonceReserve(sk *PrivateKey, random io.Reader) *NonceReserve {
	if random == nil {
		random = rand.Reader
	}
	return &NonceReserve{sk: sk, random: random}
}

// Take returns the next count nonces of the reserve's stream: the queued
// ones first, raised or not, then any shortfall drawn inline — the only
// randomness Take reads. Unless a raiser is already running it then
// starts one to refill the queue. A nonce the raiser is still working on
// when it is handed out is not raised twice: Raise waits for the
// raiser's result. A reader that fails during the draw-ahead leaves the
// queue short, and the Take that needs the missing nonce reports the
// error.
func (r *NonceReserve) Take(count int) ([]*Nonce, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Nonce, count)
	n := copy(out, r.queue)
	r.queue = append(r.queue[:0], r.queue[n:]...)
	r.next = max(r.next-n, 0)
	for i := n; i < count; i++ {
		nc, err := r.sk.drawNonce(r.random)
		if err != nil {
			return nil, err
		}
		out[i] = nc
	}
	if !r.raising && (r.next < len(r.queue) || len(r.queue) < reserveDepth) {
		r.raising = true
		go r.raise()
	}
	return out, nil
}

// raise is the raiser goroutine's body: raise the queued nonces in
// stream order, one at a time, drawing the next one whenever every
// queued nonce has been started, and exit once the queue is full and
// every nonce in it started — or the reader fails.
func (r *NonceReserve) raise() {
	for {
		r.mu.Lock()
		if r.next == len(r.queue) && !r.drawAheadLocked() {
			r.raising = false
			r.mu.Unlock()
			return
		}
		nc := r.queue[r.next]
		r.next++
		r.mu.Unlock()
		nc.Raise()
	}
}

// drawAheadLocked appends the stream's next nonce to a queue short of
// reserveDepth and reports whether it did: false once the queue is full
// or the reader fails. The caller holds mu, so the draw takes its place
// in the one stream.
func (r *NonceReserve) drawAheadLocked() bool {
	if len(r.queue) >= reserveDepth {
		return false
	}
	nc, err := r.sk.drawNonce(r.random)
	if err != nil {
		return false
	}
	r.queue = append(r.queue, nc)
	return true
}
