package core

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"sort"
	"sync"

	"sknn/internal/mpc"
)

// linkPool owns a set of multiplexed connections to C2 and schedules
// query sessions over them. It is the transport half of what CloudC1
// used to be: CloudC1 is now a linkPool plus the encrypted table it
// serves, and the sharded coordinator (ShardedC1) is a linkPool plus a
// set of shard workers — both lease the same kind of QuerySession from
// their pool, which is what lets the shard-local scan and the
// coordinator's merge run on the identical protocol engine.
type linkPool struct {
	randoms []io.Reader // randoms[i] feeds link i's requesters; each starts as newLinkPool's random, tests seed them link by link

	mu        sync.Mutex
	links     []*mpc.Multiplexer
	load      []int          // guarded by mu; open sessions per link, for least-loaded placement
	active    int            // guarded by mu; open query sessions
	closed    bool           // guarded by mu
	closeDone chan struct{}  // closed when teardown has fully finished
	closeErr  error          // valid once closeDone is closed
	drain     sync.WaitGroup // one unit per open session
}

// newLinkPool wraps the connections in tagged-stream multiplexers.
func newLinkPool(conns []mpc.Conn, random io.Reader) (*linkPool, error) {
	if len(conns) == 0 {
		return nil, ErrNoConnections
	}
	p := &linkPool{
		randoms:   make([]io.Reader, len(conns)),
		links:     make([]*mpc.Multiplexer, len(conns)),
		load:      make([]int, len(conns)),
		closeDone: make(chan struct{}),
	}
	for i, conn := range conns {
		p.links[i] = mpc.NewMultiplexer(conn)
		p.randoms[i] = random
	}
	return p, nil
}

// handshake verifies on every link that C2 holds the secret key matching
// the given public modulus (OpHello), failing fast on mis-deployment.
func (p *linkPool) handshake(n *big.Int) error {
	for i, link := range p.links {
		conn, err := link.Open()
		if err != nil {
			return fmt.Errorf("core: hello on connection %d: %w", i, err)
		}
		req := &mpc.Message{Op: OpHello, Ints: []*big.Int{new(big.Int).Set(n)}}
		resp, err := mpc.RoundTrip(conn, req)
		conn.Close()
		if err != nil {
			return fmt.Errorf("core: hello on connection %d: %w", i, err)
		}
		f := mpc.ReadFields(resp.Ints)
		echo := f.Big()
		if err := f.Done(); err != nil {
			return fmt.Errorf("%w: connection %d: %w", ErrHello, i, err)
		}
		if echo.Cmp(n) != 0 {
			return fmt.Errorf("%w: connection %d", ErrHello, i)
		}
	}
	return nil
}

// workers reports the parallelism degree (number of C2 links).
func (p *linkPool) workers() int { return len(p.links) }

// commStats aggregates traffic over all links and their sessions.
func (p *linkPool) commStats() mpc.StatsSnapshot {
	var total mpc.StatsSnapshot
	for _, link := range p.links {
		total = total.Add(link.Agg())
	}
	return total
}

// lease reserves link slots for one session: a session opened on an
// idle pool spans every link, sessions opened under concurrent load get
// an even share. The caller owes a release.
//
// Acquisition itself never blocks — the scheduler narrows the width
// instead of queueing — but a query whose ctx is already done must not
// take capacity at all: it gives up here with ErrCanceled before any
// stream opens, so canceled queries release the pool to live ones
// immediately.
func (p *linkPool) lease(ctx context.Context) ([]int, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrCloudClosed
	}
	// Split the pool evenly over the sessions that would be open, so an
	// idle pool gives one query full fan-out while arrivals under load
	// narrow toward one link per query.
	w := max(len(p.links)/(p.active+1), 1)
	slots := p.leastLoadedLocked(w)
	for _, i := range slots {
		p.load[i]++
	}
	p.active++
	p.drain.Add(1)
	return slots, nil
}

// leastLoadedLocked picks the w ≤ len(p.links) least-loaded link indices
// (ties by index, so placement is deterministic). Caller holds p.mu.
func (p *linkPool) leastLoadedLocked(w int) []int {
	idx := make([]int, len(p.links))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return p.load[idx[a]] < p.load[idx[b]] })
	return idx[:w]
}

// open opens one tagged stream on link slot i, bound to the session's
// context so every round trip on the stream honors cancellation.
func (p *linkPool) open(ctx context.Context, i int) (mpc.Conn, error) {
	return p.links[i].OpenContext(ctx)
}

// release returns a session's capacity to the pool.
func (p *linkPool) release(slots []int) {
	p.mu.Lock()
	for _, i := range slots {
		p.load[i]--
	}
	p.active--
	p.mu.Unlock()
	p.drain.Done()
}

// Close drains every in-flight session, then sends a close frame on
// every link and tears the pool down. Leases after Close fail with
// ErrCloudClosed. Every Close call — including concurrent and repeated
// ones — returns only after teardown has fully finished.
func (p *linkPool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.closeDone
		return p.closeErr
	}
	p.closed = true
	p.mu.Unlock()
	p.drain.Wait()
	var first error
	for _, link := range p.links {
		if err := link.Close(); err != nil && first == nil {
			first = err
		}
	}
	p.closeErr = first
	close(p.closeDone)
	return first
}
