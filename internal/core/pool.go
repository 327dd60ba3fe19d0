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
	random io.Reader

	mu        sync.Mutex
	links     []*mpc.Multiplexer
	load      []int          // guarded by mu; open sessions per link, for least-loaded placement
	lent      []bool         // guarded by mu; links on loan to another pool's session (see lend)
	active    int            // guarded by mu; open query sessions
	closed    bool           // guarded by mu
	closeDone chan struct{}  // closed when teardown has fully finished
	closeErr  error          // valid once closeDone is closed
	drain     sync.WaitGroup // one unit per open session and per lent link
}

// newLinkPool wraps the connections in tagged-stream multiplexers.
func newLinkPool(conns []mpc.Conn, random io.Reader) (*linkPool, error) {
	if len(conns) == 0 {
		return nil, ErrNoConnections
	}
	p := &linkPool{
		random:    random,
		links:     make([]*mpc.Multiplexer, len(conns)),
		load:      make([]int, len(conns)),
		lent:      make([]bool, len(conns)),
		closeDone: make(chan struct{}),
	}
	for i, conn := range conns {
		p.links[i] = mpc.NewMultiplexer(conn)
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
		if len(resp.Ints) != 1 || resp.Ints[0].Cmp(n) != 0 {
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

// lease reserves width link slots (width <= 0 lets the scheduler decide:
// a session opened on an idle pool spans every link, sessions opened
// under concurrent load get an even share). The caller owes a release.
//
// Acquisition itself never blocks — the scheduler narrows the width
// instead of queueing — but a query whose ctx is already done must not
// take capacity at all: it gives up here with ErrCanceled before any
// stream opens, so canceled queries release the pool to live ones
// immediately.
func (p *linkPool) lease(ctx context.Context, width int) ([]int, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrCloudClosed
	}
	// Width planning counts only links the pool still owns: a link on
	// loan to another pool's session (see lend) is invisible here, so a
	// lease can neither land on it nor be sized as if it were free.
	avail := p.availLocked()
	w := avail
	if width > 0 {
		if width < w {
			w = width
		}
	} else {
		// Auto width: split the pool evenly over the sessions that would
		// be open, so an idle pool gives one query full fan-out while
		// arrivals under load narrow toward one link per query.
		w = avail / (p.active + 1)
	}
	if w < 1 {
		w = 1
	}
	slots := p.leastLoadedLocked(w)
	for _, i := range slots {
		p.load[i]++
	}
	p.active++
	p.drain.Add(1)
	return slots, nil
}

// leastLoadedLocked picks the w least-loaded link indices (ties by index, so
// placement is deterministic). Lent links are excluded entirely — their
// load stays frozen at zero while on loan, so counting them would make
// them look permanently idle and double-book a link two pools are
// using. Caller holds p.mu.
func (p *linkPool) leastLoadedLocked(w int) []int {
	idx := make([]int, 0, len(p.links))
	for i := range p.links {
		if !p.lent[i] {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return p.load[idx[a]] < p.load[idx[b]] })
	if w > len(idx) {
		w = len(idx)
	}
	return idx[:w]
}

// availLocked counts the links not currently on loan. Caller holds p.mu.
func (p *linkPool) availLocked() int {
	n := 0
	for i := range p.links {
		if !p.lent[i] {
			n++
		}
	}
	return n
}

// lend donates up to max idle links (zero load, not already lent) to a
// borrower — the streaming coordinator's merge session, once this
// pool's shard scan has finished — and returns their indices plus the
// multiplexers to open streams on. At least one link always stays home
// so the pool can serve its own next lease, and Close waits for every
// loan to be reclaimed (each holds one drain unit). The borrowed
// multiplexers are safe for concurrent streams; what the loan reserves
// is scheduling capacity, not the transport.
func (p *linkPool) lend(max int) ([]int, []*mpc.Multiplexer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || max <= 0 {
		return nil, nil
	}
	avail := p.availLocked()
	var idx []int
	var links []*mpc.Multiplexer
	for i := range p.links {
		if len(idx) >= max || avail <= 1 {
			break
		}
		if p.lent[i] || p.load[i] != 0 {
			continue
		}
		p.lent[i] = true
		avail--
		idx = append(idx, i)
		links = append(links, p.links[i])
	}
	p.drain.Add(len(idx))
	return idx, links
}

// reclaim returns lent links to the pool's own scheduler. Pass exactly
// the indices lend handed out; the caller must have closed any streams
// it opened on them first.
func (p *linkPool) reclaim(idx []int) {
	if len(idx) == 0 {
		return
	}
	p.mu.Lock()
	for _, i := range idx {
		p.lent[i] = false
	}
	p.mu.Unlock()
	p.drain.Add(-len(idx))
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
		if err := mpc.SendClose(link.Conn()); err != nil && first == nil {
			first = err
		}
		if err := link.Close(); err != nil && first == nil {
			first = err
		}
	}
	p.closeErr = first
	close(p.closeDone)
	return first
}
