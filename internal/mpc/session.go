package mpc

import (
	"context"
	"fmt"
	"sync"
)

// sessionBuf bounds how many routed-but-unread frames one session may
// hold. Under the request/response discipline a session never has more
// than one reply in flight, so the headroom only matters if a peer
// misbehaves; the demultiplexer drops overflow rather than stalling
// every other session on the link.
const sessionBuf = 8

// Multiplexer splits one physical Conn into any number of tagged logical
// streams so independent protocol sessions can interleave on a shared
// link without crossing replies. Each logical stream is itself a Conn:
// Send stamps the session tag on outgoing frames, and a background
// demultiplexer routes incoming frames to the owning session by tag.
//
// The responder side needs no special support beyond echoing request
// tags in replies, which both Serve and ServeConcurrent do — so a
// multiplexed C1 can talk to any C2, serial or concurrent.
type Multiplexer struct {
	conn Conn

	sendMu sync.Mutex // serializes writers on the shared link

	mu       sync.Mutex
	sessions map[uint64]*sessionConn // guarded by mu
	nextTag  uint64                  // guarded by mu
	err      error                   // guarded by mu; first link failure, sticky

	agg      Stats // session traffic summed over the link's lifetime
	failOnce sync.Once
	done     chan struct{}
}

// NewMultiplexer wraps conn and starts the routing loop. The Multiplexer
// owns conn from here on: close it via Close, not directly.
func NewMultiplexer(conn Conn) *Multiplexer {
	m := &Multiplexer{
		conn:     conn,
		sessions: make(map[uint64]*sessionConn),
		done:     make(chan struct{}),
	}
	go m.demux()
	return m
}

// demux routes every incoming frame to its session until the link dies.
func (m *Multiplexer) demux() {
	for {
		msg, err := m.conn.Recv()
		if err != nil {
			m.fail(err)
			return
		}
		m.mu.Lock()
		sc, ok := m.sessions[msg.Tag]
		m.mu.Unlock()
		if !ok {
			continue // reply for an already-closed session: drop
		}
		select {
		case sc.recv <- msg:
		default:
			// Overflow means the peer broke the one-reply-per-request
			// discipline for this tag. Fail the session so its pending
			// Recv surfaces ErrConnClosed instead of hanging forever on
			// a silently dropped reply; the other sessions stay alive.
			sc.teardown()
		}
	}
}

// fail records the first link error and wakes every blocked session.
func (m *Multiplexer) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
	m.failOnce.Do(func() { close(m.done) })
}

// Open starts a new logical session stream on the link.
func (m *Multiplexer) Open() (Conn, error) {
	return m.OpenContext(context.Background())
}

// OpenContext starts a new logical session stream bound to ctx: once ctx
// is done, the stream's Send refuses to start another round and a
// blocked Recv gives up waiting (the frame in flight still finishes on
// the responder; its late reply is dropped when the stream closes). Both
// return an error wrapping ErrCanceled and ctx.Err(), and so does
// OpenContext itself on a ctx that is already done, opening nothing.
// This is the transport-level half of query cancellation — every
// protocol round trip crosses a Send/Recv pair, so a canceled query
// aborts within one round no matter which primitive it is inside.
func (m *Multiplexer) OpenContext(ctx context.Context) (Conn, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, m.err
	}
	m.nextTag++
	s := &sessionConn{
		mux:    m,
		tag:    m.nextTag,
		ctx:    ctx,
		recv:   make(chan *Message, sessionBuf),
		closed: make(chan struct{}),
	}
	s.stats.parent = &m.agg
	m.sessions[s.tag] = s
	return s, nil
}

// drop unregisters a session; later frames for its tag are discarded.
func (m *Multiplexer) drop(tag uint64) {
	m.mu.Lock()
	delete(m.sessions, tag)
	m.mu.Unlock()
}

// Conn exposes the underlying physical connection for transport-level
// statistics.
func (m *Multiplexer) Conn() Conn { return m.conn }

// Agg returns the cumulative traffic of every session ever opened on
// this link, including completed request/response round counts (which
// physical transports cannot observe).
func (m *Multiplexer) Agg() StatsSnapshot { return m.agg.Snapshot() }

// Close hangs up: it tells the responder to stop serving (OpClose) if
// no session is mid-Send, closes the physical connection, and every open
// session unblocks with ErrConnClosed. A Send stuck on a peer that
// stopped reading does not hold Close up; closing the link frees it.
func (m *Multiplexer) Close() error {
	var err error
	if m.sendMu.TryLock() {
		err = SendClose(m.conn)
		m.sendMu.Unlock()
	}
	if cerr := m.conn.Close(); err == nil {
		err = cerr
	}
	m.fail(ErrConnClosed)
	return err
}

// sessionConn is one logical stream of a Multiplexer.
type sessionConn struct {
	mux   *Multiplexer
	tag   uint64
	ctx   context.Context // never nil; Background() for unbound streams
	recv  chan *Message
	stats Stats

	closeOnce sync.Once
	closed    chan struct{}
}

// ctxErr reports a context's cancellation state as the typed error.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

func (s *sessionConn) Send(msg *Message) error {
	select {
	case <-s.closed:
		return ErrConnClosed
	case <-s.mux.done:
		return ErrConnClosed
	case <-s.ctx.Done():
		return ctxErr(s.ctx)
	default:
	}
	msg.Tag = s.tag
	s.mux.sendMu.Lock()
	err := s.mux.conn.Send(msg)
	s.mux.sendMu.Unlock()
	if err != nil {
		return err
	}
	s.stats.addSend(msg.wireSize())
	return nil
}

func (s *sessionConn) Recv() (*Message, error) {
	// Prefer a reply that already arrived: a race between routing and
	// cancellation should not discard a completed round.
	select {
	case msg := <-s.recv:
		s.stats.addRecv(msg.wireSize())
		return msg, nil
	default:
	}
	select {
	case msg := <-s.recv:
		s.stats.addRecv(msg.wireSize())
		return msg, nil
	case <-s.closed:
		return nil, ErrConnClosed
	case <-s.ctx.Done():
		// Give up waiting; the responder finishes the in-flight frame and
		// its late reply is dropped once the stream closes.
		return nil, ctxErr(s.ctx)
	case <-s.mux.done:
		// Drain a reply that was routed before the link died.
		select {
		case msg := <-s.recv:
			s.stats.addRecv(msg.wireSize())
			return msg, nil
		default:
		}
		return nil, ErrConnClosed
	}
}

// Close ends the logical session only; the physical link stays up for
// the other sessions.
func (s *sessionConn) Close() error {
	s.teardown()
	return nil
}

// teardown ends the session idempotently; also invoked by the
// demultiplexer when the peer floods this tag.
func (s *sessionConn) teardown() {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.mux.drop(s.tag)
	})
}

// Stats returns this session's own traffic counters — the scoping the
// per-query protocol metrics rely on when queries share links.
func (s *sessionConn) Stats() *Stats { return &s.stats }
