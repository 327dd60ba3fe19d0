package mpc

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"testing"
	"time"
)

// echoMux returns a handler that echoes OpPing payloads, optionally
// stalling so concurrent dispatch and reply reordering get exercised.
func echoMux(delay func(*Message) time.Duration) Handler {
	m := NewMux()
	if delay == nil {
		return m
	}
	return HandlerFunc(func(req *Message) (*Message, error) {
		time.Sleep(delay(req))
		return m.Handle(req)
	})
}

// TestMultiplexerInterleavedSessions drives many sessions over one link
// concurrently and checks every reply lands in the session that asked.
func TestMultiplexerInterleavedSessions(t *testing.T) {
	a, b := ChanPipe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- Serve(b, echoMux(nil)) }()

	mux := NewMultiplexer(a)
	const sessions, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for sid := 0; sid < sessions; sid++ {
		conn, err := mux.Open()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(sid int, conn Conn) {
			defer wg.Done()
			defer conn.Close()
			for r := 0; r < rounds; r++ {
				want := int64(sid*1000 + r)
				resp, err := RoundTrip(conn, &Message{Op: OpPing, Ints: []*big.Int{big.NewInt(want)}})
				if err != nil {
					errs[sid] = err
					return
				}
				if len(resp.Ints) != 1 || resp.Ints[0].Int64() != want {
					errs[sid] = fmt.Errorf("session %d round %d: got %v, want %d", sid, r, resp.Ints, want)
					return
				}
			}
		}(sid, conn)
	}
	wg.Wait()
	for sid, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", sid, err)
		}
	}
	if mux.Agg().Rounds != sessions*rounds {
		t.Errorf("aggregate rounds = %d, want %d", mux.Agg().Rounds, sessions*rounds)
	}
	if err := SendClose(mux.Conn()); err != nil {
		t.Fatal(err)
	}
	if err := mux.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestServeConcurrentReordersSafely makes early requests slow so later
// replies overtake them on the wire; tags must still route each reply to
// its own session.
func TestServeConcurrentReordersSafely(t *testing.T) {
	a, b := ChanPipe()
	// First-tagged session's requests stall; later sessions answer fast.
	handler := echoMux(func(req *Message) time.Duration {
		if req.Tag == 1 {
			return 30 * time.Millisecond
		}
		return 0
	})
	serveDone := make(chan error, 1)
	go func() { serveDone <- ServeConcurrent(b, handler, 4) }()

	mux := NewMultiplexer(a)
	slow, err := mux.Open()
	if err != nil {
		t.Fatal(err)
	}
	fast, err := mux.Open()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var slowErr, fastErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		resp, err := RoundTrip(slow, &Message{Op: OpPing, Ints: []*big.Int{big.NewInt(111)}})
		if err == nil && resp.Ints[0].Int64() != 111 {
			err = fmt.Errorf("slow got %v", resp.Ints)
		}
		slowErr = err
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			resp, err := RoundTrip(fast, &Message{Op: OpPing, Ints: []*big.Int{big.NewInt(int64(i))}})
			if err == nil && resp.Ints[0].Int64() != int64(i) {
				err = fmt.Errorf("fast round %d got %v", i, resp.Ints)
			}
			if err != nil {
				fastErr = err
				return
			}
		}
	}()
	wg.Wait()
	if slowErr != nil || fastErr != nil {
		t.Fatalf("slow=%v fast=%v", slowErr, fastErr)
	}
	SendClose(mux.Conn())
	mux.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestServeConcurrentErrorReplies checks handler errors come back as
// tagged OpError frames on the right session.
func TestServeConcurrentErrorReplies(t *testing.T) {
	a, b := ChanPipe()
	handler := HandlerFunc(func(req *Message) (*Message, error) {
		if len(req.Ints) > 0 && req.Ints[0].Sign() < 0 {
			return nil, errors.New("negative payload")
		}
		return &Message{Op: req.Op, Ints: req.Ints}, nil
	})
	go ServeConcurrent(b, handler, 3)

	mux := NewMultiplexer(a)
	conn, err := mux.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RoundTrip(conn, &Message{Op: OpPing, Ints: []*big.Int{big.NewInt(-1)}}); err == nil {
		t.Fatal("expected remote error")
	} else {
		var remote *RemoteError
		if !errors.As(err, &remote) {
			t.Fatalf("error type %T: %v", err, err)
		}
	}
	// The session still works after a remote error.
	resp, err := RoundTrip(conn, &Message{Op: OpPing, Ints: []*big.Int{big.NewInt(7)}})
	if err != nil || resp.Ints[0].Int64() != 7 {
		t.Fatalf("post-error round trip: %v %v", resp, err)
	}
	SendClose(mux.Conn())
	mux.Close()
}

// TestMultiplexerClose checks close semantics: sessions unblock with
// ErrConnClosed, Open fails afterwards, and closing a session leaves the
// link usable for the others.
func TestMultiplexerClose(t *testing.T) {
	a, b := ChanPipe()
	served := make(chan error, 1)
	go func() { served <- Serve(b, NewMux()) }()

	var mu sync.Mutex
	var lastSent Op
	mux := NewMultiplexer(Tap(a, func(d Direction, m *Message) {
		if d == DirSend {
			mu.Lock()
			lastSent = m.Op
			mu.Unlock()
		}
	}))
	s1, err := mux.Open()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := mux.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := RoundTrip(s1, &Message{Op: OpPing}); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("closed session round trip = %v, want ErrConnClosed", err)
	}
	if _, err := RoundTrip(s2, &Message{Op: OpPing}); err != nil {
		t.Fatalf("sibling session broken by close: %v", err)
	}

	recvDone := make(chan error, 1)
	go func() {
		_, err := s2.Recv()
		recvDone <- err
	}()
	if err := mux.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if lastSent != OpClose {
		t.Errorf("last frame before hanging up was op %d, want OpClose", lastSent)
	}
	mu.Unlock()
	if err := <-served; err != nil {
		t.Errorf("serve loop after the hang-up: %v", err)
	}
	if err := <-recvDone; !errors.Is(err, ErrConnClosed) {
		t.Fatalf("blocked Recv after mux close = %v, want ErrConnClosed", err)
	}
	if _, err := mux.Open(); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Open after close = %v, want ErrConnClosed", err)
	}
	if err := s2.Send(&Message{Op: OpPing}); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Send after mux close = %v, want ErrConnClosed", err)
	}
}

// TestMultiplexerCloseFreesStuckSend: a session Send blocked on a peer
// that stopped reading neither holds Close up nor outlives it.
func TestMultiplexerCloseFreesStuckSend(t *testing.T) {
	a, b := net.Pipe() // synchronous: a Write waits for the peer's Read
	defer b.Close()
	mux := NewMultiplexer(WrapNet(a))
	s, err := mux.Open()
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() { sent <- s.Send(&Message{Op: OpPing}) }()
	for deadline := time.Now().Add(time.Second); mux.sendMu.TryLock(); { // wait until the Send holds the link
		mux.sendMu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("Send never took the link")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() { mux.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still blocked 1 s behind a stuck Send")
	}
	select {
	case err := <-sent:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("stuck Send after Close = %v, want ErrConnClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Send still blocked 1 s after Close")
	}
}

// TestFloodedSessionFailsInsteadOfHanging sends more unsolicited frames
// for one tag than the session buffer holds: the flooded session must
// surface ErrConnClosed (not hang on a silently dropped reply) while a
// sibling session keeps working. The flooded session reads only once a
// marker sent on the sibling's tag after the flood has arrived: the
// demultiplexer routes in order, so by then the whole flood has been
// routed and the buffer has overflowed — a reader draining it while the
// flood is still being routed would keep it from ever overflowing.
func TestFloodedSessionFailsInsteadOfHanging(t *testing.T) {
	a, b := ChanPipe()
	mux := NewMultiplexer(a)
	flooded, err := mux.Open()
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := mux.Open()
	if err != nil {
		t.Fatal(err)
	}

	// The "peer" floods the first session's tag, then serves normally.
	for i := 0; i < sessionBuf+2; i++ {
		if err := b.Send(&Message{Op: OpPing, Tag: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Send(&Message{Op: OpPing, Tag: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := sibling.Recv(); err != nil {
		t.Fatalf("sibling marker: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- Serve(b, NewMux()) }()

	recvDone := make(chan error, 1)
	go func() {
		for {
			if _, err := flooded.Recv(); err != nil {
				recvDone <- err
				return
			}
		}
	}()
	select {
	case err := <-recvDone:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("flooded session Recv = %v, want ErrConnClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flooded session hung instead of failing")
	}
	if _, err := RoundTrip(sibling, &Message{Op: OpPing, Ints: []*big.Int{big.NewInt(5)}}); err != nil {
		t.Fatalf("sibling session broken by flood: %v", err)
	}
	SendClose(mux.Conn())
	mux.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestSessionStatsScoping checks per-session counters stay separate
// while the link aggregate sums them.
func TestSessionStatsScoping(t *testing.T) {
	a, b := ChanPipe()
	go Serve(b, NewMux())
	mux := NewMultiplexer(a)
	s1, _ := mux.Open()
	s2, _ := mux.Open()
	for i := 0; i < 3; i++ {
		if _, err := RoundTrip(s1, &Message{Op: OpPing, Ints: []*big.Int{big.NewInt(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RoundTrip(s2, &Message{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	if got := s1.Stats().Rounds(); got != 3 {
		t.Errorf("s1 rounds = %d, want 3", got)
	}
	if got := s2.Stats().Rounds(); got != 1 {
		t.Errorf("s2 rounds = %d, want 1", got)
	}
	agg := mux.Agg()
	if agg.Rounds != 4 {
		t.Errorf("aggregate rounds = %d, want 4", agg.Rounds)
	}
	if agg.BytesSent != s1.Stats().BytesSent()+s2.Stats().BytesSent() {
		t.Errorf("aggregate bytes %d != session sum", agg.BytesSent)
	}
	SendClose(mux.Conn())
	mux.Close()
}

// TestOpenContextCancellation pins the transport half of query
// cancellation: a ctx-bound stream refuses new sends once the context
// dies, a blocked Recv gives up, and both report ErrCanceled wrapping
// the context's own error. A sibling stream on the same link is
// unaffected.
func TestOpenContextCancellation(t *testing.T) {
	a, b := ChanPipe()
	release := make(chan struct{})
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- Serve(b, echoMux(func(m *Message) time.Duration {
			if len(m.Ints) > 0 && m.Ints[0].Int64() == 99 {
				<-release // stall this request until the test releases it
			}
			return 0
		}))
	}()
	mux := NewMultiplexer(a)

	ctx, cancel := context.WithCancel(context.Background())
	bound, err := mux.OpenContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	free, err := mux.Open()
	if err != nil {
		t.Fatal(err)
	}

	// Park the bound stream on a stalled request, then cancel: Recv must
	// give up without waiting for the responder.
	if err := bound.Send(&Message{Op: OpPing, Ints: []*big.Int{big.NewInt(99)}}); err != nil {
		t.Fatal(err)
	}
	recvErr := make(chan error, 1)
	go func() {
		_, err := bound.Recv()
		recvErr <- err
	}()
	cancel()
	select {
	case err := <-recvErr:
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("Recv after cancel = %v, want ErrCanceled wrapping context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv ignored the canceled context")
	}
	// New rounds on the bound stream must refuse to start.
	if err := bound.Send(&Message{Op: OpPing}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Send after cancel = %v, want ErrCanceled", err)
	}

	// Release the stalled handler (the serial serve loop processes one
	// request at a time); its late reply is dropped, and the sibling
	// stream — whose context is alive — still round-trips fine:
	// cancellation is per session, not per link.
	close(release)
	if _, err := RoundTrip(free, &Message{Op: OpPing, Ints: []*big.Int{big.NewInt(1)}}); err != nil {
		t.Fatalf("sibling stream broken by cancellation: %v", err)
	}

	bound.Close()
	free.Close()
	SendClose(mux.Conn())
	if err := mux.Close(); err != nil {
		t.Fatal(err)
	}
	<-serveDone
}

// TestOpenContextDeliversReadyReply checks the race preference: a reply
// already routed to the session is delivered even if the context died
// in the meantime — a completed round is never thrown away.
func TestOpenContextDeliversReadyReply(t *testing.T) {
	a, b := ChanPipe()
	go func() { _ = Serve(b, echoMux(nil)) }()
	mux := NewMultiplexer(a)

	ctx, cancel := context.WithCancel(context.Background())
	conn, err := mux.OpenContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&Message{Op: OpPing, Ints: []*big.Int{big.NewInt(7)}}); err != nil {
		t.Fatal(err)
	}
	// Give the echo time to route the reply into the session buffer,
	// then cancel before Recv.
	time.Sleep(50 * time.Millisecond)
	cancel()
	msg, err := conn.Recv()
	if err != nil {
		t.Fatalf("Recv = %v, want the already-routed reply", err)
	}
	if len(msg.Ints) != 1 || msg.Ints[0].Int64() != 7 {
		t.Fatalf("reply payload = %v", msg.Ints)
	}
	conn.Close()
	SendClose(mux.Conn())
	mux.Close()
}

// TestOpenContextRefusesDoneContext: a stream is never opened for a
// context that is already done, so a canceled query takes no tag and
// sends nothing.
func TestOpenContextRefusesDoneContext(t *testing.T) {
	a, b := ChanPipe()
	defer b.Close()
	mux := NewMultiplexer(a)
	defer mux.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	conn, err := mux.OpenContext(ctx)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("OpenContext on a canceled context = %v, %v; want ErrCanceled wrapping context.Canceled", conn, err)
	}
	mux.mu.Lock()
	open := len(mux.sessions)
	mux.mu.Unlock()
	if open != 0 {
		t.Fatalf("%d sessions registered for a refused stream", open)
	}
}
