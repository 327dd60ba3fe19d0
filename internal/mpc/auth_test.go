package mpc

import (
	"encoding/hex"
	"errors"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"
)

// authPair runs the two handshake halves concurrently over a ChanPipe
// and returns both outcomes.
func authPair(t *testing.T, clientToken, serverToken string) (clientErr, serverErr error) {
	t.Helper()
	a, b := ChanPipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- AuthServer(b, serverToken) }()
	clientErr = AuthClient(a, clientToken)
	serverErr = <-done
	return clientErr, serverErr
}

func TestAuthHandshake(t *testing.T) {
	cErr, sErr := authPair(t, "hunter2", "hunter2")
	if cErr != nil || sErr != nil {
		t.Fatalf("matching tokens: client=%v server=%v", cErr, sErr)
	}
}

func TestAuthWrongTokenRefused(t *testing.T) {
	cErr, sErr := authPair(t, "wrong", "hunter2")
	if !errors.Is(sErr, ErrAuth) {
		t.Errorf("server error = %v, want ErrAuth", sErr)
	}
	if !errors.Is(cErr, ErrAuth) {
		t.Errorf("client error = %v, want ErrAuth", cErr)
	}
	var remote *RemoteError
	if !errors.As(cErr, &remote) {
		t.Errorf("client error %v does not carry the server's refusal", cErr)
	}
}

func TestAuthEmptyTokenDisabled(t *testing.T) {
	a, b := ChanPipe()
	defer a.Close()
	defer b.Close()
	if err := AuthServer(b, ""); err != nil {
		t.Errorf("empty-token server = %v, want nil without touching the conn", err)
	}
	if err := AuthClient(a, ""); err != nil {
		t.Errorf("empty-token client = %v, want nil", err)
	}
	// The disabled handshake must not have consumed or emitted frames.
	go a.Send(msg(OpPing, 7))
	got, err := b.Recv()
	if err != nil || got.Op != OpPing {
		t.Errorf("first frame after disabled handshake = %v, %v; want the ping", got, err)
	}
}

func TestAuthNonAuthHelloRefused(t *testing.T) {
	a, b := ChanPipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- AuthServer(b, "hunter2") }()
	// A peer that skips the handshake and speaks protocol immediately.
	if err := a.Send(msg(OpPing)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrAuth) {
		t.Errorf("server error = %v, want ErrAuth", err)
	}
	refusal, err := a.Recv()
	if err != nil || refusal.Op != OpError {
		t.Errorf("peer sees %v, %v; want an OpError refusal", refusal, err)
	}
}

func TestAuthMalformedProofRefused(t *testing.T) {
	a, b := ChanPipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- AuthServer(b, "hunter2") }()
	if _, err := RoundTrip(a, &Message{Op: OpAuth}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&Message{Op: OpAuth, Ints: []*big.Int{big.NewInt(1), big.NewInt(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrAuth) {
		t.Errorf("server error = %v, want ErrAuth", err)
	}
}

// TestAuthMalformedHelloAndChallenge: a hello that is not at most one
// name, and a challenge that is not one 32-byte nonce, end the handshake
// with ErrAuth on the side that reads them — nil elements included,
// which an in-process peer can send — and a refused hello gets the
// uniform refusal frame.
func TestAuthMalformedHelloAndChallenge(t *testing.T) {
	name := new(big.Int).SetBytes([]byte("alpha"))
	for label, ints := range map[string][]*big.Int{
		"nil":       {nil},
		"two names": {name, name},
		"zero":      {new(big.Int)},
		"negative":  {big.NewInt(-5)},
		"long name": {new(big.Int).Lsh(big.NewInt(1), 8*maxAuthName)},
	} {
		a, b := ChanPipe()
		done := make(chan error, 1)
		go func() { done <- AuthServer(b, "hunter2") }()
		refusal, err := RoundTrip(a, &Message{Op: OpAuth, Ints: ints})
		var remote *RemoteError
		if !errors.As(err, &remote) || refusal != nil {
			t.Errorf("hello %s: answered %v, %v; want the refusal frame", label, refusal, err)
		}
		if err := <-done; !errors.Is(err, ErrAuth) {
			t.Errorf("hello %s: server = %v, want ErrAuth", label, err)
		}
		a.Close()
		b.Close()
	}
	for label, ints := range map[string][]*big.Int{
		"none":       nil,
		"nil":        {nil},
		"negative":   {big.NewInt(-1)},
		"33 bytes":   {new(big.Int).Lsh(big.NewInt(1), 8*authNonceLen)},
		"two nonces": {big.NewInt(1), big.NewInt(2)},
	} {
		a, b := ChanPipe()
		go func() {
			if hello, err := b.Recv(); err == nil {
				_ = b.Send(&Message{Op: OpAuth, Tag: hello.Tag, Ints: ints})
			}
		}()
		if _, err := AuthClientNamed(a, "", "hunter2"); !errors.Is(err, ErrAuth) || !errors.Is(err, ErrBadFrame) {
			t.Errorf("challenge %s: client = %v, want ErrAuth and ErrBadFrame", label, err)
		}
		a.Close()
		b.Close()
	}
}

func TestAuthMACPadding(t *testing.T) {
	// A MAC with leading zero bytes shrinks on the wire (big.Int drops
	// them); fixedBytes must re-pad so verification still matches.
	read := fixedBytes(32)
	short := new(big.Int).SetBytes([]byte{0x05})
	got, err := read(short)
	if err != nil || len(got) != 32 || got[31] != 0x05 || got[0] != 0 {
		t.Errorf("fixedBytes = %x, %v; want 31 zero bytes then 05", got, err)
	}
	for _, bad := range []*big.Int{nil, big.NewInt(-1), new(big.Int).Lsh(big.NewInt(1), 257)} {
		if out, err := read(bad); err == nil {
			t.Errorf("fixedBytes(%v) = %x, want a refusal", bad, out)
		}
	}
}

// TestAuthMACGolden pins the MAC bytes: unnamed it is HMAC-SHA256(token,
// nonce), the proof every C2, shard and gateway listener has always
// checked; named it covers nonce‖name.
func TestAuthMACGolden(t *testing.T) {
	nonce := make([]byte, authNonceLen)
	for i := range nonce {
		nonce[i] = byte(i)
	}
	for _, c := range []struct{ name, want string }{
		{"", "d02bd90acc833a23b104946538a0155a630ad99ff5a86a6a56f9335a9ce7c373"},
		{"alpha", "2c2894cf388518008ab3d559d67eef8dee2135c53b471c3673a72d234e8b8650"},
	} {
		if got := hex.EncodeToString(authMAC("hunter2", nonce, c.name)); got != c.want {
			t.Errorf("authMAC(hunter2, 00..1f, %q) = %s, want %s", c.name, got, c.want)
		}
	}
}

// namedServer runs AuthServerNamed over a ChanPipe against a lookup of
// alpha and beta sharing one token, each welcomed with its own payload,
// and returns the client end and the server's outcome.
func namedServer(t *testing.T) (Conn, chan error) {
	t.Helper()
	a, b := ChanPipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	done := make(chan error, 1)
	go func() {
		done <- AuthServerNamed(b, func(name string) (string, []*big.Int) {
			switch name {
			case "alpha":
				return "shared", []*big.Int{big.NewInt(1)}
			case "beta":
				return "shared", []*big.Int{big.NewInt(2)}
			case "blank":
				return "", []*big.Int{big.NewInt(3)}
			}
			return "", nil
		})
	}()
	return a, done
}

func TestAuthNamedAccepts(t *testing.T) {
	a, done := namedServer(t)
	accept, err := AuthClientNamed(a, "beta", "shared")
	if err != nil || len(accept) != 1 || accept[0].Int64() != 2 {
		t.Fatalf("beta's handshake = %v, %v; want the accept payload [2]", accept, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server = %v", err)
	}
}

// TestAuthNameBoundIntoMAC: a proof computed for alpha, presented after
// a hello naming beta under the same token, is refused.
func TestAuthNameBoundIntoMAC(t *testing.T) {
	a, done := namedServer(t)
	challenge, err := RoundTrip(a, &Message{Op: OpAuth, Ints: []*big.Int{new(big.Int).SetBytes([]byte("beta"))}})
	if err != nil || len(challenge.Ints) != 1 {
		t.Fatalf("challenge = %v, %v", challenge, err)
	}
	nonce := make([]byte, authNonceLen)
	challenge.Ints[0].FillBytes(nonce)
	proof := &Message{Op: OpAuth, Ints: []*big.Int{new(big.Int).SetBytes(authMAC("shared", nonce, "alpha"))}}
	var remote *RemoteError
	if _, err := RoundTrip(a, proof); !errors.As(err, &remote) || !strings.Contains(err.Error(), "authentication required") {
		t.Errorf("alpha's proof under beta's hello = %v, want the uniform refusal", err)
	}
	if err := <-done; !errors.Is(err, ErrAuth) {
		t.Errorf("server = %v, want ErrAuth", err)
	}
}

// TestAuthNamedRefusals: an unknown name, an empty token and a named
// hello at an unnamed listener are each refused after the proof with
// the uniform frame.
func TestAuthNamedRefusals(t *testing.T) {
	for _, c := range []struct{ name, token string }{{"nosuch", "shared"}, {"blank", ""}} {
		a, done := namedServer(t)
		if _, err := AuthClientNamed(a, c.name, c.token); !errors.Is(err, ErrAuth) ||
			!strings.Contains(err.Error(), "authentication required") {
			t.Errorf("%s: client = %v, want the uniform refusal", c.name, err)
		}
		if err := <-done; !errors.Is(err, ErrAuth) {
			t.Errorf("%s: server = %v, want ErrAuth", c.name, err)
		}
	}
	a, b := ChanPipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- AuthServer(b, "hunter2") }()
	if _, err := AuthClientNamed(a, "alpha", "hunter2"); !errors.Is(err, ErrAuth) {
		t.Errorf("named hello at an unnamed listener: client = %v, want ErrAuth", err)
	}
	if err := <-done; !errors.Is(err, ErrAuth) {
		t.Errorf("named hello at an unnamed listener: server = %v, want ErrAuth", err)
	}
}

func TestDialAuth(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const token = "secret"
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				conn := WrapNet(nc)
				if err := AuthServer(conn, token); err != nil {
					conn.Close()
					return
				}
				Serve(conn, NewMux())
				conn.Close()
			}(nc)
		}
	}()

	conn, err := DialAuth(ln.Addr().String(), token)
	if err != nil {
		t.Fatalf("DialAuth with right token: %v", err)
	}
	if _, err := RoundTrip(conn, msg(OpPing, 42)); err != nil {
		t.Errorf("authenticated round trip: %v", err)
	}
	SendClose(conn)
	conn.Close()

	if _, err := DialAuth(ln.Addr().String(), "not-the-token"); !errors.Is(err, ErrAuth) {
		t.Errorf("DialAuth with wrong token = %v, want ErrAuth", err)
	}

	// A tokenless client dialing a tokened listener is refused before any
	// protocol frame is served.
	plain, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := RoundTrip(plain, msg(OpPing, 1)); err == nil {
		t.Error("unauthenticated round trip succeeded, want refusal")
	}
}

func TestRateLimit(t *testing.T) {
	a, b := ChanPipe()
	defer a.Close()
	defer b.Close()

	var slept time.Duration
	clock := time.Unix(0, 0)
	lim := RateLimit(b, 10, 2).(*limitedConn)
	lim.now = func() time.Time { return clock }
	lim.sleep = func(d time.Duration) { slept += d; clock = clock.Add(d) }

	for i := 0; i < 4; i++ {
		if err := a.Send(msg(OpPing, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Burst of 2 admits two frames free; the next two owe 100ms each.
	for i := 0; i < 4; i++ {
		if _, err := lim.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if want := 200 * time.Millisecond; slept != want {
		t.Errorf("slept %v over 4 recvs at 10/s burst 2, want %v", slept, want)
	}

	// A long idle period refills only to the burst cap.
	clock = clock.Add(time.Hour)
	slept = 0
	for i := 0; i < 3; i++ {
		if err := a.Send(msg(OpPing, int64(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := lim.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if want := 100 * time.Millisecond; slept != want {
		t.Errorf("slept %v after idle refill, want %v (burst capped at 2)", slept, want)
	}
}

func TestRateLimitDisabled(t *testing.T) {
	a, _ := ChanPipe()
	defer a.Close()
	if got := RateLimit(a, 0, 5); got != a {
		t.Errorf("RateLimit(perSec=0) = %T, want the conn unchanged", got)
	}
}
