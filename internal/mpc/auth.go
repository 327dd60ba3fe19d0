package mpc

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
)

// Connection authentication: a pre-shared-token challenge-response that
// runs before any protocol frame. The SkNN wire protocols were designed
// for links inside one trust domain; the serving tier (gateway, shard,
// and C2 listeners) faces networks where anyone can dial a port, so a
// listener configured with a token refuses to serve a peer that cannot
// prove knowledge of it.
//
// The handshake is two round trips, client-first like every other
// exchange in this stack:
//
//	client → OpAuth [] or [name]        (hello: request a challenge)
//	server → OpAuth [nonce]             (32 random bytes)
//	client → OpAuth [HMAC-SHA256(token, nonce‖name)]
//	server → OpAuth [payload…]          (accepted) or OpError (refused)
//
// C2, shard and gateway listeners run it unnamed: empty hello and
// accept frame, a MAC over the nonce alone. The gateway runs it again
// naming a tenant: the MAC binds the proof to the name too, and the
// accept frame carries the tenant's welcome. An unknown name is
// challenged like a known one and refused only after its proof.
//
// Properties and limits: the token never travels; a recorded transcript
// cannot be replayed against a fresh nonce; the MAC is compared in
// constant time. The scheme authenticates the connection only — frames
// after the handshake are not integrity-protected, so it defends the
// ports (who may consume protocol service), not the links (run them
// over a trusted network or a TLS tunnel; see docs/DEPLOYMENT.md).
// An empty token on both sides disables the unnamed handshake
// entirely, which is the pre-existing same-trust-domain deployment; the
// two sides must agree, since an unauthenticated server treats OpAuth as
// an unknown op and an authenticated one refuses any other first frame.

// OpAuth carries the connection-authentication handshake (see above).
const OpAuth Op = 3

const (
	authNonceLen = 32 // challenge size in bytes
	maxAuthName  = 64 // bytes of the name a hello may claim
)

// ErrAuth reports a failed connection authentication: a missing or
// malformed handshake, or a MAC under the wrong token.
var ErrAuth = errors.New("mpc: connection authentication failed")

// authMAC computes the challenge response: HMAC-SHA256 keyed by the
// token over nonce‖name (the nonce alone for an unnamed hello).
func authMAC(token string, nonce []byte, name string) []byte {
	mac := hmac.New(sha256.New, []byte(token))
	mac.Write(nonce)
	mac.Write([]byte(name))
	return mac.Sum(nil)
}

// fixedBytes reads an element as a width-byte string — a nonce, a MAC.
// big.Int drops leading zero bytes, so the read re-pads them.
func fixedBytes(width int) func(*big.Int) ([]byte, error) {
	return func(v *big.Int) ([]byte, error) {
		if v == nil || v.Sign() < 0 || v.BitLen() > 8*width {
			return nil, fmt.Errorf("not a %d-byte string", width)
		}
		return v.FillBytes(make([]byte, width)), nil
	}
}

// authName reads a hello's name: a positive integer of at most
// maxAuthName bytes, so no leading zero byte.
func authName(v *big.Int) (string, error) {
	if v == nil || v.Sign() <= 0 || v.BitLen() > 8*maxAuthName {
		return "", errors.New("not a name")
	}
	return string(v.Bytes()), nil
}

// AuthServer guards one accepted connection: it runs the responder half
// of the unnamed token handshake and returns nil only for a peer that
// proved knowledge of the token. Any other outcome — wrong first opcode,
// a named hello, bad MAC, transport failure — returns an error wrapping
// ErrAuth; the caller must close the connection and serve nothing. An
// empty token disables the handshake and accepts immediately.
func AuthServer(conn Conn, token string) error {
	if token == "" {
		return nil
	}
	return AuthServerNamed(conn, func(name string) (string, []*big.Int) {
		if name != "" {
			return "", nil
		}
		return token, nil
	})
}

// AuthServerNamed is AuthServer for peers that claim a name. Once the
// proof is in, lookup maps the name ("" for an unnamed hello) to the
// token it must prove and the accept frame's payload; an empty token
// authenticates nobody, so an unknown name is refused like a wrong
// token. The refusal frame names no cause, so a prober learns nothing
// about which step failed.
func AuthServerNamed(conn Conn, lookup func(name string) (token string, accept []*big.Int)) error {
	refuse := func(cause error) error {
		// Best-effort notification; the connection is being dropped
		// either way, so a failed send changes nothing.
		if err := conn.Send(&Message{Op: OpError, Err: "connection refused: authentication required"}); err != nil && !errors.Is(err, ErrConnClosed) {
			return fmt.Errorf("%w: %w (refusal notify failed: %v)", ErrAuth, cause, err)
		}
		return fmt.Errorf("%w: %w", ErrAuth, cause)
	}
	hello, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("%w: reading hello: %w", ErrAuth, err)
	}
	if hello.Op != OpAuth {
		return refuse(fmt.Errorf("first frame is op %d, want OpAuth", hello.Op))
	}
	f := ReadFields(hello.Ints)
	names := ReadRest(f, authName) // none for an unnamed hello
	if f.Err() != nil || len(names) > 1 {
		return refuse(errors.New("malformed hello frame"))
	}
	var name string
	if len(names) == 1 {
		name = names[0]
	}
	nonce := make([]byte, authNonceLen)
	if _, err := rand.Read(nonce); err != nil {
		return fmt.Errorf("mpc: auth nonce: %w", err)
	}
	challenge := &Message{Op: OpAuth, Tag: hello.Tag, Ints: []*big.Int{new(big.Int).SetBytes(nonce)}}
	if err := conn.Send(challenge); err != nil {
		return fmt.Errorf("%w: sending challenge: %w", ErrAuth, err)
	}
	proof, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("%w: reading proof: %w", ErrAuth, err)
	}
	f = ReadFields(proof.Ints)
	mac := Read(f, fixedBytes(sha256.Size))
	if proof.Op != OpAuth || f.Done() != nil {
		return refuse(errors.New("malformed proof frame"))
	}
	token, accept := lookup(name)
	if token == "" || !hmac.Equal(mac, authMAC(token, nonce, name)) {
		return refuse(fmt.Errorf("no token proved for name %q", name))
	}
	if err := conn.Send(&Message{Op: OpAuth, Tag: proof.Tag, Ints: accept}); err != nil {
		return fmt.Errorf("%w: sending acceptance: %w", ErrAuth, err)
	}
	return nil
}

// AuthClient runs the initiator half of the unnamed token handshake on
// a fresh connection. It must be the first exchange on the wire; an
// empty token is a no-op (for talking to listeners that do not require
// one).
func AuthClient(conn Conn, token string) error {
	if token == "" {
		return nil
	}
	_, err := AuthClientNamed(conn, "", token)
	return err
}

// AuthClientNamed runs the initiator half of the handshake claiming
// name ("" for none), whatever the token, and returns the accept frame's
// payload. The name travels as an integer, so one over 64 bytes or with
// a leading zero byte is refused.
func AuthClientNamed(conn Conn, name, token string) ([]*big.Int, error) {
	hello := &Message{Op: OpAuth}
	if name != "" {
		hello.Ints = []*big.Int{new(big.Int).SetBytes([]byte(name))}
	}
	challenge, err := RoundTrip(conn, hello)
	if err != nil {
		return nil, fmt.Errorf("%w: requesting challenge: %w", ErrAuth, err)
	}
	f := ReadFields(challenge.Ints)
	nonce := Read(f, fixedBytes(authNonceLen))
	if err := f.Done(); err != nil {
		return nil, fmt.Errorf("%w: challenge: %w", ErrAuth, err)
	}
	proof := &Message{Op: OpAuth, Ints: []*big.Int{new(big.Int).SetBytes(authMAC(token, nonce, name))}}
	accept, err := RoundTrip(conn, proof)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrAuth, err)
	}
	return accept.Ints, nil
}

// DialAuth dials a listening peer and authenticates with the token
// before returning the connection (an empty token dials plain). On any
// authentication failure the connection is closed and an error
// wrapping ErrAuth returned.
func DialAuth(addr, token string) (Conn, error) {
	conn, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := AuthClient(conn, token); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}
