// Package mpc provides the two-party protocol runtime the SkNN protocols
// run on: a typed message frame, transports (in-process channels for tests
// and benchmarks, length-prefixed binary frames over TCP for real
// deployments — frame.go), per-connection traffic accounting, and a
// request/response dispatch loop for the party holding the secret key
// (C2 in the paper).
//
// The paper's protocols are strictly client-driven: C1 (the data cloud)
// initiates every exchange and C2 (the key cloud) only ever answers. That
// maps onto a simple request/response discipline: C1 calls RoundTrip, C2
// runs Serve with a Mux of op handlers.
package mpc

import (
	"errors"
	"fmt"
	"math/big"
)

// Op identifies the protocol step a message belongs to. Opcodes 0-15 are
// reserved by this package; internal/smc and internal/core define their
// own ranges (16+ and 64+ respectively).
type Op uint16

const (
	// OpClose asks the responder to finish serving this connection.
	OpClose Op = 0
	// OpError carries a responder-side failure back to the requester.
	OpError Op = 1
	// OpPing is a liveness/debug no-op; the responder echoes the payload.
	OpPing Op = 2
)

// Message is the single frame type exchanged between the two parties.
// Every protocol value — ciphertexts, permuted vectors, plaintext bits —
// is a big.Int, so one homogeneous payload suffices and keeps transports
// trivial.
type Message struct {
	Op Op
	// Tag identifies the logical session a frame belongs to when several
	// protocol sessions multiplex one physical connection (see
	// Multiplexer). Tag 0 is the untagged/link-level stream; responders
	// must echo the request's tag in the reply so the requester side can
	// route interleaved replies back to their sessions.
	Tag uint64
	// Ints is the payload. Every transport hands the receiver values of
	// its own — the socket decodes fresh ones, ChanPipe deep-copies on
	// Send (TestChanPipeDeepCopies) — so a sender may reuse its values
	// once Send returns. A reply may carry request elements on (the ping
	// echoes them), so receivers treat elements as read-only.
	Ints []*big.Int
	// Err carries an error string when Op == OpError.
	Err string
}

// Clone deep-copies a message, used by the channel transport so the two
// parties never alias mutable big.Int values.
func (m *Message) Clone() *Message {
	c := &Message{Op: m.Op, Tag: m.Tag, Err: m.Err}
	if m.Ints != nil {
		c.Ints = make([]*big.Int, len(m.Ints))
		for i, v := range m.Ints {
			if v != nil {
				c.Ints[i] = new(big.Int).Set(v)
			}
		}
	}
	return c
}

// wireSize estimates the serialized size of the message in bytes:
// 2 bytes of opcode, a 4-byte vector length, and length-prefixed
// big-endian integers. The wire transport (frame.go) is within a few
// percent of this — it adds a version byte, an always-present tag and an
// error length, about 4 % on a SkNNm query — and both transports use it
// for accounting, so protocol byte counts do not depend on the link.
func (m *Message) wireSize() int {
	n := 2 + 4 + len(m.Err)
	if m.Tag != 0 {
		n += 8
	}
	for _, v := range m.Ints {
		n += 4
		if v != nil {
			n += (v.BitLen() + 7) / 8
		}
	}
	return n
}

// Conn is a bidirectional, ordered message pipe between the two parties.
// Implementations must be safe for one concurrent sender and one
// concurrent receiver (full-duplex), but Send and Recv individually are
// not required to be re-entrant.
type Conn interface {
	Send(*Message) error
	Recv() (*Message, error)
	Close() error
	// Stats returns the live traffic counters for this connection.
	Stats() *Stats
}

// Errors returned by transports and the dispatch loop.
var (
	ErrConnClosed  = errors.New("mpc: connection closed")
	ErrUnknownOp   = errors.New("mpc: unknown opcode")
	ErrBadResponse = errors.New("mpc: unexpected response opcode")
)

// ErrCanceled is returned once a canceled or expired context stops a
// protocol exchange: the frame in flight is allowed to finish, every
// subsequent round aborts. Errors carrying it always wrap the context's
// own error as well, so both errors.Is(err, ErrCanceled) and
// errors.Is(err, context.Canceled) (or context.DeadlineExceeded) hold.
// Higher layers (internal/core, the sknn facade) re-export this same
// sentinel, so a cancellation is recognizable wherever it surfaces.
var ErrCanceled = errors.New("mpc: exchange canceled")

// RemoteError is an error that occurred on the responder and was carried
// back over the wire in an OpError frame.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "mpc: remote error: " + e.Msg }

// RoundTrip sends a request and waits for its reply, converting OpError
// frames into *RemoteError and verifying the reply opcode matches the
// request. It also bumps the connection's round counter — "rounds" in the
// communication-complexity sense of the paper.
func RoundTrip(c Conn, req *Message) (*Message, error) {
	if err := c.Send(req); err != nil {
		return nil, fmt.Errorf("mpc: send op %d: %w", req.Op, err)
	}
	resp, err := c.Recv()
	if err != nil {
		return nil, fmt.Errorf("mpc: recv reply to op %d: %w", req.Op, err)
	}
	c.Stats().addRound()
	if resp.Op == OpError {
		return nil, &RemoteError{Msg: resp.Err}
	}
	if resp.Op != req.Op {
		return nil, fmt.Errorf("%w: sent %d, got %d", ErrBadResponse, req.Op, resp.Op)
	}
	return resp, nil
}
