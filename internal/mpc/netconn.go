package mpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// writeStall bounds one frame's Write: a peer that stops reading costs
// the link's senders this long, not forever.
const writeStall = 30 * time.Second

// ErrPeerStalled reports a frame the peer did not read within writeStall.
// The stream is closed: part of the frame may be on it.
var ErrPeerStalled = errors.New("mpc: peer stopped reading")

// readPayload reads exactly n bytes, growing the buffer in chunks so
// the allocation is proportional to what the peer actually sends, not
// to what its header promises.
func readPayload(r io.Reader, n int) ([]byte, error) {
	const chunk = 64 << 10
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		step := min(n-len(buf), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// netConn is the wire transport: length-prefixed Message frames over any
// io.ReadWriteCloser (in practice a *net.TCPConn) — every link between
// two processes: C1↔C2, coordinator↔shard, client↔gateway.
type netConn struct {
	rwc   io.ReadWriteCloser
	stall time.Duration // writeStall, shorter in tests
	sendM sync.Mutex
	recvM sync.Mutex
	stats Stats
}

// WrapNet turns a byte stream into a message Conn. The returned Conn owns
// rwc and closes it on Close.
func WrapNet(rwc io.ReadWriteCloser) Conn {
	return &netConn{rwc: rwc, stall: writeStall}
}

// Dial connects to a listening peer (C2's daemon) over TCP.
func Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return WrapNet(c), nil
}

func (c *netConn) Send(m *Message) error {
	frame, err := encodeFrame(m)
	if err != nil {
		return err
	}
	c.sendM.Lock()
	defer c.sendM.Unlock()
	if d, ok := c.rwc.(interface{ SetWriteDeadline(time.Time) error }); ok { // every net.Conn
		_ = d.SetWriteDeadline(time.Now().Add(c.stall)) // a dead stream fails the Write below
	}
	if _, err := c.rwc.Write(frame); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			_ = c.rwc.Close() // part of the frame may be out: the stream is beyond repair
			return fmt.Errorf("%w: %d-byte frame not taken in %v", ErrPeerStalled, len(frame), c.stall)
		}
		return streamErr(err)
	}
	c.stats.addSend(m.wireSize())
	return nil
}

func (c *netConn) Recv() (*Message, error) {
	c.recvM.Lock()
	defer c.recvM.Unlock()
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(c.rwc, hdr[:]); err != nil {
		return nil, streamErr(err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrameBytes {
		// The stream is desynchronized beyond repair; the caller must
		// drop the connection.
		return nil, fmt.Errorf("%w: header declares %d bytes", ErrFrameTooBig, n)
	}
	payload, err := readPayload(c.rwc, int(n))
	if err != nil {
		return nil, streamErr(err)
	}
	m, err := decodeFrame(payload)
	if err != nil {
		return nil, err
	}
	c.stats.addRecv(m.wireSize())
	return m, nil
}

// streamErr folds the stream-teardown error family into ErrConnClosed.
func streamErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return ErrConnClosed
	}
	return err
}

func (c *netConn) Close() error  { return c.rwc.Close() }
func (c *netConn) Stats() *Stats { return &c.stats }
