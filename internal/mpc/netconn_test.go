package mpc

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"net"
	"runtime"
	"testing"
	"time"
)

// mustFrame encodes m and splits the frame into header and payload.
func mustFrame(tb testing.TB, m *Message) (frame, payload []byte) {
	tb.Helper()
	frame, err := encodeFrame(m)
	if err != nil {
		tb.Fatalf("encodeFrame: %v", err)
	}
	if n := binary.BigEndian.Uint32(frame); int(n) != len(frame)-frameHeaderLen {
		tb.Fatalf("header declares %d bytes, frame carries %d", n, len(frame)-frameHeaderLen)
	}
	return frame, frame[frameHeaderLen:]
}

// threeInts is the valid frame the truncation and hostile cases start
// from: a positive, a negative and a multi-word integer.
func threeInts() *Message {
	return &Message{Op: Op(64), Tag: 3, Ints: []*big.Int{big.NewInt(12345), big.NewInt(-7), new(big.Int).Lsh(big.NewInt(1), 200)}}
}

// gobFrame is a Message{Op: 64, Tag: 3, Ints: [12345, -7]} as the gob
// transport of earlier builds put it on the wire (captured at the parent
// of the commit that retired gob) — the foreign format a mixed fleet
// would deliver.
var gobFrame, _ = hex.DecodeString("357f030101074d65737361676501ff8000010401024f7001060001035461670106000104496e747301ff84000103457272010c00000019ff830201010a5b5d2a6269672e496e7401ff840001ff8200000aff81050102ff8600000010ff800140010301020302303902030700")

type hostileFrame struct {
	name    string
	payload []byte
}

// hostileFrames are payloads decodeFrame must reject before allocating
// anything for them, built by editing threeInts' encoding.
func hostileFrames(tb testing.TB) []hostileFrame {
	_, valid := mustFrame(tb, threeInts())
	edit := func(f func(p []byte) []byte) []byte { return f(bytes.Clone(valid)) }
	const count, first = fixedLen - 4, fixedLen // offsets with an empty Err
	return []hostileFrame{
		{"count 2^32-1", edit(func(p []byte) []byte {
			binary.BigEndian.PutUint32(p[count:], 1<<32-1)
			return p
		})},
		{"count above remaining/4", edit(func(p []byte) []byte {
			binary.BigEndian.PutUint32(p[count:], uint32(len(p)-first)/4+1)
			return p
		})},
		{"count one short", edit(func(p []byte) []byte {
			binary.BigEndian.PutUint32(p[count:], 2)
			return p
		})},
		{"count one over", edit(func(p []byte) []byte {
			binary.BigEndian.PutUint32(p[count:], 4)
			return p
		})},
		{"over-long element", edit(func(p []byte) []byte {
			binary.BigEndian.PutUint32(p[first:], uint32(len(p)))
			return p
		})},
		{"element length 2^31-1", edit(func(p []byte) []byte {
			binary.BigEndian.PutUint32(p[first:], 1<<31-1)
			return p
		})},
		{"err length past payload", edit(func(p []byte) []byte {
			binary.BigEndian.PutUint32(p[count-4:], uint32(len(p)))
			return p
		})},
		{"err length 2^32-1", edit(func(p []byte) []byte {
			binary.BigEndian.PutUint32(p[count-4:], 1<<32-1)
			return p
		})},
		{"trailing garbage", edit(func(p []byte) []byte { return append(p, 0xde, 0xad) })},
		{"sign bit on zero length", edit(func(p []byte) []byte {
			return append(p[:first], 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
		})},
		{"leading zero byte", edit(func(p []byte) []byte {
			p[first+4] = 0
			return p
		})},
		{"gob frame", gobFrame},
	}
}

// TestFrameRoundTrip pins the codec as a property: every combination of
// header fields and integer shapes decodes back equal, and the decoded
// integers — which share one slab — do not alias each other.
func TestFrameRoundTrip(t *testing.T) {
	wide := new(big.Int).Lsh(big.NewInt(0xabcdef), 8192-24)
	shapes := [][]*big.Int{
		nil,
		{},
		{big.NewInt(0)},
		{big.NewInt(1), big.NewInt(-1)},
		{new(big.Int).Lsh(big.NewInt(1), 63), big.NewInt(0), new(big.Int).Neg(wide)},
		{wide, big.NewInt(42), new(big.Int).Lsh(big.NewInt(1), 2048), big.NewInt(0), big.NewInt(-255)},
	}
	for _, op := range []Op{OpClose, OpPing, OpError, 64, 1<<16 - 1} {
		for _, tag := range []uint64{0, 7, 1<<64 - 1} {
			for _, errText := range []string{"", "boom", string(make([]byte, 300))} {
				for _, ints := range shapes {
					m := &Message{Op: op, Tag: tag, Err: errText, Ints: ints}
					_, payload := mustFrame(t, m)
					got, err := decodeFrame(payload)
					if err != nil {
						t.Fatalf("decodeFrame(%+v): %v", m, err)
					}
					if got.Op != m.Op || got.Tag != m.Tag || got.Err != m.Err || len(got.Ints) != len(m.Ints) {
						t.Fatalf("round trip: got %+v, want %+v", got, m)
					}
					for i := range m.Ints {
						if got.Ints[i] == nil || got.Ints[i].Cmp(m.Ints[i]) != 0 {
							t.Fatalf("Ints[%d]: got %v, want %v", i, got.Ints[i], m.Ints[i])
						}
					}
					// Write through each integer in place, at its own
					// width and then wider; the others must not change.
					want := m.Clone().Ints
					for i, v := range got.Ints {
						v.Not(v)
						want[i].Set(v)
						v.Lsh(v, 4096).Rsh(v, 4096)
						for j := range want {
							if got.Ints[j].Cmp(want[j]) != 0 {
								t.Fatalf("writing Ints[%d] changed Ints[%d]: %v, want %v", i, j, got.Ints[j], want[j])
							}
						}
					}
				}
			}
		}
	}
}

// TestFrameGolden pins the documented wire format (docs/PROTOCOLS.md
// "Wire format") byte for byte: changing these bytes is a protocol
// change that needs a new version byte.
func TestFrameGolden(t *testing.T) {
	m := &Message{Op: 0x0102, Tag: 0x0a0b0c0d0e0f1011, Err: "hi", Ints: []*big.Int{big.NewInt(0x01ff), big.NewInt(-2), big.NewInt(0)}}
	const want = "00000024" + // payload length: 36
		"01" + // version
		"0102" + // op
		"0a0b0c0d0e0f1011" + // tag
		"00000002" + "6869" + // errLen, err
		"00000003" + // count
		"00000002" + "01ff" + // 511
		"80000001" + "02" + // -2: sign bit on the length
		"00000000" // 0: no magnitude bytes
	frame, _ := mustFrame(t, m)
	if got := hex.EncodeToString(frame); got != want {
		t.Fatalf("frame bytes\n got %s\nwant %s", got, want)
	}
}

// TestEncodeNilElementFails: a nil integer has no encoding (it had none
// under gob either); Send must refuse it rather than put a frame on the
// wire the peer would read differently.
func TestEncodeNilElementFails(t *testing.T) {
	if _, err := encodeFrame(&Message{Op: OpPing, Ints: []*big.Int{big.NewInt(1), nil}}); err == nil {
		t.Fatal("encodeFrame accepted a nil element")
	}
	a, b := net.Pipe()
	defer b.Close()
	conn := WrapNet(a)
	defer conn.Close()
	if err := conn.Send(&Message{Op: OpPing, Ints: []*big.Int{nil}}); err == nil {
		t.Fatal("Send accepted a nil element")
	}
	if conn.Stats().MessagesSent() != 0 {
		t.Error("refused frame was accounted as sent")
	}
}

// TestEncodeFrameTooBig: the cap applies to what encodeFrame would
// build, before it builds it.
func TestEncodeFrameTooBig(t *testing.T) {
	huge := new(big.Int).Lsh(big.NewInt(1), 8*maxFrameBytes)
	for name, m := range map[string]*Message{
		"ints": {Op: OpPing, Ints: []*big.Int{huge}},
		"err":  {Op: OpError, Err: string(make([]byte, maxFrameBytes))},
	} {
		if _, err := encodeFrame(m); !errors.Is(err, ErrFrameTooBig) {
			t.Errorf("%s: err = %v, want ErrFrameTooBig", name, err)
		}
	}
}

// TestRecvRejectsLyingHeader is the regression test for an unbounded
// streaming transport: a header promising far more than maxFrameBytes
// must fail fast, before any payload-sized allocation.
func TestRecvRejectsLyingHeader(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	conn := WrapNet(client)
	defer conn.Close()

	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<31) // 2 GiB claim, no payload
	errc := make(chan error, 1)
	go func() {
		_, err := conn.Recv()
		errc <- err
	}()
	if _, err := server.Write(hdr[:]); err != nil {
		t.Fatalf("writing forged header: %v", err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrFrameTooBig) {
			t.Fatalf("Recv with lying header: err = %v, want ErrFrameTooBig", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not reject the lying header (still reading?)")
	}
}

// TestRecvRejectsEmptyFrame: a zero-length header is protocol noise and
// must not be treated as a message.
func TestRecvRejectsEmptyFrame(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	conn := WrapNet(client)
	defer conn.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := conn.Recv()
		errc <- err
	}()
	if _, err := server.Write(make([]byte, frameHeaderLen)); err != nil {
		t.Fatalf("writing empty header: %v", err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrFrameTooBig) {
			t.Fatalf("Recv with empty frame: err = %v, want ErrFrameTooBig", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not reject the empty frame")
	}
}

// TestDecodeFrameTruncated: every truncation of a valid frame must
// error, never panic — the property FuzzFrameDecode then explores.
func TestDecodeFrameTruncated(t *testing.T) {
	_, payload := mustFrame(t, threeInts())
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decodeFrame(payload[:cut]); err == nil {
			t.Fatalf("decodeFrame accepted a frame truncated to %d/%d bytes", cut, len(payload))
		}
	}
}

// TestDecodeFrameHostile: each malformed payload is a typed error, and
// is rejected before the decoder allocates for the integers it claims —
// a count of 2³²−1 would otherwise be a 100 GiB make.
func TestDecodeFrameHostile(t *testing.T) {
	for _, h := range hostileFrames(t) {
		want := errBadFrame
		if h.name == "gob frame" {
			want = ErrWireVersion
		}
		m, err := decodeFrame(h.payload)
		if !errors.Is(err, want) || m != nil {
			t.Errorf("%s: decodeFrame = %+v, %v; want %v", h.name, m, err, want)
		}
	}
}

// TestForeignPeerFailsAtHello pairs this codec with the previous one: a
// listener that requires authentication and is dialled by a peer still
// on gob frames gets the typed version error out of the handshake — it
// neither serves the peer nor waits for more of it.
func TestForeignPeerFailsAtHello(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	server := WrapNet(a)
	defer server.Close()
	errc := make(chan error, 1)
	go func() { errc <- AuthServer(server, "token") }()
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(gobFrame)))
	if _, err := b.Write(append(hdr[:], gobFrame...)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrWireVersion) || !errors.Is(err, ErrAuth) {
			t.Fatalf("AuthServer on a gob hello = %v, want ErrAuth wrapping ErrWireVersion", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AuthServer hung on a foreign-format hello")
	}
}

// TestFrameCodecAllocs pins the codec's allocation shape: one exactly
// sized buffer to encode; to decode, the Message, the pointer slice, the
// []big.Int and the word slab — not two allocations per integer.
func TestFrameCodecAllocs(t *testing.T) {
	for _, n := range []int{1, 64} {
		m := benchMessage(n)
		_, payload := mustFrame(t, m)
		if got := testing.AllocsPerRun(100, func() {
			if _, err := encodeFrame(m); err != nil {
				t.Fatal(err)
			}
		}); got != 1 {
			t.Errorf("encodeFrame(%d ints): %v allocations, want 1", n, got)
		}
		if got := testing.AllocsPerRun(100, func() {
			if _, err := decodeFrame(payload); err != nil {
				t.Fatal(err)
			}
		}); got > 4 {
			t.Errorf("decodeFrame(%d ints): %v allocations, want ≤ 4", n, got)
		}
	}
}

// TestSendStalledPeer: a peer that stops reading must cost the link one
// write deadline, not pin it. The blocked sender gets ErrPeerStalled; a
// second session queued behind it on the same multiplexer, and the
// demultiplexer, come back too.
func TestSendStalledPeer(t *testing.T) {
	before := runtime.NumGoroutine()
	a, b := net.Pipe() // unbuffered: a Write blocks until the peer reads
	defer b.Close()
	const stall = 100 * time.Millisecond
	mux := NewMultiplexer(&netConn{rwc: a, stall: stall})
	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		s, err := mux.Open()
		if err != nil {
			t.Fatal(err)
		}
		go func() { errc <- s.Send(msg(OpPing, 1)) }()
	}
	stalled := 0
	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			switch {
			case errors.Is(err, ErrPeerStalled):
				stalled++
			case !errors.Is(err, ErrConnClosed):
				t.Errorf("Send to a stalled peer = %v, want ErrPeerStalled or ErrConnClosed", err)
			}
		case <-time.After(50 * stall):
			t.Fatal("Send still blocked on a peer that never reads")
		}
	}
	if stalled != 1 {
		t.Errorf("%d senders saw ErrPeerStalled, want exactly 1 (the link fails once)", stalled)
	}
	select {
	case <-mux.done:
	case <-time.After(50 * stall):
		t.Fatal("multiplexer still up after its link stalled")
	}
	if _, err := mux.Open(); err == nil {
		t.Error("Open succeeded on a failed link")
	}
	for deadline := time.Now().Add(50 * stall); runtime.NumGoroutine() > before; time.Sleep(stall / 10) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-before)
		}
	}
}

// FuzzFrameDecode drives decodeFrame with arbitrary payloads: it must
// never panic, never yield a nil integer, and anything it accepts must
// re-encode to the very bytes it was decoded from.
func FuzzFrameDecode(f *testing.F) {
	_, seed := mustFrame(f, &Message{Op: Op(64), Tag: 3, Ints: []*big.Int{big.NewInt(12345)}})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	_, valid := mustFrame(f, threeInts())
	for cut := 1; cut <= len(valid); cut++ {
		f.Add(valid[:cut])
	}
	for _, h := range hostileFrames(f) {
		f.Add(h.payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeFrame(data)
		if err != nil {
			return
		}
		for i, v := range m.Ints {
			if v == nil {
				t.Fatalf("decoded Ints[%d] is nil", i)
			}
		}
		frame, err := encodeFrame(m)
		if err != nil {
			t.Fatalf("re-encoding accepted message: %v", err)
		}
		if !bytes.Equal(frame[frameHeaderLen:], data) {
			t.Fatalf("accepted a non-canonical payload:\n got %x\nback %x", data, frame[frameHeaderLen:])
		}
	})
}

// benchMessage is a frame of n ciphertext-sized (1024-bit) integers.
func benchMessage(n int) *Message {
	m := &Message{Op: Op(64), Tag: 1, Ints: make([]*big.Int, n)}
	for i := range m.Ints {
		m.Ints[i] = new(big.Int).Lsh(big.NewInt(int64(i)+3), 1020)
	}
	return m
}

// loopback is an in-memory byte stream: what Send writes, Recv reads
// back, on one goroutine — the codec with no socket under it.
type loopback struct{ bytes.Buffer }

func (*loopback) Close() error { return nil }

// BenchmarkFrameCodec prices one frame through the transport — Send then
// Recv through WrapNet — at the two sizes the protocols send most: one
// ciphertext, and a 64-ciphertext batch.
func BenchmarkFrameCodec(b *testing.B) {
	for _, n := range []int{1, 64} {
		b.Run(fmt.Sprintf("%dints", n), func(b *testing.B) {
			m, conn := benchMessage(n), WrapNet(&loopback{})
			b.ReportAllocs()
			b.SetBytes(int64(m.wireSize()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := conn.Send(m); err != nil {
					b.Fatal(err)
				}
				if _, err := conn.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
