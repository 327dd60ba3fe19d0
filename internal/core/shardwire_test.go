package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"sync"
	"testing"
	"time"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/testkit"
)

// helloReply builds a hello frame with the given shape fields, using a
// plausible modulus.
func helloReply(index, count, n, m, featureM, clustered, attrBits int64) *mpc.Message {
	mod := new(big.Int).Lsh(big.NewInt(1), 1024)
	mod.Add(mod, big.NewInt(1)) // odd, as every p·q is
	return helloWithModulus(mod, index, count, n, m, featureM, clustered, attrBits)
}

func helloWithModulus(mod *big.Int, index, count, n, m, featureM, clustered, attrBits int64) *mpc.Message {
	return &mpc.Message{Op: OpShardHello, Ints: []*big.Int{
		mod,
		big.NewInt(index), big.NewInt(count), big.NewInt(n), big.NewInt(m),
		big.NewInt(featureM), big.NewInt(clustered),
		big.NewInt(attrBits),
	}}
}

// TestDecodeHelloBounds is the regression test for the unbounded hello:
// shape fields feed candidate allocations, so a reply declaring an
// absurd M, N, count, or attribute width must fail with ErrBadFrame at
// the handshake instead of parameterizing a later make(). So must a hello
// in an older layout: the 9-int one that still carried l, the 10-int
// one of the replica era.
func TestDecodeHelloBounds(t *testing.T) {
	cases := []struct {
		name string
		msg  *mpc.Message
	}{
		{"huge M", helloReply(0, 1, 10, dataset.MaxColumns+1, 2, 0, 24)},
		{"huge N", helloReply(0, 1, maxShardN+1, 4, 2, 0, 24)},
		{"huge count", helloReply(0, maxShardCount+1, 10, 4, 2, 0, 24)},
		{"huge attrBits", helloReply(0, 1, 10, 4, 2, 0, dataset.MaxAttrBits+1)},
		{"zero attrBits", helloReply(0, 1, 10, 4, 2, 0, 0)},
		{"negative attrBits", helloReply(0, 1, 10, 4, 2, 0, -1)},
		{"featureM over M", helloReply(0, 1, 10, 4, 5, 0, 24)},
		{"index out of range", helloReply(3, 2, 10, 4, 2, 0, 24)},
		{"nil field", &mpc.Message{Op: OpShardHello, Ints: make([]*big.Int, 8)}},
		{"l-era 9-int frame", &mpc.Message{Op: OpShardHello, Ints: append(helloReply(0, 1, 10, 4, 2, 0, 24).Ints, big.NewInt(96))}},
		{"replica-era 10-int frame", &mpc.Message{Op: OpShardHello, Ints: append(helloReply(0, 1, 10, 4, 2, 0, 24).Ints, big.NewInt(96), big.NewInt(0))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeHello(tc.msg); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decodeHello: err = %v, want ErrBadFrame", err)
			}
		})
	}
}

// TestDecodeHelloHostileModulus: an otherwise valid hello carrying a
// modulus no Paillier key has is ErrBadFrame at the handshake, not a key
// whose arithmetic fails later.
func TestDecodeHelloHostileModulus(t *testing.T) {
	for name, mod := range testkit.HostileModuli() {
		if _, err := decodeHello(helloWithModulus(mod, 0, 1, 10, 4, 2, 0, 24)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("modulus %s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

// TestDecodeHelloAccepts pins the valid path so the bounds stay bounds,
// not rejections of legitimate shards.
func TestDecodeHelloAccepts(t *testing.T) {
	h, err := decodeHello(helloReply(1, 3, 1000, 6, 2, 1, 24))
	if err != nil {
		t.Fatalf("decodeHello: %v", err)
	}
	if h.info.Index != 1 || h.info.Count != 3 || h.info.N != 1000 ||
		h.info.Shape.M != 6 || h.info.Shape.FeatureM != 2 || !h.info.Clustered ||
		h.info.Shape.AttrBits != 24 {
		t.Fatalf("decodeHello = %+v", h)
	}
	if h.pk == nil || h.pk.NSquared.BitLen() < 2048 {
		t.Fatal("decodeHello did not derive the public key")
	}
}

// topKHead builds a top-k reply header declaring count candidates in
// the given row layout.
func topKHead(count int64, layout RowLayout) []*big.Int {
	return []*big.Int{
		big.NewInt(10), big.NewInt(count), // liveN, count
		big.NewInt(0), big.NewInt(0), big.NewInt(0), big.NewInt(0),
		big.NewInt(int64(layout.Cols)), big.NewInt(int64(layout.Bits)),
	}
}

// TestDecodeTopKReplyLyingCount: a reply claiming more candidates than
// the k requested (or a payload length that disagrees with its own
// count) must fail with ErrBadFrame before any candidate allocation.
func TestDecodeTopKReplyLyingCount(t *testing.T) {
	h, err := decodeHello(helloReply(0, 1, 10, 4, 2, 0, 24))
	if err != nil {
		t.Fatal(err)
	}
	layout := rowLayoutFor(h.pk.Bits(), h.info.Shape)
	head := topKHead(1<<40, layout) // lying count
	if _, _, _, err := decodeTopKReply(h.pk, h.info.Shape.M, &mpc.Message{Op: OpShardTopK, Ints: head}, 2, layout, true); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("lying count: err = %v, want ErrBadFrame", err)
	}
	// Count within k but payload missing.
	head[1] = big.NewInt(2)
	if _, _, _, err := decodeTopKReply(h.pk, h.info.Shape.M, &mpc.Message{Op: OpShardTopK, Ints: head}, 2, layout, true); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short payload: err = %v, want ErrBadFrame", err)
	}
	// Truncated header (the pre-layout 6-field one included).
	for _, n := range []int{3, 6} {
		if _, _, _, err := decodeTopKReply(h.pk, h.info.Shape.M, &mpc.Message{Op: OpShardTopK, Ints: head[:n]}, 2, layout, true); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%d-field header: err = %v, want ErrBadFrame", n, err)
		}
	}
}

// TestDecodeTopKReplyLayout: the declared row layout must be the one the
// table shape, the key and the hello's attribute width produce — on a
// secure reply and a basic one alike — and the payload must hold exactly
// that many chunks per candidate. Anything else — the per-attribute
// layout under a key that packs, and SkNNm's former ⌊l/2⌋-bit slots,
// included — is ErrBadFrame, never a candidate whose chunks would be
// read as differently packed columns.
func TestDecodeTopKReplyLayout(t *testing.T) {
	h, err := decodeHello(helloReply(0, 1, 10, 4, 2, 0, 24))
	if err != nil {
		t.Fatal(err)
	}
	const m, b = 4, 24
	l := dataset.DomainBits(b, m)
	packed, plain := rowLayoutFor(h.pk.Bits(), dataset.Shape{M: m, AttrBits: h.info.Shape.AttrBits}), RowLayout{Cols: 1, Bits: b}
	if packed.Cols != m || packed.Bits != b {
		t.Fatalf("layout under a 1025-bit key: %+v", packed)
	}
	ct := big.NewInt(7) // a canonical residue mod N²
	reply := func(layout RowLayout, perCand int, secure bool) *mpc.Message {
		ints := topKHead(2, layout)
		for c := 0; c < 2; c++ {
			if !secure {
				ints = append(ints, big.NewInt(int64(c))) // id
			}
			for i := 0; i < perCand; i++ {
				ints = append(ints, ct)
			}
		}
		return &mpc.Message{Op: OpShardTopK, Ints: ints}
	}
	for _, secure := range []bool{true, false} {
		_, cands, _, err := decodeTopKReply(h.pk, m, reply(packed, 1+1, secure), 2, packed, secure)
		if err != nil {
			t.Fatalf("secure=%v: %v", secure, err)
		}
		for i, c := range cands {
			if len(c.Rec) != 1 || c.Dist == nil {
				t.Errorf("secure=%v: candidate %d has %d record ciphertexts, want 1", secure, i, len(c.Rec))
			}
		}
		reject := []struct {
			name string
			msg  *mpc.Message
		}{
			{"zero cols", reply(RowLayout{Cols: 0, Bits: b}, 2, secure)},
			{"negative cols", reply(RowLayout{Cols: -1, Bits: b}, 2, secure)},
			{"cols over m", reply(RowLayout{Cols: m + 1, Bits: b}, 2, secure)},
			{"cols the key would not choose", reply(RowLayout{Cols: 2, Bits: b}, 3, secure)},
			{"slot width of another table", reply(RowLayout{Cols: m, Bits: b - 1}, 2, secure)},
			{"slot width of half the domain", reply(RowLayout{Cols: m, Bits: l / 2}, 2, secure)},
			{"huge slot width", reply(RowLayout{Cols: m, Bits: math.MaxInt32}, 2, secure)},
			{"packed header, per-attribute payload", reply(packed, 1+m, secure)},
			{"per-attribute header, packed payload", reply(plain, 2, secure)},
			{"per-attribute layout under a key that packs", reply(plain, 1+m, secure)},
			{"the other mode's frame", reply(packed, 1+1, !secure)},
		}
		for _, tc := range reject {
			if _, _, _, err := decodeTopKReply(h.pk, m, tc.msg, 2, packed, secure); !errors.Is(err, ErrBadFrame) {
				t.Errorf("secure=%v, %s: err = %v, want ErrBadFrame", secure, tc.name, err)
			}
		}
	}
}

// TestShardTopKRequestValidation sends top-k requests straight to a
// worker's dispatcher, as an in-process coordinator link carries them:
// a nil header element, a missing or trailing query attribute and a
// header value past int64 are ErrBadFrame, a k below 1 is ErrBadK, and
// no frame panics the worker.
func TestShardTopKRequestValidation(t *testing.T) {
	tbl, err := dataset.Generate(5, 6, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, bob := newSystem(t, tbl, 1)
	srv, err := NewShardServer(eng.Workers[0], 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := bob.EncryptQuery([]uint64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	// request is a well-formed basic top-2 request with edit applied.
	request := func(edit func([]*big.Int) []*big.Int) *mpc.Message {
		return &mpc.Message{Op: OpShardTopK, Ints: edit(encodeTopKRequest(q, 2, 0, false).Ints)}
	}
	handle := func(msg *mpc.Message) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("worker panicked: %v", p)
			}
		}()
		_, err = srv.Mux().Handle(msg)
		return err
	}
	set := func(i int, v *big.Int) func([]*big.Int) []*big.Int {
		return func(ints []*big.Int) []*big.Int { ints[i] = v; return ints }
	}
	if err := handle(request(func(ints []*big.Int) []*big.Int { return ints })); err != nil {
		t.Fatalf("well-formed request: %v", err)
	}
	type refusal struct {
		name string
		edit func([]*big.Int) []*big.Int
		want error
	}
	cases := []refusal{
		{"query attribute missing", func(ints []*big.Int) []*big.Int { return ints[:len(ints)-1] }, ErrBadFrame},
		{"query attribute trailing", func(ints []*big.Int) []*big.Int { return append(ints, ints[len(ints)-1]) }, ErrBadFrame},
		{"k zero", set(0, big.NewInt(0)), ErrBadK},
		{"k negative", set(0, big.NewInt(-3)), ErrBadK},
	}
	for i, field := range []string{"k", "target", "secure"} {
		cases = append(cases,
			refusal{"nil " + field, set(i, nil), ErrBadFrame},
			refusal{field + " past int64", set(i, new(big.Int).Lsh(big.NewInt(1), 70)), ErrBadFrame})
	}
	for _, tc := range cases {
		if err := handle(request(tc.edit)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestCoordinatorRefusesMalformedTopKReply drives a lying worker's reply
// through RemoteShard.TopK inside a coordinator's query: a real shard
// server whose top-k replies are edited on their way out — more
// candidates than k, another row layout, a distance outside the group.
// SecureQuery must fail with ErrBadFrame and no result, and the shard's
// cached live count must stay what the hello declared.
func TestCoordinatorRefusesMalformedTopKReply(t *testing.T) {
	tbl, err := dataset.Generate(5, 6, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, bob := newSystem(t, tbl, 1)
	srv, err := NewShardServer(eng.Workers[0], 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := bob.EncryptQuery([]uint64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCloudC2(testKey(), nil)
	const k = 2
	set := func(i int, v *big.Int) func([]*big.Int) []*big.Int {
		return func(ints []*big.Int) []*big.Int { ints[i] = v; return ints }
	}
	cases := []struct {
		name string
		edit func([]*big.Int) []*big.Int
	}{
		{"more candidates than k", set(1, big.NewInt(k+1))},
		{"another row layout", func(ints []*big.Int) []*big.Int {
			ints[7] = new(big.Int).Add(ints[7], big.NewInt(1))
			return ints
		}},
		{"distance outside the group", set(8, new(big.Int).Set(testKey().NSquared))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			honest := srv.Mux()
			worker := mpc.NewMux()
			worker.Register(OpShardHello, honest)
			worker.Register(OpShardTopK, mpc.HandlerFunc(func(req *mpc.Message) (*mpc.Message, error) {
				resp, err := honest.Handle(req)
				if err != nil {
					return nil, err
				}
				resp.Ints = tc.edit(resp.Ints)
				return resp, nil
			}))
			coordSide, shardSide := mpc.ChanPipe()
			served := make(chan error, 1)
			go func() { served <- mpc.Serve(shardSide, worker) }()
			t.Cleanup(func() {
				coordSide.Close()
				if err := <-served; err != nil {
					t.Errorf("worker serve loop: %v", err)
				}
			})
			rs, err := DialShard(coordSide)
			if err != nil {
				t.Fatal(err)
			}
			liveN := rs.Info().N
			coord, err := NewShardedC1([]Shard{rs}, []mpc.Conn{pipeTo(t, c2)}, &testKey().PublicKey, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { coord.Close() })
			res, _, err := coord.SecureQuery(context.Background(), eq, k, 0)
			if !errors.Is(err, ErrBadFrame) || res != nil {
				t.Fatalf("SecureQuery = %v, %v; want no result and ErrBadFrame", res, err)
			}
			if n := rs.Info().N; n != liveN {
				t.Fatalf("live count %d after the refused reply, want the hello's %d", n, liveN)
			}
		})
	}
}

// fuzzInts flattens a frame payload into the length-prefixed bytes
// FuzzShardFrame reassembles.
func fuzzInts(ints []*big.Int) []byte {
	var out []byte
	for _, v := range ints {
		b := v.Bytes()
		out = append(out, byte(len(b)))
		out = append(out, b...)
	}
	return out
}

// FuzzShardFrame drives the three shard-frame decoders with adversarial
// Ints payloads assembled from raw fuzz bytes: none may panic, whatever
// decodeHello accepts must satisfy the declared bounds, whatever
// decodeTopKReply accepts must hold at most k candidates whose records
// all have the chunk count of one legal row layout, and whatever
// decodeTopKRequest accepts must ask for k ≥ 1 over exactly the
// table's query attributes.
func FuzzShardFrame(f *testing.F) {
	f.Add(fuzzInts(helloReply(1, 3, 1000, 6, 2, 1, 24).Ints))
	f.Add([]byte{})
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	for _, mod := range testkit.HostileModuli() {
		if mod != nil && mod.Sign() >= 0 { // what the byte layout below can carry
			f.Add(fuzzInts(helloWithModulus(mod, 1, 3, 1000, 6, 2, 1, 24).Ints))
		}
	}
	// Top-k replies for the fixed shape below: a row-packed candidate, a
	// per-attribute one (not this key's layout), one in 6-bit slots (⌊l/2⌋
	// at this shape, not the table's width), and headers lying about the
	// layout.
	fixed, err := decodeHello(helloReply(0, 1, 10, 6, 6, 0, 4))
	if err != nil {
		f.Fatal(err)
	}
	const fm, fk = 6, 3
	want := rowLayoutFor(fixed.pk.Bits(), dataset.Shape{M: fm, AttrBits: fixed.info.Shape.AttrBits})
	seven := big.NewInt(7)
	f.Add(fuzzInts(append(topKHead(1, want), seven, seven)))
	f.Add(fuzzInts(append(topKHead(1, RowLayout{Cols: 1, Bits: want.Bits}), seven, seven, seven, seven, seven, seven, seven)))
	f.Add(fuzzInts(append(topKHead(1, RowLayout{Cols: fm, Bits: 6}), seven, seven)))
	f.Add(fuzzInts(append(topKHead(1, RowLayout{Cols: 5, Bits: 6}), seven, seven, seven)))
	f.Add(fuzzInts(append(topKHead(1, RowLayout{Cols: 6, Bits: 200}), seven, seven)))
	// Top-k requests against the same shape: well formed, and with the
	// header lying.
	sevens := make(EncryptedQuery, fm)
	for i := range sevens {
		if sevens[i], err = fixed.pk.FromRaw(seven); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(fuzzInts(encodeTopKRequest(sevens, fk, 0, true).Ints))
	f.Add(fuzzInts(encodeTopKRequest(sevens[:fm-1], fk, 0, false).Ints))
	f.Add(fuzzInts(encodeTopKRequest(sevens, 0, 0, true).Ints))
	f.Add(fuzzInts(append(encodeTopKRequest(sevens, fk, 0, true).Ints[:2], big.NewInt(2))))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Reassemble data into a length-prefixed []*big.Int payload.
		var ints []*big.Int
		for len(data) > 0 && len(ints) < 64 {
			n := int(data[0])
			data = data[1:]
			if n > len(data) {
				n = len(data)
			}
			v := new(big.Int).SetBytes(data[:n])
			if n > 0 && data[0] == 0 {
				v = nil // exercise nil elements an in-process link can carry (the frame decoder never yields one)
			}
			data = data[n:]
			ints = append(ints, v)
		}
		msg := &mpc.Message{Op: OpShardHello, Ints: ints}
		if h, err := decodeHello(msg); err == nil {
			if h.info.Shape.M < 1 || h.info.Shape.M > dataset.MaxColumns || int64(h.info.N) > maxShardN ||
				h.info.Count > maxShardCount || h.info.Shape.AttrBits < 1 || h.info.Shape.AttrBits > dataset.MaxAttrBits ||
				h.pk.N.Bit(0) == 0 || h.pk.N.BitLen() < 64 {
				t.Fatalf("decodeHello accepted out-of-bounds shape: %+v", h.info)
			}
		}
		if q, k, _, _, err := decodeTopKRequest(fixed.pk, fm, &mpc.Message{Op: OpShardTopK, Ints: ints}); err == nil && (k < 1 || len(q) != fm) {
			t.Fatalf("decodeTopKRequest accepted k=%d over %d query attributes, want %d", k, len(q), fm)
		}
		reply := &mpc.Message{Op: OpShardTopK, Ints: ints}
		for _, secure := range []bool{true, false} {
			_, cands, _, err := decodeTopKReply(fixed.pk, fm, reply, fk, want, secure)
			if err != nil {
				continue
			}
			if len(cands) > fk {
				t.Fatalf("decodeTopKReply returned %d candidates for k=%d", len(cands), fk)
			}
			for i, c := range cands {
				if n := len(c.Rec); n != want.Chunks(fm) {
					t.Fatalf("candidate %d has %d record ciphertexts (secure=%v)", i, n, secure)
				}
			}
		}
	})
}

// TestRemoteShardTopKHonorsDeadline: a coordinator stops waiting for a
// worker whose scan stalls once the query's deadline passes, with an
// error that is both ErrCanceled and the context's own.
func TestRemoteShardTopKHonorsDeadline(t *testing.T) {
	pk := &testKey().PublicKey
	release := make(chan struct{})
	worker := mpc.NewMux()
	worker.Register(OpShardHello, mpc.HandlerFunc(func(*mpc.Message) (*mpc.Message, error) {
		return encodeHello(pk.N, ShardInfo{Count: 1, N: 4, Shape: dataset.Shape{M: 2, FeatureM: 2, AttrBits: 4}}), nil
	}))
	worker.Register(OpShardTopK, mpc.HandlerFunc(func(*mpc.Message) (*mpc.Message, error) {
		<-release
		return nil, errors.New("scan abandoned")
	}))
	coordSide, shardSide := mpc.ChanPipe()
	served := make(chan error, 1)
	go func() { served <- mpc.Serve(shardSide, worker) }()
	rs, err := DialShard(coordSide)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		rs.Close()
		<-served
	}()
	q, err := NewClient(pk, nil).EncryptQuery([]uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := rs.TopK(ctx, q, 1, 0, 0, true)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("TopK past its deadline = %v, want ErrCanceled wrapping context.DeadlineExceeded", err)
		}
	case <-time.After(1100 * time.Millisecond):
		t.Fatal("TopK still waiting 1 s after its 100 ms deadline")
	}
}

// heldTopKConn is a shard worker's end of the coordinator link that
// announces every top-k request it receives and holds every top-k reply
// until release closes.
type heldTopKConn struct {
	mpc.Conn
	arrived chan struct{}
	release chan struct{}
}

func (c *heldTopKConn) Recv() (*mpc.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Op == OpShardTopK {
		c.arrived <- struct{}{}
	}
	return m, err
}

func (c *heldTopKConn) Send(m *mpc.Message) error {
	if m.Op == OpShardTopK {
		<-c.release
	}
	return c.Conn.Send(m)
}

// TestRemoteShardConcurrentTopK: two queries scattered over one shard
// link both reach the worker before either is answered — concurrent
// coordinator queries share the link instead of queueing on it.
func TestRemoteShardConcurrentTopK(t *testing.T) {
	tbl, err := dataset.Generate(5, 6, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, bob := newSystem(t, tbl, 1)
	srv, err := NewShardServer(eng.Workers[0], 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	coordSide, shardSide := mpc.ChanPipe()
	held := &heldTopKConn{Conn: shardSide, arrived: make(chan struct{}, 2), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(held.release) })
	served := make(chan error, 1)
	go func() { served <- srv.Serve(held) }()
	rs, err := DialShard(coordSide)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		release()
		rs.Close()
		if err := <-served; err != nil {
			t.Errorf("shard serve loop: %v", err)
		}
	}()
	q, err := bob.EncryptQuery([]uint64{3, 5})
	if err != nil {
		t.Fatal(err)
	}

	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			cands, _, err := rs.TopK(context.Background(), q, 2, 0, 0, false)
			if err == nil && len(cands) != 2 {
				err = fmt.Errorf("%d candidates, want 2", len(cands))
			}
			results <- err
		}()
	}
	timeout := time.After(5 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-held.arrived:
		case <-timeout:
			t.Fatalf("%d of 2 concurrent scans reached the worker before either was answered", i)
		}
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("concurrent TopK: %v", err)
		}
	}
}
