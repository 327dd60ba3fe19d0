package core

import (
	"errors"
	"math/big"
	"testing"

	"sknn/internal/mpc"
	"sknn/internal/testkit"
)

// helloReply builds a hello frame with the given shape fields, using a
// plausible modulus.
func helloReply(index, count, n, m, featureM, clustered, attrBits, domainBits int64) *mpc.Message {
	return helloReplyR(index, count, n, m, featureM, clustered, attrBits, domainBits, 0)
}

func helloReplyR(index, count, n, m, featureM, clustered, attrBits, domainBits, replica int64) *mpc.Message {
	mod := new(big.Int).Lsh(big.NewInt(1), 1024)
	mod.Add(mod, big.NewInt(1)) // odd, as every p·q is
	return helloWithModulus(mod, index, count, n, m, featureM, clustered, attrBits, domainBits, replica)
}

func helloWithModulus(mod *big.Int, index, count, n, m, featureM, clustered, attrBits, domainBits, replica int64) *mpc.Message {
	return &mpc.Message{Op: OpShardHello, Ints: []*big.Int{
		mod,
		big.NewInt(index), big.NewInt(count), big.NewInt(n), big.NewInt(m),
		big.NewInt(featureM), big.NewInt(clustered),
		big.NewInt(attrBits), big.NewInt(domainBits),
		big.NewInt(replica),
	}}
}

// TestDecodeHelloBounds is the regression test for the unbounded hello:
// shape fields feed candidate allocations, so a reply declaring an
// absurd M, N, count, or domainBits must fail with ErrBadFrame at the
// handshake instead of parameterizing a later make().
func TestDecodeHelloBounds(t *testing.T) {
	cases := []struct {
		name string
		msg  *mpc.Message
	}{
		{"huge M", helloReply(0, 1, 10, maxShardM+1, 2, 0, 32, 96)},
		{"huge N", helloReply(0, 1, maxShardN+1, 4, 2, 0, 32, 96)},
		{"huge count", helloReply(0, maxShardCount+1, 10, 4, 2, 0, 32, 96)},
		{"huge attrBits", helloReply(0, 1, 10, 4, 2, 0, maxAttrBits+1, 96)},
		{"zero attrBits", helloReply(0, 1, 10, 4, 2, 0, 0, 96)},
		{"huge domainBits", helloReply(0, 1, 10, 4, 2, 0, 32, maxShardDomainBits+1)},
		{"negative attrBits", helloReply(0, 1, 10, 4, 2, 0, -1, 96)},
		{"negative domainBits", helloReply(0, 1, 10, 4, 2, 0, 32, -1)},
		{"featureM over M", helloReply(0, 1, 10, 4, 5, 0, 32, 96)},
		{"index out of range", helloReply(3, 2, 10, 4, 2, 0, 32, 96)},
		{"negative replica", helloReplyR(0, 1, 10, 4, 2, 0, 32, 96, -1)},
		{"huge replica", helloReplyR(0, 1, 10, 4, 2, 0, 32, 96, maxShardReplicas)},
		{"nil field", &mpc.Message{Op: OpShardHello, Ints: make([]*big.Int, 10)}},
		{"old 9-int frame", &mpc.Message{Op: OpShardHello, Ints: helloReply(0, 1, 10, 4, 2, 0, 32, 96).Ints[:9]}},
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
		if _, err := decodeHello(helloWithModulus(mod, 0, 1, 10, 4, 2, 0, 32, 96, 0)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("modulus %s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

// TestDecodeHelloAccepts pins the valid path so the bounds stay bounds,
// not rejections of legitimate shards.
func TestDecodeHelloAccepts(t *testing.T) {
	h, err := decodeHello(helloReplyR(1, 3, 1000, 6, 2, 1, 32, 96, 2))
	if err != nil {
		t.Fatalf("decodeHello: %v", err)
	}
	if h.info.Index != 1 || h.info.Count != 3 || h.info.N != 1000 ||
		h.info.M != 6 || h.info.FeatureM != 2 || !h.info.Clustered ||
		h.info.AttrBits != 32 || h.domainBits != 96 || h.info.Replica != 2 {
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
	h, err := decodeHello(helloReply(0, 1, 10, 4, 2, 0, 32, 96))
	if err != nil {
		t.Fatal(err)
	}
	layout := rowLayoutFor(h.pk, h.info.M, 48)
	head := topKHead(1<<40, layout) // lying count
	if _, _, _, err := decodeTopKReply(h.pk, h.info.M, &mpc.Message{Op: OpShardTopK, Ints: head}, 2, layout, true); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("lying count: err = %v, want ErrBadFrame", err)
	}
	// Count within k but payload missing.
	head[1] = big.NewInt(2)
	if _, _, _, err := decodeTopKReply(h.pk, h.info.M, &mpc.Message{Op: OpShardTopK, Ints: head}, 2, layout, true); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short payload: err = %v, want ErrBadFrame", err)
	}
	// Truncated header (the pre-layout 6-field one included).
	for _, n := range []int{3, 6} {
		if _, _, _, err := decodeTopKReply(h.pk, h.info.M, &mpc.Message{Op: OpShardTopK, Ints: head[:n]}, 2, layout, true); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%d-field header: err = %v, want ErrBadFrame", n, err)
		}
	}
}

// TestDecodeTopKReplyLayout: the declared row layout must be the one the
// table shape, the key and the slot width produce — the requested domain
// size's on a secure reply, the hello's attribute width on a basic one —
// and the payload must hold exactly that many chunks per candidate.
// Anything else — the per-attribute layout under a key that packs
// included — is ErrBadFrame, never a candidate whose chunks would be read
// as differently packed columns.
func TestDecodeTopKReplyLayout(t *testing.T) {
	h, err := decodeHello(helloReply(0, 1, 10, 4, 2, 0, 32, 96))
	if err != nil {
		t.Fatal(err)
	}
	const m, l = 4, 96
	packed, plain := rowLayoutFor(h.pk, m, l/2), RowLayout{Cols: 1, Bits: l / 2}
	basic := rowLayoutFor(h.pk, m, h.info.AttrBits)
	if packed.Cols != m || packed.Bits != l/2 || basic.Cols != m || basic.Bits != 32 {
		t.Fatalf("layouts under a 1025-bit key: %+v, %+v", packed, basic)
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
	accept := []struct {
		name   string
		msg    *mpc.Message
		secure bool
		chunks int
	}{
		{"packed", reply(packed, 1+1, true), true, 1},
		{"basic", reply(basic, 1+1, false), false, 1},
	}
	for _, tc := range accept {
		_, cands, _, err := decodeTopKReply(h.pk, m, tc.msg, 2, replyLayout(h.pk, m, h.info.AttrBits, l, tc.secure), tc.secure)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, c := range cands {
			if len(c.Rec) != tc.chunks || c.Dist == nil {
				t.Errorf("%s: candidate %d has %d record ciphertexts, want %d", tc.name, i, len(c.Rec), tc.chunks)
			}
		}
	}
	reject := []struct {
		name   string
		msg    *mpc.Message
		secure bool
	}{
		{"zero cols", reply(RowLayout{Cols: 0, Bits: l / 2}, 2, true), true},
		{"negative cols", reply(RowLayout{Cols: -1, Bits: l / 2}, 2, true), true},
		{"cols over m", reply(RowLayout{Cols: m + 1, Bits: l / 2}, 2, true), true},
		{"cols the key would not choose", reply(RowLayout{Cols: 2, Bits: l / 2}, 3, true), true},
		{"slot width of another domain", reply(RowLayout{Cols: m, Bits: l/2 - 1}, 2, true), true},
		{"huge slot width", reply(RowLayout{Cols: m, Bits: 1 << 40}, 2, true), true},
		{"packed header, per-attribute payload", reply(packed, 1+m, true), true},
		{"per-attribute header, packed payload", reply(plain, 2, true), true},
		{"per-attribute layout under a key that packs", reply(plain, 1+m, true), true},
		{"basic reply in the secure layout", reply(packed, 1+1, false), false},
		{"basic reply per attribute under a key that packs", reply(RowLayout{Cols: 1}, 1+m, false), false},
	}
	for _, tc := range reject {
		if _, _, _, err := decodeTopKReply(h.pk, m, tc.msg, 2, replyLayout(h.pk, m, h.info.AttrBits, l, tc.secure), tc.secure); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", tc.name, err)
		}
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

// FuzzShardFrame drives the two shard-frame decoders with adversarial
// Ints payloads assembled from raw fuzz bytes: neither may panic,
// whatever decodeHello accepts must satisfy the declared bounds, and
// whatever decodeTopKReply accepts must hold at most k candidates whose
// records all have the chunk count of one legal row layout.
func FuzzShardFrame(f *testing.F) {
	f.Add(fuzzInts(helloReply(1, 3, 1000, 6, 2, 1, 32, 96).Ints))
	f.Add([]byte{})
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	for _, mod := range testkit.HostileModuli() {
		if mod != nil && mod.Sign() >= 0 { // what the byte layout below can carry
			f.Add(fuzzInts(helloWithModulus(mod, 1, 3, 1000, 6, 2, 1, 32, 96, 0).Ints))
		}
	}
	// Top-k replies for the fixed shape below: a row-packed candidate, a
	// per-attribute one (not this key's layout), and headers lying about
	// the layout.
	fixed, err := decodeHello(helloReply(0, 1, 10, 6, 6, 0, 4, 12))
	if err != nil {
		f.Fatal(err)
	}
	const fm, fl, fk = 6, 12, 3
	packed := rowLayoutFor(fixed.pk, fm, fl/2)
	seven := big.NewInt(7)
	f.Add(fuzzInts(append(topKHead(1, packed), seven, seven)))
	f.Add(fuzzInts(append(topKHead(1, RowLayout{Cols: 1, Bits: fl / 2}), seven, seven, seven, seven, seven, seven, seven)))
	f.Add(fuzzInts(append(topKHead(1, RowLayout{Cols: 5, Bits: 6}), seven, seven, seven)))
	f.Add(fuzzInts(append(topKHead(1, RowLayout{Cols: 6, Bits: 200}), seven, seven)))
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
				v = nil // exercise nil elements a hostile gob stream can carry
			}
			data = data[n:]
			ints = append(ints, v)
		}
		msg := &mpc.Message{Op: OpShardHello, Ints: ints}
		if h, err := decodeHello(msg); err == nil {
			if h.info.M < 1 || h.info.M > maxShardM || int64(h.info.N) > maxShardN ||
				h.info.Count > maxShardCount || h.domainBits > maxShardDomainBits ||
				h.pk.N.Bit(0) == 0 || h.pk.N.BitLen() < 64 {
				t.Fatalf("decodeHello accepted out-of-bounds shape: %+v", h.info)
			}
		}
		reply := &mpc.Message{Op: OpShardTopK, Ints: ints}
		for _, secure := range []bool{true, false} {
			want := replyLayout(fixed.pk, fm, fixed.info.AttrBits, fl, secure)
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
