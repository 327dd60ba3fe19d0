package smc

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/testkit"
)

// opCounter counts request frames by opcode.
type opCounter struct{ sent map[mpc.Op]int }

func (c *opCounter) observe(dir mpc.Direction, m *mpc.Message) {
	if dir != mpc.DirSend {
		return
	}
	if c.sent == nil {
		c.sent = make(map[mpc.Op]int)
	}
	c.sent[m.Op]++
}

// constReader yields one byte forever: rand.Int over a power-of-two
// bound takes its low bits from the last byte read, so 0xAA makes every
// short blind even and 0x55 every one odd.
type constReader byte

func (c constReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c)
	}
	return len(p), nil
}

// parityReader yields pseudo-random bytes but forces the low bit of the
// last byte of every read: rand.Int draws each candidate in one read and
// takes the value's low bit from that byte, so every short blind gets
// that parity, while a draw below a bound that is not a power of two —
// a nonce exponent — still finds a value under it, which the constant
// bytes of constReader need not.
type parityReader struct {
	src    *mrand.Rand
	parity byte
}

func (r parityReader) Read(p []byte) (int, error) {
	r.src.Read(p)
	if len(p) > 0 {
		p[len(p)-1] = p[len(p)-1]&^1 | r.parity
	}
	return len(p), nil
}

// TestMSBOncePackedMatchesPlaintext drives the bit peel directly on the
// t = 2^l + a − b values the value-domain SMIN feeds it, against the
// plaintext MSB [a ≥ b]: with every blind even (the reply bits stay in
// the remainder as they are), every blind odd (each squared in, with a
// constant) and mixed, at pair counts on both sides of each group boundary,
// over the corner pairs of the domain. The output round's operand must
// come back as E(y·(x + ρ)) for the bit y C2 read, so msb·x is one
// exponentiation away.
func TestMSBOncePackedMatchesPlaintext(t *testing.T) {
	const l = 8
	const top = 1<<l - 1
	corners := [][2]int64{{0, 0}, {0, top}, {top, 0}, {top, top}, {77, 77}, {3, 200}, {200, 3}, {128, 127}}
	rq, sk := pair(t)
	codec, err := rq.packCodec(l + 1)
	if err != nil {
		t.Fatal(err)
	}
	s := codec.Slots
	if s < 2 {
		t.Fatalf("test key packs %d slots; the boundary counts need 2", s)
	}
	blinds := []struct {
		name   string
		r      io.Reader
		parity int // the lsb every blind must have; −1 = either
	}{
		{"even", parityReader{mrand.New(mrand.NewSource(3)), 0}, 0},
		{"odd", parityReader{mrand.New(mrand.NewSource(4)), 1}, 1},
		{"mixed", mrand.New(mrand.NewSource(5)), -1},
	}
	for _, bl := range blinds {
		rq.rand = bl.r
		if r, err := rq.shortBlind(l); err != nil || (bl.parity >= 0 && int(r.Bit(0)) != bl.parity) {
			t.Fatalf("%s reader drew blind %v (err %v)", bl.name, r, err)
		}
		for _, n := range []int{1, s - 1, s, s + 1, 2*s + 1} {
			zs := make([]*paillier.Ciphertext, n)
			xs := make([][]*paillier.Ciphertext, n)
			want := make([]int64, n)
			for i := range zs {
				c := corners[(i+n)%len(corners)]
				tv := int64(1<<l) + c[0] - c[1]
				zs[i] = enc(t, sk, tv)
				xs[i] = encVec(t, sk, int64(1<<l)+c[1]-c[0])
				want[i] = tv >> l
			}
			outs, err := rq.msbOncePacked(zs, xs, l+1, l+1, codec)
			if err != nil {
				t.Fatalf("%s blinds, %d values: %v", bl.name, n, err)
			}
			if len(outs) != n {
				t.Fatalf("%s blinds: %d outputs for %d values", bl.name, len(outs), n)
			}
			for i, o := range outs {
				y := dec(t, sk, o.Y)
				msb := y
				if o.Flip {
					msb = 1 - y
				}
				if msb != want[i] {
					t.Errorf("%s blinds, %d values: msb[%d] = %d, want %d", bl.name, n, i, msb, want[i])
				}
				w := new(big.Int).Add(big.NewInt(dec(t, sk, xs[i][0])), o.Rho[0])
				yw, err := sk.Decrypt(o.YW[0])
				if err != nil {
					t.Fatal(err)
				}
				if w.Mul(w, big.NewInt(y)); yw.Cmp(w) != 0 {
					t.Errorf("%s blinds, %d values: y·w[%d] = %v, want %v", bl.name, n, i, yw, w)
				}
			}
		}
	}
}

// alternatingReader is parityReader with the forced parity flipping on
// every read, so consecutive short blinds alternate even and odd and
// every slot group of two or more holds both.
type alternatingReader struct {
	src   *mrand.Rand
	reads int
}

func (r *alternatingReader) Read(p []byte) (int, error) {
	r.src.Read(p)
	if len(p) > 0 {
		p[len(p)-1] = p[len(p)-1]&^1 | byte(r.reads&1)
	}
	r.reads++
	return len(p), nil
}

// TestPeelLeavesC2ItsOwnBits pins what C2 decrypts in the bit peel: in
// every round j ≥ 1, output round included, each slot's low j bits are
// the bits C2 itself returned for that value in rounds 0…j−1 — C1
// leaves each peeled bit as C2's reply bit rather than the value's own
// bit or zero, so C2's view below the window is its own earlier view.
// An observer holding the key wraps the genuine responder, with every
// blind even, every one odd and alternating, at value counts across a
// group boundary.
func TestPeelLeavesC2ItsOwnBits(t *testing.T) {
	const L = 9
	sk := testKey()
	c2 := NewResponder(sk, nil).Mux()
	var (
		replied [][]uint // replied[i][j]: the bit C2 returned for value i in round j
		checked int      // slots whose low bits were compared
	)
	observer := mpc.HandlerFunc(func(req *mpc.Message) (*mpc.Message, error) {
		count, vb, shift := int(req.Ints[0].Int64()), int(req.Ints[1].Int64()), int(req.Ints[2].Int64())
		codec, err := paillier.NewPacking(&sk.PublicKey, vb)
		if err != nil {
			return nil, err
		}
		if shift == 0 {
			replied = make([][]uint, count)
		}
		groups := req.Ints[3:]
		if shift == vb-1 {
			groups = req.Ints[5:] // [per, opBits] precede the groups
		}
		for g := 0; g < codec.Groups(count); g++ {
			ct, err := sk.FromRaw(groups[g])
			if err != nil {
				return nil, err
			}
			slots, err := codec.UnpackDecrypt(sk, ct, min(codec.Slots, count-g*codec.Slots))
			if err != nil {
				return nil, err
			}
			for s, v := range slots {
				i := g*codec.Slots + s
				for b := 0; b < shift; b++ {
					if v.Bit(b) != replied[i][b] {
						t.Errorf("round %d, value %d: C2 decrypts bit %d = %d, but returned %d for it",
							shift, i, b, v.Bit(b), replied[i][b])
					}
				}
				if shift > 0 {
					checked++
				}
			}
		}
		resp, err := c2.Handle(req)
		if err != nil || shift == vb-1 {
			return resp, err
		}
		for i, raw := range resp.Ints {
			z, err := sk.FromRaw(raw)
			if err != nil {
				return nil, err
			}
			bit, err := sk.Decrypt(z)
			if err != nil {
				return nil, err
			}
			replied[i] = append(replied[i], bit.Bit((i%codec.Slots)*codec.Width+shift))
		}
		return resp, nil
	})
	rq := servedBy(t, sk, observer)
	codec, err := rq.packCodec(L)
	if err != nil {
		t.Fatal(err)
	}
	s := codec.Slots
	if s < 2 {
		t.Fatalf("test key packs %d slots; a group boundary needs 2", s)
	}
	for _, bl := range []struct {
		name string
		r    io.Reader
	}{
		{"even", parityReader{mrand.New(mrand.NewSource(6)), 0}},
		{"odd", parityReader{mrand.New(mrand.NewSource(7)), 1}},
		{"alternating", &alternatingReader{src: mrand.New(mrand.NewSource(8))}},
	} {
		rq.rand = bl.r
		for _, n := range []int{s + 1, 2*s + 1} {
			zs := make([]*paillier.Ciphertext, n)
			xs := make([][]*paillier.Ciphertext, n)
			for i := range zs {
				zs[i] = enc(t, sk, int64(0x1b5*(i+1))%(1<<L))
				xs[i] = encVec(t, sk, int64(i))
			}
			checked = 0
			if _, err := rq.msbOncePacked(zs, xs, L, L, codec); err != nil {
				t.Fatalf("%s blinds, %d values: %v", bl.name, n, err)
			}
			if checked != n*(L-1) {
				t.Errorf("%s blinds, %d values: %d slots checked, want %d", bl.name, n, checked, n*(L-1))
			}
		}
	}
}

// TestMSBOncePackedRefusesForeignCodec: C2 tells peeling rounds from the
// output round by the codec's ValueBits, so a peel of L bits under a
// codec of another width would have its last reply mis-shifted; it must
// be refused before any frame is sent, as must an operand list that does
// not match the values.
func TestMSBOncePackedRefusesForeignCodec(t *testing.T) {
	rq, sk := pair(t)
	tap := &opCounter{}
	rq.conn = mpc.Tap(rq.conn, tap.observe)
	codec, err := rq.packCodec(9)
	if err != nil {
		t.Fatal(err)
	}
	one := [][]*paillier.Ciphertext{encVec(t, sk, 1)}
	for _, L := range []int{8, 10} {
		if _, err := rq.msbOncePacked(encVec(t, sk, 5), one, 9, L, codec); err == nil {
			t.Errorf("L = %d accepted under a %d-bit codec", L, codec.ValueBits)
		}
	}
	for name, xs := range map[string][][]*paillier.Ciphertext{
		"two values' operands for one value": {encVec(t, sk, 1), encVec(t, sk, 2)},
		"no operand":                         {nil},
	} {
		if _, err := rq.msbOncePacked(encVec(t, sk, 5), xs, 9, 9, codec); !errors.Is(err, ErrLengthMismatch) {
			t.Errorf("%s: err = %v, want ErrLengthMismatch", name, err)
		}
	}
	if _, err := rq.msbOncePacked(encVec(t, sk, 5, 6), [][]*paillier.Ciphertext{encVec(t, sk, 1, 2), encVec(t, sk, 3)}, 9, 9, codec); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("ragged operands: err = %v, want ErrLengthMismatch", err)
	}
	if len(tap.sent) != 0 {
		t.Errorf("refused peel still sent ops %v", tap.sent)
	}
}

// TestHandleSBDPackBitReplyPlacement pins the wire semantics of the
// shifted bit round: reply element i carries bit `shift` of its slot at
// plaintext position (i mod Slots)·Width + shift while shift <
// valueBits−1, and as a plain bit in the output round, which also takes
// per operands per value, packed at their own opBits across group
// boundaries, and answers bit·operand after the bits, value by value.
func TestHandleSBDPackBitReplyPlacement(t *testing.T) {
	const vb, per, opBits = 9, 3, 40
	sk := testKey()
	mux := NewResponder(sk, nil).Mux()
	codec, err := paillier.NewPacking(&sk.PublicKey, vb)
	if err != nil {
		t.Fatal(err)
	}
	opCodec, err := paillier.NewPacking(&sk.PublicKey, opBits)
	if err != nil {
		t.Fatal(err)
	}
	n := codec.Slots + 1
	vals := make([]*big.Int, n)
	operands := make([]*big.Int, n*per)
	for i := range vals {
		vals[i] = big.NewInt(int64(0x155 >> (i % 2))) // alternating bit patterns
	}
	for i := range operands {
		operands[i] = new(big.Int).Lsh(big.NewInt(int64(i+1)), opBits+40) // wider than the payload: blinded
	}
	packed := func(c *paillier.Packing, vs []*big.Int) []*big.Int {
		var out []*big.Int
		for lo := 0; lo < len(vs); lo += c.Slots {
			ct, err := c.PackEncrypt(rand.Reader, vs[lo:min(len(vs), lo+c.Slots)])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ct.Raw())
		}
		return out
	}
	for _, shift := range []int{0, 3, vb - 2, vb - 1} {
		req := []*big.Int{big.NewInt(int64(n)), big.NewInt(vb), big.NewInt(int64(shift))}
		want := n
		if shift == vb-1 {
			req = append(append(req, big.NewInt(per), big.NewInt(opBits)), packed(codec, vals)...)
			req = append(req, packed(opCodec, operands)...)
			want += n * per
		} else {
			req = append(req, packed(codec, vals)...)
		}
		resp, err := mux.Handle(&mpc.Message{Op: OpSBDPackBit, Ints: req})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Ints) != want {
			t.Fatalf("shift %d: %d reply elements for %d values, want %d", shift, len(resp.Ints), n, want)
		}
		for i, raw := range resp.Ints {
			ct, err := sk.FromRaw(raw)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sk.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			v := i
			if i >= n {
				v = (i - n) / per
			}
			want := new(big.Int).SetUint64(uint64(vals[v].Bit(shift)))
			switch {
			case shift < vb-1:
				want.Lsh(want, uint((i%codec.Slots)*codec.Width+shift))
			case i >= n:
				want.Mul(want, operands[i-n])
			}
			if got.Cmp(want) != 0 {
				t.Errorf("shift %d, element %d = %v, want %v", shift, i, got, want)
			}
		}
	}
}

// TestPackBlindedRerandomizesEveryGroup: each group of the blinded
// operand uplink decrypts to its values plus their blinds, slot by slot,
// and is not the ciphertext the Horner fold of those values yields — the
// fold of stored ciphertexts has a nonce C2 could recover and recognize
// in a later round — but a fresh re-randomization of it.
func TestPackBlindedRerandomizesEveryGroup(t *testing.T) {
	rq, sk := pair(t)
	const vb = 30
	codec, err := rq.packCodec(vb)
	if err != nil {
		t.Fatal(err)
	}
	n := 2*codec.Slots + 1
	xs := make([]*paillier.Ciphertext, n)
	for i := range xs {
		xs[i] = enc(t, sk, int64(1<<vb-1-i))
	}
	folded, err := packRuns(codec, xs, codec.Slots)
	if err != nil {
		t.Fatal(err)
	}
	groups, rhos, err := rq.PackBlinded(folded, n, codec)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != codec.Groups(n) || len(rhos) != n {
		t.Fatalf("%d groups and %d blinds for %d values, want %d and %d", len(groups), len(rhos), n, codec.Groups(n), n)
	}
	for g, ct := range groups {
		lo, hi := g*codec.Slots, min(n, (g+1)*codec.Slots)
		slots, err := codec.UnpackDecrypt(sk, ct, hi-lo)
		if err != nil {
			t.Fatal(err)
		}
		blinded := make([]*paillier.Ciphertext, 0, hi-lo)
		for i := lo; i < hi; i++ {
			want := new(big.Int).Add(big.NewInt(dec(t, sk, xs[i])), rhos[i])
			if slots[i-lo].Cmp(want) != 0 {
				t.Errorf("group %d slot %d = %v, want %v", g, i-lo, slots[i-lo], want)
			}
			blinded = append(blinded, rq.pk.AddPlain(xs[i], rhos[i]))
		}
		fold, err := codec.PackCiphertexts(blinded)
		if err != nil {
			t.Fatal(err)
		}
		if fold.Raw().Cmp(ct.Raw()) == 0 {
			t.Errorf("group %d went out as the bare fold of its values", g)
		}
	}
}

// TestPeelFoldNeverOutlivesTheCall: the output round's operand fold runs
// on a goroutine of its own beside the peeling rounds, and it is joined
// on every way out — when C2 fails the output round, and when the
// query's context is canceled mid-peel while the fold (here 96 pairs of
// two record chunks: 144 slot groups) is still running. Right after the
// call returns no goroutine is folding, and once the link is torn down
// the goroutine count is back to its baseline.
func TestPeelFoldNeverOutlivesTheCall(t *testing.T) {
	const l, recBits, pairs = 8, 20, 96
	sk := testKey()
	c2 := NewResponder(sk, nil).Mux()
	batch := make([]SMINValuePair, pairs)
	for i := range batch {
		batch[i] = SMINValuePair{A: enc(t, sk, int64(i)), B: enc(t, sk, int64(pairs-i)),
			RecA: encVec(t, sk, 1, 2), RecB: encVec(t, sk, 3, 4)}
	}
	for _, tc := range []struct {
		name     string
		cancelAt int // the peeling round whose request cancels the query; −1: C2 fails the output round
	}{{"C2 fails the output round", -1}, {"canceled mid-peel", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			release := make(chan struct{}) // holds the canceled round's reply back until the call has returned
			handler := mpc.HandlerFunc(func(req *mpc.Message) (*mpc.Message, error) {
				if req.Op == OpSBDPackBit {
					vb, shift := req.Ints[1].Int64(), int(req.Ints[2].Int64())
					if tc.cancelAt < 0 && shift == int(vb)-1 {
						return nil, errors.New("C2 refuses the output round")
					}
					if shift == tc.cancelAt {
						cancel()
						<-release
					}
				}
				return c2.Handle(req)
			})
			c1Conn, c2Conn := mpc.ChanPipe()
			served := make(chan error, 1)
			go func() { served <- mpc.Serve(c2Conn, handler) }()
			mux := mpc.NewMultiplexer(c1Conn)
			stream, err := mux.OpenContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = NewRequester(&sk.PublicKey, stream, nil).SMINValuePairsBatch(batch, l, recBits)
			if err == nil {
				t.Fatal("the comparator batch succeeded")
			}
			if tc.cancelAt >= 0 && !errors.Is(err, mpc.ErrCanceled) {
				t.Fatalf("canceled mid-peel: err = %v, want ErrCanceled", err)
			}
			// A joined fold may still be leaving its goroutine, past the
			// signal the call waited for, but none may still be folding.
			stacks := make([]byte, 1<<20)
			for _, st := range strings.Split(string(stacks[:runtime.Stack(stacks, true)]), "\n\n") {
				if strings.Contains(st, "msbOncePacked") && strings.Contains(st, "PackCiphertexts") {
					t.Fatalf("the peel's operand fold outlived the call:\n%s", st)
				}
			}
			close(release)
			stream.Close()
			if err := mpc.SendClose(mux.Conn()); err != nil {
				t.Fatal(err)
			}
			if err := mux.Close(); err != nil {
				t.Fatal(err)
			}
			<-served
			// C2's nonce raiser exits on its own a moment later.
			for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines before the call, %d after", before, runtime.NumGoroutine())
				}
			}
		})
	}
}

// TestSSEDManyPackedMatchesPerAttributeUnblind: C1 strips SSED's blinds
// with one multi-exponentiation per record, and every distance it
// returns is the group element the per-attribute loop it replaced —
// one ScalarMul and one Add per attribute, copied here — computes from
// the same C2 reply and the same blinds, so frames and results stay
// bit-identical. The blinds are drawn again from the requester's seed in
// the kernel's order; the reply is read off the wire. Both of the
// benchmark's shapes, at its key size.
func TestSSEDManyPackedMatchesPerAttributeUnblind(t *testing.T) {
	sk := testkit.Key(512)
	pk := &sk.PublicKey
	for _, shape := range []struct{ n, m, b int }{{32, 6, 8}, {8, 6, 4}} {
		t.Run(fmt.Sprintf("n=%d,m=%d,b=%d", shape.n, shape.m, shape.b), func(t *testing.T) {
			rng := mrand.New(mrand.NewSource(int64(shape.n)))
			vals := func() []int64 {
				v := make([]int64, shape.m)
				for j := range v {
					v[j] = rng.Int63n(1 << shape.b)
				}
				return v
			}
			qv := vals()
			q := encVec(t, sk, qv...)
			rowsV := make([][]int64, shape.n)
			rows := make([][]*paillier.Ciphertext, shape.n)
			for i := range rows {
				rowsV[i] = vals()
				rows[i] = encVec(t, sk, rowsV[i]...)
			}
			packed := packRows(t, pk, shape.b, rows)

			rq := pairOn(t, sk)
			var reply []*big.Int
			rq.conn = mpc.Tap(rq.conn, func(dir mpc.Direction, m *mpc.Message) {
				if dir == mpc.DirRecv && m.Op == OpSSEDPack {
					reply = m.Ints
				}
			})
			const seed = 5
			rq.rand = mrand.New(mrand.NewSource(seed))
			got, err := rq.SSEDManyPacked(q, rows, packed)
			if err != nil {
				t.Fatal(err)
			}
			if len(reply) != shape.n {
				t.Fatalf("reply of %d ints for %d records", len(reply), shape.n)
			}

			rq.rand = mrand.New(mrand.NewSource(seed))
			invQ := pk.InvMany(q)
			offset := new(big.Int).Lsh(big.NewInt(1), uint(shape.b))
			for i, row := range rows {
				acc, err := pk.FromRaw(reply[i])
				if err != nil {
					t.Fatal(err)
				}
				sumC2 := new(big.Int)
				for j := range row {
					r, err := rq.shortBlind(shape.b)
					if err != nil {
						t.Fatal(err)
					}
					c := r.Add(r, offset)
					term := pk.ScalarMul(pk.Add(invQ[j], row[j]), new(big.Int).Lsh(c, 1))
					acc = pk.Add(acc, term)
					sumC2.Add(sumC2, new(big.Int).Mul(c, c))
				}
				if want := pk.AddPlain(acc, sumC2.Neg(sumC2)); !got[i].Equal(want) {
					t.Errorf("record %d: %v, want the per-attribute loop's %v", i, got[i], want)
				}
				var wantDist int64
				for j := range qv {
					wantDist += (qv[j] - rowsV[i][j]) * (qv[j] - rowsV[i][j])
				}
				if d := dec(t, sk, got[i]); d != wantDist {
					t.Errorf("record %d: distance %d, want %d", i, d, wantDist)
				}
			}
		})
	}
}

// TestSSEDManyPackedBorrowStaysInSlot is the headroom regression, on the
// kernel that relies on it: packed SSED subtracts record from query
// slotwise, and a subtraction that borrows (qⱼ < tⱼ) must be absorbed
// entirely by that slot's offset 2^B + rⱼ — the neighbour slots stay
// bit-exact. Every blind is forced to its maximum 2^(B+σ) − 1, the
// largest value the kernel ever adds to a slot; a headroom narrower than
// that would let the borrow or the carry ripple into slot j+1. The
// uplink is read off the wire and decrypted slot by slot.
func TestSSEDManyPackedBorrowStaysInSlot(t *testing.T) {
	rq, sk := pair(t)
	const B = 8
	qv := []int64{5, 255, 0}
	tv := []int64{250, 0, 255} // slots 0 and 2 borrow
	q := encVec(t, sk, qv...)
	rows := [][]*paillier.Ciphertext{encVec(t, sk, tv...)}
	packed := packRows(t, rq.PK(), B, rows)
	if packed.Codec.Slots < len(qv) {
		t.Fatalf("need %d slots for the neighbour check, have %d", len(qv), packed.Codec.Slots)
	}

	var uplink []*big.Int
	rq.conn = mpc.Tap(rq.conn, func(dir mpc.Direction, m *mpc.Message) {
		if dir == mpc.DirSend && m.Op == OpSSEDPack {
			uplink = m.Ints
		}
	})
	rq.rand = constReader(0xFF)
	ds, err := rq.SSEDManyPacked(q, rows, packed)
	if err != nil {
		t.Fatal(err)
	}

	if len(uplink) != 4 {
		t.Fatalf("uplink of %d ints, want header of 3 and one group", len(uplink))
	}
	ct, err := sk.FromRaw(uplink[3])
	if err != nil {
		t.Fatal(err)
	}
	slots, err := packed.Codec.UnpackDecrypt(sk, ct, len(qv))
	if err != nil {
		t.Fatal(err)
	}
	maxBlind := new(big.Int).Lsh(big.NewInt(1), B+statSecBits)
	maxBlind.Sub(maxBlind, big.NewInt(1))
	var wantDist int64
	for j := range qv {
		want := big.NewInt(qv[j] - tv[j] + 1<<B)
		want.Add(want, maxBlind)
		if slots[j].Cmp(want) != 0 {
			t.Errorf("slot %d = %v, want %v (borrow crossed a slot boundary)", j, slots[j], want)
		}
		wantDist += (qv[j] - tv[j]) * (qv[j] - tv[j])
	}
	if got := dec(t, sk, ds[0]); got != wantDist {
		t.Errorf("distance = %d, want %d", got, wantDist)
	}
}
