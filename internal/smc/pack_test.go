package smc

import (
	"crypto/rand"
	"io"
	"math/big"
	mrand "math/rand"
	"testing"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// TestSMBoundedSelectorTimesWideOperand is the extraction product: a
// 1-bit selector against a row-packed operand as wide as still rides the
// packed uplink, and one bit past it (which must fall back to the classic
// SM, not mis-pack). Both must return the operand or zero exactly.
func TestSMBoundedSelectorTimesWideOperand(t *testing.T) {
	rq, sk := pair(t)
	wide := SMPackOperandBits(rq.PK())
	if wide < 2 {
		t.Fatalf("test key packs no SM pair (%d operand bits)", wide)
	}
	tap := &opCounter{}
	rq.conn = mpc.Tap(rq.conn, tap.observe)
	for _, bits := range []int{wide, wide + 1} {
		tap.sent = nil
		operand := new(big.Int).Lsh(big.NewInt(1), uint(bits))
		operand.Sub(operand, big.NewInt(1)) // all ones: every slot bit set
		b, err := sk.Encrypt(rand.Reader, operand)
		if err != nil {
			t.Fatal(err)
		}
		prods, err := rq.SMBatchBounded(
			[]*paillier.Ciphertext{enc(t, sk, 1), enc(t, sk, 0), enc(t, sk, 1)},
			[]*paillier.Ciphertext{b, b, b}, 1, bits)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []*big.Int{operand, new(big.Int), operand} {
			got, err := sk.Decrypt(prods[i])
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Errorf("%d-bit operand, product %d = %v, want %v", bits, i, got, want)
			}
		}
		wantOp := OpSMPack
		if bits > wide {
			wantOp = OpSM
		}
		if tap.sent[wantOp] != 1 || len(tap.sent) != 1 {
			t.Errorf("%d-bit operand sent ops %v, want one op %d", bits, tap.sent, wantOp)
		}
	}
}

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

// TestMSBOncePackedMatchesPlaintext drives the bit peel directly on the
// t = 2^l + a − b values the value-domain SMIN feeds it, against the
// plaintext MSB [a ≥ b]: with every blind even (the reply bits are
// cleared by inversion only), every blind odd (by product and constant
// only) and mixed, at pair counts on both sides of each group boundary,
// over the corner pairs of the domain.
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
		{"even", constReader(0xAA), 0},
		{"odd", constReader(0x55), 1},
		{"mixed", mrand.New(mrand.NewSource(5)), -1},
	}
	for _, bl := range blinds {
		rq.rand = bl.r
		if r, err := rq.shortBlind(l); err != nil || (bl.parity >= 0 && int(r.Bit(0)) != bl.parity) {
			t.Fatalf("%s reader drew blind %v (err %v)", bl.name, r, err)
		}
		for _, n := range []int{1, s - 1, s, s + 1, 2*s + 1} {
			zs := make([]*paillier.Ciphertext, n)
			want := make([]int64, n)
			for i := range zs {
				c := corners[(i+n)%len(corners)]
				tv := int64(1<<l) + c[0] - c[1]
				zs[i] = enc(t, sk, tv)
				want[i] = tv >> l
			}
			bits, err := rq.msbOncePacked(zs, l+1, codec)
			if err != nil {
				t.Fatalf("%s blinds, %d values: %v", bl.name, n, err)
			}
			if len(bits) != n {
				t.Fatalf("%s blinds: %d bits for %d values", bl.name, len(bits), n)
			}
			for i := range bits {
				if got := dec(t, sk, bits[i]); got != want[i] {
					t.Errorf("%s blinds, %d values: msb[%d] = %d, want %d", bl.name, n, i, got, want[i])
				}
			}
		}
	}
}

// TestMSBOncePackedRefusesForeignCodec: C2 tells peeling rounds from the
// output round by the codec's ValueBits, so a peel of L bits under a
// codec of another width would have its last reply mis-shifted; it must
// be refused before any frame is sent.
func TestMSBOncePackedRefusesForeignCodec(t *testing.T) {
	rq, sk := pair(t)
	tap := &opCounter{}
	rq.conn = mpc.Tap(rq.conn, tap.observe)
	codec, err := rq.packCodec(9)
	if err != nil {
		t.Fatal(err)
	}
	for _, L := range []int{8, 10} {
		if _, err := rq.msbOncePacked(encVec(t, sk, 5), L, codec); err == nil {
			t.Errorf("L = %d accepted under a %d-bit codec", L, codec.ValueBits)
		}
	}
	if len(tap.sent) != 0 {
		t.Errorf("refused peel still sent ops %v", tap.sent)
	}
}

// TestHandleSBDPackBitReplyPlacement pins the wire semantics of the
// shifted bit round: reply element i carries bit `shift` of its slot at
// plaintext position (i mod Slots)·Width + shift while shift <
// valueBits−1, and as a plain bit in the output round.
func TestHandleSBDPackBitReplyPlacement(t *testing.T) {
	const vb = 9
	sk := testKey()
	mux := NewResponder(sk, nil).Mux()
	codec, err := paillier.NewPacking(&sk.PublicKey, vb)
	if err != nil {
		t.Fatal(err)
	}
	n := codec.Slots + 1
	vals := make([]*big.Int, n)
	for i := range vals {
		vals[i] = big.NewInt(int64(0x155 >> (i % 2))) // alternating bit patterns
	}
	req := []*big.Int{big.NewInt(int64(n)), big.NewInt(vb), nil}
	for lo := 0; lo < n; lo += codec.Slots {
		ct, err := codec.PackEncrypt(rand.Reader, vals[lo:min(n, lo+codec.Slots)])
		if err != nil {
			t.Fatal(err)
		}
		req = append(req, ct.Raw())
	}
	for _, shift := range []int{0, 3, vb - 2, vb - 1} {
		req[2] = big.NewInt(int64(shift))
		resp, err := mux.Handle(&mpc.Message{Op: OpSBDPackBit, Ints: req})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Ints) != n {
			t.Fatalf("shift %d: %d reply elements for %d values", shift, len(resp.Ints), n)
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
			want := new(big.Int).SetUint64(uint64(vals[i].Bit(shift)))
			if shift < vb-1 {
				want.Lsh(want, uint((i%codec.Slots)*codec.Width+shift))
			}
			if got.Cmp(want) != 0 {
				t.Errorf("shift %d, element %d = %v, want %v", shift, i, got, want)
			}
		}
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
