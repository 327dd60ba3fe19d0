package gateway

import (
	"errors"
	"math/big"
	"testing"

	"sknn/internal/core"
	"sknn/internal/mpc"
	"sknn/internal/testkit"
)

// gateResult builds a result frame declaring k records of m columns in
// the given layout, followed by the given shares (masks, then masked).
func gateResult(k, m int, layout core.RowLayout, shares ...int64) *mpc.Message {
	ints := []*big.Int{
		big.NewInt(int64(k)), big.NewInt(int64(m)), big.NewInt(0),
		big.NewInt(int64(layout.Cols)), big.NewInt(int64(layout.Bits)),
	}
	for _, s := range shares {
		ints = append(ints, big.NewInt(s))
	}
	return &mpc.Message{Op: OpGateQuery, Ints: ints}
}

// TestGateResultLayouts: the client accepts per-attribute and row-packed
// result frames whose layout fits the table shape it was welcomed with,
// round-trips them through the encoder, and rejects — as ErrBadFrame —
// frames whose layout, chunk count or slot width does not.
func TestGateResultLayouts(t *testing.T) {
	pk := &testkit.Key(256).PublicKey
	bob := core.NewClient(pk, nil)
	const k, m = 1, 5

	// [t0 t1 t2] [t3 t4] in 4-bit slots, zero masks.
	packed := gateResult(k, m, core.RowLayout{Cols: 3, Bits: 4}, 0, 0, 0x90f, 0xf1)
	res, err := decodeGateResult(pk, k, m, packed)
	if err != nil {
		t.Fatalf("packed result: %v", err)
	}
	again, err := decodeGateResult(pk, k, m, encodeGateResult(res))
	if err != nil {
		t.Fatalf("re-encoded packed result: %v", err)
	}
	rows, err := bob.Unmask(again)
	if err != nil || len(rows) != 1 || len(rows[0]) != m ||
		rows[0][0] != 15 || rows[0][1] != 0 || rows[0][2] != 9 || rows[0][3] != 1 || rows[0][4] != 15 {
		t.Fatalf("packed rows = %v, %v", rows, err)
	}
	plain := gateResult(k, m, core.RowLayout{Cols: 1}, 0, 0, 0, 0, 0, 15, 0, 9, 1, 15)
	if _, err := decodeGateResult(pk, k, m, plain); err != nil {
		t.Fatalf("per-attribute result: %v", err)
	}

	bad := map[string]*mpc.Message{
		"pre-layout 3-field header":         {Op: OpGateQuery, Ints: plain.Ints[:3]},
		"zero cols":                         gateResult(k, m, core.RowLayout{Cols: 0, Bits: 4}, 0, 0),
		"negative cols":                     gateResult(k, m, core.RowLayout{Cols: -3, Bits: 4}, 0, 0),
		"cols over m":                       gateResult(k, m, core.RowLayout{Cols: 6, Bits: 4}, 0, 0),
		"packed without a slot width":       gateResult(k, m, core.RowLayout{Cols: 3}, 0, 0, 1, 1),
		"row wider than the key":            gateResult(k, m, core.RowLayout{Cols: 5, Bits: 64}, 0, 1),
		"huge slot width":                   gateResult(k, m, core.RowLayout{Cols: 5, Bits: 1 << 40}, 0, 1),
		"negative slot width":               gateResult(k, m, core.RowLayout{Cols: 1, Bits: -1}, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5),
		"per-attribute payload, packed hdr": gateResult(k, m, core.RowLayout{Cols: 3, Bits: 4}, 0, 0, 0, 0, 0, 15, 0, 9, 1, 15),
		"packed payload, per-attribute hdr": gateResult(k, m, core.RowLayout{Cols: 1}, 0, 0, 0x90f, 0xf1),
	}
	for name, msg := range bad {
		if _, err := decodeGateResult(pk, k, m, msg); !errors.Is(err, core.ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
	// A frame that decodes but whose unmasked share spills past its slots
	// is caught where the slots are split.
	spill, err := decodeGateResult(pk, k, m, gateResult(k, m, core.RowLayout{Cols: 3, Bits: 4}, 0, 0, 0x1000, 0xf1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Unmask(spill); !errors.Is(err, core.ErrBadFrame) {
		t.Errorf("share with bits beyond its slots: err = %v, want ErrBadFrame", err)
	}
}

// TestGateWelcomeModulus: a welcome round-trips the tenant's key, and an
// otherwise valid one carrying a modulus no Paillier key has is
// ErrBadFrame at the handshake.
func TestGateWelcomeModulus(t *testing.T) {
	pk := &testkit.Key(256).PublicKey
	w, err := decodeGateWelcome(encodeGateWelcome(pk.N, 10, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !w.pk.Equal(pk) || w.n != 10 || w.m != 5 || w.featureM != 3 {
		t.Fatalf("welcome = %+v", w)
	}
	for name, mod := range testkit.HostileModuli() {
		msg := encodeGateWelcome(pk.N, 10, 5, 3)
		msg.Ints[0] = mod
		if _, err := decodeGateWelcome(msg); !errors.Is(err, core.ErrBadFrame) {
			t.Errorf("modulus %s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

// FuzzGateResult feeds the welcome decoder, the result decoder and Bob's
// unmasking arbitrary frames: a typed error, or a key of a legal modulus
// and rows of the welcomed shape — never a panic.
func FuzzGateResult(f *testing.F) {
	pk := &testkit.Key(256).PublicKey
	bob := core.NewClient(pk, nil)
	const k, m = 2, 5
	flat := func(msg *mpc.Message) []byte {
		var out []byte
		for _, v := range msg.Ints {
			b := v.Bytes()
			out = append(out, byte(len(b)))
			out = append(out, b...)
		}
		return out
	}
	f.Add(flat(gateResult(1, m, core.RowLayout{Cols: 3, Bits: 4}, 0, 0, 0x90f, 0xf1)))
	f.Add(flat(gateResult(2, m, core.RowLayout{Cols: 5, Bits: 6}, 1, 2, 3, 4)))
	f.Add(flat(gateResult(1, m, core.RowLayout{Cols: 1}, 0, 0, 0, 0, 0, 15, 0, 9, 1, 15)))
	f.Add(flat(gateResult(1, m, core.RowLayout{Cols: 4, Bits: 200}, 0, 0, 1, 1)))
	f.Add([]byte{})
	f.Add(flat(encodeGateWelcome(pk.N, 10, m, 3)))
	for _, mod := range testkit.HostileModuli() {
		if mod != nil && mod.Sign() >= 0 { // what the byte layout below can carry
			f.Add(flat(encodeGateWelcome(mod, 10, m, 3)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ints []*big.Int
		for len(data) > 0 && len(ints) < 64 {
			n := int(data[0])
			data = data[1:]
			if n > len(data) {
				n = len(data)
			}
			v := new(big.Int).SetBytes(data[:n])
			if n > 0 && data[0] == 0 {
				v = nil
			}
			data = data[n:]
			ints = append(ints, v)
		}
		if w, err := decodeGateWelcome(&mpc.Message{Op: OpGateAuth, Ints: ints}); err == nil {
			if w.pk.N.Bit(0) == 0 || w.pk.N.BitLen() < 64 || w.m < 1 || w.m > maxGateM || w.featureM > w.m {
				t.Fatalf("decodeGateWelcome accepted N of %d bits, table %d/%d", w.pk.N.BitLen(), w.m, w.featureM)
			}
		}
		res, err := decodeGateResult(pk, k, m, &mpc.Message{Op: OpGateQuery, Ints: ints})
		if err != nil {
			return
		}
		rows, err := bob.Unmask(res)
		if err != nil {
			return
		}
		if len(rows) < 1 || len(rows) > k {
			t.Fatalf("%d rows for k=%d", len(rows), k)
		}
		for _, row := range rows {
			if len(row) != m {
				t.Fatalf("row of %d columns, want %d", len(row), m)
			}
		}
	})
}
