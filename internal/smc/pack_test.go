package smc

import (
	"crypto/rand"
	"math/big"
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
