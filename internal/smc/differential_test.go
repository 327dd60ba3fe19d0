package smc

import (
	"math/rand"
	"testing"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// This file is the kernel-vs-paper conformance suite: every production
// kernel is run on the same requester and the same inputs as the paper
// primitive it stands in for — packed groups and short blinds against
// one ciphertext per value and full-range blinds — and both decryptions
// are checked against the plaintext. The paper primitive is the
// differential oracle; a slot-layout or blind-width bug shows up as a
// divergence here before it ever reaches a query.

func TestDifferentialSMBatchBounded(t *testing.T) {
	rq, sk := pair(t)
	rng := rand.New(rand.NewSource(11))
	const n, bits = 9, 16
	av := make([]int64, n)
	bv := make([]int64, n)
	for i := range av {
		av[i] = rng.Int63n(1 << bits)
		bv[i] = rng.Int63n(1 << bits)
	}
	av[0], bv[0] = 0, (1<<bits)-1 // zero × max edge
	as := encVec(t, sk, av...)
	bs := encVec(t, sk, bv...)

	packed, err := rq.SMBatchBounded(as, bs, bits, bits)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := rq.SMBatch(as, bs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range av {
		want := av[i] * bv[i]
		if got := dec(t, sk, packed[i]); got != want {
			t.Errorf("packed product[%d] = %d, want %d", i, got, want)
		}
		if got := dec(t, sk, paper[i]); got != want {
			t.Errorf("paper product[%d] = %d, want %d", i, got, want)
		}
	}
	if _, err := rq.SMBatchBounded(as, bs, 0, bits); err == nil {
		t.Error("zero-bit operand bound accepted")
	}
}

func TestDifferentialSSEDMany(t *testing.T) {
	rq, sk := pair(t)
	rng := rand.New(rand.NewSource(12))
	const n, m, attrBits = 7, 3, 8
	qv := make([]int64, m)
	for j := range qv {
		qv[j] = rng.Int63n(1 << attrBits)
	}
	rowsV := make([][]int64, n)
	for i := range rowsV {
		rowsV[i] = make([]int64, m)
		for j := range rowsV[i] {
			rowsV[i][j] = rng.Int63n(1 << attrBits)
		}
	}
	rowsV[0] = append([]int64(nil), qv...) // zero-distance edge

	q := encVec(t, sk, qv...)
	rows := make([][]*paillier.Ciphertext, n)
	for i := range rows {
		rows[i] = encVec(t, sk, rowsV[i]...)
	}
	dsP, err := rq.SSEDManyPacked(q, rows, packRows(t, rq.PK(), attrBits, rows))
	if err != nil {
		t.Fatal(err)
	}
	dsC, err := rq.SSEDMany(q, rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		var want int64
		for j := range qv {
			d := qv[j] - rowsV[i][j]
			want += d * d
		}
		if got := dec(t, sk, dsP[i]); got != want {
			t.Errorf("packed distance[%d] = %d, want %d", i, got, want)
		}
		if got := dec(t, sk, dsC[i]); got != want {
			t.Errorf("paper distance[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestDifferentialSBDBatch(t *testing.T) {
	rq, sk := pair(t)
	rng := rand.New(rand.NewSource(13))
	const l = 12
	vals := []uint64{0, 1, (1 << l) - 1, uint64(rng.Int63n(1 << l)), uint64(rng.Int63n(1 << l))}
	zs := make([]*paillier.Ciphertext, len(vals))
	for i, v := range vals {
		zs[i] = enc(t, sk, int64(v))
	}
	bits, err := rq.SBDBatch(zs, l)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got := decBits(t, sk, bits[i]); got != v {
			t.Errorf("SBD[%d] = %d, want %d", i, got, v)
		}
	}
}

// TestDifferentialSMIN runs the full comparison protocol against the
// plaintext min at the operand corners.
func TestDifferentialSMIN(t *testing.T) {
	rq, sk := pair(t)
	const l = 8
	cases := [][2]uint64{{3, 200}, {200, 3}, {77, 77}, {0, 255}, {255, 254}}
	for _, c := range cases {
		u := encBits(t, sk, c[0], l)
		v := encBits(t, sk, c[1], l)
		want := min(c[0], c[1])
		got, err := rq.SMIN(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if d := decBits(t, sk, got); d != want {
			t.Errorf("SMIN(%d,%d) = %d, want %d", c[0], c[1], d, want)
		}
	}
}

// TestDifferentialSMINValuePairs checks the value-domain minimum — the
// production tournament's comparison — against both the plaintext min
// and the paper's pipeline on the same ciphertexts: SBD of each operand,
// then the bit-vector SMIN. The two must agree on every pair even though
// one consumes composed values and the other bit vectors.
func TestDifferentialSMINValuePairs(t *testing.T) {
	rq, sk := pair(t)
	const l = 8
	plain := [][2]uint64{
		{3, 200}, {200, 3}, {77, 77}, {0, 255}, {255, 254},
		{0, 0}, {1, 0}, {128, 127}, {255, 255},
	}
	pairs := make([]SMINValuePair, len(plain))
	operands := make([]*paillier.Ciphertext, 0, 2*len(plain))
	for i, c := range plain {
		pairs[i] = SMINValuePair{A: enc(t, sk, int64(c[0])), B: enc(t, sk, int64(c[1]))}
		operands = append(operands, pairs[i].A, pairs[i].B)
	}
	minsV, err := rq.SMINValuePairsBatch(pairs, l)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := rq.SBDBatch(operands, l)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range plain {
		want := int64(min(c[0], c[1]))
		if got := dec(t, sk, minsV[i]); got != want {
			t.Errorf("value min(%d,%d) = %d, want %d", c[0], c[1], got, want)
		}
		minB, err := rq.SMIN(bits[2*i], bits[2*i+1])
		if err != nil {
			t.Fatal(err)
		}
		if got := int64(decBits(t, sk, minB)); got != want {
			t.Errorf("bit min(%d,%d) = %d, want %d", c[0], c[1], got, want)
		}
	}
}

func TestSMINnValuesTournament(t *testing.T) {
	rq, sk := pair(t)
	const l = 10
	cases := [][]int64{
		{42},                          // n = 1: no comparison at all
		{9, 4},                        // single pair
		{5, 5, 5},                     // all tied, odd carry
		{1023, 0, 512, 7, 7, 300},     // min duplicated
		{8, 7, 6, 5, 4, 3, 2, 1, 0},   // strictly decreasing, odd length
		{100, 200, 300, 400, 50, 600}, // min in the carry-prone tail
	}
	for _, vals := range cases {
		ds := encVec(t, sk, vals...)
		got, err := rq.SMINnValues(ds, l)
		if err != nil {
			t.Fatal(err)
		}
		want := vals[0]
		for _, v := range vals {
			want = min(want, v)
		}
		if d := dec(t, sk, got); d != want {
			t.Errorf("SMINnValues(%v) = %d, want %d", vals, d, want)
		}
	}
}

func TestHandleSBDPackBitValidation(t *testing.T) {
	sk := testKey()
	mux := NewResponder(sk, nil).Mux()
	bad := []*mpc.Message{
		{Op: OpSBDPackBit},
		{Op: OpSBDPackBit, Ints: bigInts(1)},
		{Op: OpSBDPackBit, Ints: bigInts(1, 8)},        // missing shift
		{Op: OpSBDPackBit, Ints: bigInts(1, 8, -1, 1)}, // negative shift
		{Op: OpSBDPackBit, Ints: bigInts(1, 8, 8, 1)},  // shift ≥ valueBits
		{Op: OpSBDPackBit, Ints: bigInts(1, 8, 0)},     // missing group ct
		{Op: OpSBDPackBit, Ints: bigInts(1, 8, 0, 0)},  // invalid ciphertext
	}
	for i, msg := range bad {
		if _, err := mux.Handle(msg); err == nil {
			t.Errorf("frame %d accepted", i)
		}
	}
}

func TestSMINValuePairsValidation(t *testing.T) {
	rq, sk := pair(t)
	if _, err := rq.SMINValuePairsBatch(nil, 8); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := rq.SMINValuePairsBatch([]SMINValuePair{{A: enc(t, sk, 1)}}, 8); err == nil {
		t.Error("nil operand accepted")
	}
	if _, err := rq.SMINValuePairsBatch(
		[]SMINValuePair{{A: enc(t, sk, 1), B: enc(t, sk, 2)}}, 0); err == nil {
		t.Error("l = 0 accepted")
	}
	if _, err := rq.SMINnValues(nil, 8); err == nil {
		t.Error("empty tournament accepted")
	}
}

// TestPackRowShape pins the row packer's group math: m attributes become
// ⌈m/Slots⌉ groups under the SSED codec, and ⌈m/c⌉ chunks that decrypt
// to t₁‖…‖t_c under a headroom-free row codec.
func TestPackRowShape(t *testing.T) {
	rq, sk := pair(t)
	const m, attrBits = 5, 8
	vals := []int64{255, 0, 17, 255, 1}
	row := encVec(t, sk, vals...)
	codec, err := paillier.NewPacking(rq.PK(), attrBits)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := PackRow(codec, row)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != codec.Groups(m) {
		t.Errorf("%d groups, want %d", len(groups), codec.Groups(m))
	}
	rowCodec, err := paillier.NewRowPacking(rq.PK(), attrBits, 3)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := PackRow(rowCodec, row)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 {
		t.Fatalf("%d chunks, want 2", len(chunks))
	}
	for g, want := range []int64{255 | 0<<8 | 17<<16, 255 | 1<<8} {
		if got := dec(t, sk, chunks[g]); got != want {
			t.Errorf("chunk %d = %#x, want %#x", g, got, want)
		}
	}
}
