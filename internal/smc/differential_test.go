package smc

import (
	"math/big"
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
	for i := range rows {
		var want int64
		for j := range qv {
			d := qv[j] - rowsV[i][j]
			want += d * d
		}
		if got := dec(t, sk, dsP[i]); got != want {
			t.Errorf("packed distance[%d] = %d, want %d", i, got, want)
		}
		// The paper's oracle, record by record, as internal/reference runs it.
		dC, err := rq.SSED(q, rows[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := dec(t, sk, dC); got != want {
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
	minsV, _, err := rq.SMINValuePairsBatch(pairs, l, 0)
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

// TestDifferentialSMINValuePairsWithRecords runs the comparator the
// engine's selection network is built from: each pair carries a record of
// three chunks at the widest chunk the row layout packs,
// SMPackOperandBits, and the kernel must return the paper SMIN's minimum
// and, chunk for chunk, the record of the operand it picked — b's where
// a ≥ b, a's otherwise — with equal distances (a = b, where only the
// record tells the operands apart), all-max chunks against all-zero ones
// and the domain's corners among the pairs.
func TestDifferentialSMINValuePairsWithRecords(t *testing.T) {
	rq, sk := pair(t)
	const l, chunks = 8, 3
	recBits := SMPackOperandBits(rq.PK().Bits())
	top := new(big.Int).Lsh(big.NewInt(1), uint(recBits))
	top.Sub(top, big.NewInt(1)) // an all-max chunk
	rng := rand.New(rand.NewSource(14))
	record := func(kind int) []*big.Int {
		rec := make([]*big.Int, chunks)
		for g := range rec {
			switch kind {
			case 0:
				rec[g] = new(big.Int)
			case 1:
				rec[g] = new(big.Int).Set(top)
			default:
				rec[g] = new(big.Int).Rand(rng, top)
			}
		}
		return rec
	}
	plain := []struct {
		a, b   uint64
		ka, kb int // record kinds: all-zero, all-max, random
	}{
		{77, 77, 1, 0}, {77, 77, 0, 1}, {0, 0, 2, 2}, {255, 255, 1, 1},
		{3, 200, 1, 0}, {200, 3, 1, 0}, {0, 255, 0, 1}, {255, 254, 2, 1}, {128, 127, 2, 2},
	}
	pairs := make([]SMINValuePair, len(plain))
	recsA := make([][]*big.Int, len(plain))
	recsB := make([][]*big.Int, len(plain))
	encRec := func(vals []*big.Int) []*paillier.Ciphertext {
		out := make([]*paillier.Ciphertext, len(vals))
		for g, v := range vals {
			ct, err := sk.Encrypt(rng, v)
			if err != nil {
				t.Fatal(err)
			}
			out[g] = ct
		}
		return out
	}
	for i, c := range plain {
		recsA[i], recsB[i] = record(c.ka), record(c.kb)
		pairs[i] = SMINValuePair{A: enc(t, sk, int64(c.a)), B: enc(t, sk, int64(c.b)),
			RecA: encRec(recsA[i]), RecB: encRec(recsB[i])}
	}
	mins, recs, err := rq.SMINValuePairsBatch(pairs, l, recBits)
	if err != nil {
		t.Fatal(err)
	}
	if len(mins) != len(plain) || len(recs) != len(plain) {
		t.Fatalf("%d minima and %d records for %d pairs", len(mins), len(recs), len(plain))
	}
	for i, c := range plain {
		bits, err := rq.SBDBatch([]*paillier.Ciphertext{pairs[i].A, pairs[i].B}, l)
		if err != nil {
			t.Fatal(err)
		}
		minB, err := rq.SMIN(bits[0], bits[1])
		if err != nil {
			t.Fatal(err)
		}
		want := int64(decBits(t, sk, minB))
		if got := dec(t, sk, mins[i]); got != want || want != int64(min(c.a, c.b)) {
			t.Errorf("pair %d: min(%d,%d) = %d, paper SMIN %d", i, c.a, c.b, got, want)
		}
		wantRec := recsA[i]
		if c.a >= c.b {
			wantRec = recsB[i]
		}
		if len(recs[i]) != chunks {
			t.Fatalf("pair %d: %d record chunks, want %d", i, len(recs[i]), chunks)
		}
		for g, ct := range recs[i] {
			got, err := sk.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(wantRec[g]) != 0 {
				t.Errorf("pair %d (%d vs %d): record chunk %d = %v, want %v", i, c.a, c.b, g, got, wantRec[g])
			}
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
	group := enc(t, sk, 1).Raw()
	bad := []struct {
		name string
		ints []*big.Int
	}{
		{"empty", nil},
		{"count only", bigInts(1)},
		{"missing shift", bigInts(1, 8)},
		{"negative shift", append(bigInts(1, 8, -1), group)},
		{"shift ≥ valueBits", append(bigInts(1, 8, 8), group)},
		{"missing group", bigInts(1, 8, 0)},
		{"invalid ciphertext", bigInts(1, 8, 0, 0)},
		{"operand group before the output round", append(bigInts(1, 8, 6), group, group)},
		{"operand header before the output round", append(bigInts(1, 8, 6, 1, 8), group)},
		{"output round without its operand header", append(bigInts(1, 8, 7), group, group)},
		{"output round without its operand group", append(bigInts(1, 8, 7, 1, 8), group)},
		{"output round with an extra group", append(bigInts(1, 8, 7, 1, 8), group, group, group)},
		{"invalid operand group", append(bigInts(1, 8, 7, 1, 8), group, big.NewInt(0))},
		{"no operand per value", append(bigInts(1, 8, 7, 0, 8), group)},
		{"negative per", append(bigInts(1, 8, 7, -1, 8), group, group)},
		{"per lies high", append(bigInts(1, 8, 7, 4, 8), group, group)},
		{"per past the frame cap", append(bigInts(1, 8, 7, smPackMaxCount+1, 8), group, group)},
		{"opBits zero", append(bigInts(1, 8, 7, 1, 0), group, group)},
		{"opBits past the codec", append(bigInts(1, 8, 7, 1, packMaxValueBits+1), group, group)},
		{"opBits wider than a slot", append(bigInts(1, 8, 7, 1, 200), group, group)},
		{"nil per", append(append(bigInts(1, 8, 7), nil), append(bigInts(8), group, group)...)},
	}
	for _, tc := range bad {
		if _, err := mux.Handle(&mpc.Message{Op: OpSBDPackBit, Ints: tc.ints}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The well-formed shapes either side of the output round answer.
	for _, ints := range [][]*big.Int{append(bigInts(1, 8, 6), group), append(bigInts(1, 8, 7, 1, 8), group, group), append(bigInts(1, 8, 7, 2, 30), group, group)} {
		if _, err := mux.Handle(&mpc.Message{Op: OpSBDPackBit, Ints: ints}); err != nil {
			t.Errorf("shift %v: %v", ints[2], err)
		}
	}
}

func TestSMINValuePairsValidation(t *testing.T) {
	rq, sk := pair(t)
	if _, _, err := rq.SMINValuePairsBatch(nil, 8, 0); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := rq.SMINValuePairsBatch([]SMINValuePair{{A: enc(t, sk, 1)}}, 8, 0); err == nil {
		t.Error("nil operand accepted")
	}
	if _, _, err := rq.SMINValuePairsBatch(
		[]SMINValuePair{{A: enc(t, sk, 1), B: enc(t, sk, 2)}}, 0, 0); err == nil {
		t.Error("l = 0 accepted")
	}
	rec := encVec(t, sk, 1, 2)
	for name, pairs := range map[string][]SMINValuePair{
		"ragged records": {
			{A: enc(t, sk, 1), B: enc(t, sk, 2), RecA: rec, RecB: rec},
			{A: enc(t, sk, 1), B: enc(t, sk, 2), RecA: rec[:1], RecB: rec[:1]},
		},
		"one-sided record": {{A: enc(t, sk, 1), B: enc(t, sk, 2), RecA: rec, RecB: rec[:1]}},
		"nil record chunk": {{A: enc(t, sk, 1), B: enc(t, sk, 2), RecA: rec, RecB: []*paillier.Ciphertext{rec[0], nil}}},
	} {
		if _, _, err := rq.SMINValuePairsBatch(pairs, 8, 4); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	for _, recBits := range []int{0, 512} {
		pairs := []SMINValuePair{{A: enc(t, sk, 1), B: enc(t, sk, 2), RecA: rec, RecB: rec}}
		if _, _, err := rq.SMINValuePairsBatch(pairs, 8, recBits); err == nil {
			t.Errorf("records of %d bits accepted", recBits)
		}
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
