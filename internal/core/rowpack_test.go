package core

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sort"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/paillier"
	"sknn/internal/plainknn"
	"sknn/internal/smc"
	"sknn/internal/testkit"
)

// This file pins the row-packed record path: which layout a session
// chooses — the table's attribute width's, in both protocols — that a
// query agrees with the plaintext oracle at the boundaries of the value
// domain and of the chunk capacity (the printed protocol is compared on
// the same edges in internal/reference, which imports this package),
// and that Bob rejects shares that do not fit the layout they declare.

func TestRowLayoutFor(t *testing.T) {
	cases := []struct {
		keyBits, m, bits int
		want             RowLayout
		chunks           int
	}{
		{512, 6, 4, RowLayout{Cols: 6, Bits: 4}, 1},   // bench/secure_scan
		{512, 2, 6, RowLayout{Cols: 2, Bits: 6}, 1},   // bench/live_mixed
		{256, 30, 2, RowLayout{Cols: 30, Bits: 2}, 1}, // widest one-chunk record at 61 operand bits
		{256, 31, 2, RowLayout{Cols: 30, Bits: 2}, 2}, // one column past it
		{256, 20, 3, RowLayout{Cols: 20, Bits: 3}, 1}, // the same edge at b = 3
		{256, 21, 3, RowLayout{Cols: 20, Bits: 3}, 2},
		{256, 3, 24, RowLayout{Cols: 2, Bits: 24}, 2}, // attrBits = 24
		{256, 1, 3, RowLayout{Cols: 1, Bits: 3}, 1},   // m = 1
		{256, 4, 75, RowLayout{Cols: 1, Bits: 75}, 4}, // a column wider than the operand
		{128, 4, 3, RowLayout{Cols: 1, Bits: 3}, 4},   // key too small to pack two columns
	}
	for _, tc := range cases {
		pk := &testkit.Key(tc.keyBits).PublicKey
		got := rowLayoutFor(pk.Bits(), dataset.Shape{M: tc.m, AttrBits: tc.bits})
		if got != tc.want || got.Chunks(tc.m) != tc.chunks {
			t.Errorf("K=%d m=%d b=%d: layout %+v in %d chunks, want %+v in %d",
				tc.keyBits, tc.m, tc.bits, got, got.Chunks(tc.m), tc.want, tc.chunks)
		}
		if got.Cols > 1 && got.Cols*got.Bits > smc.SMPackOperandBits(pk.Bits()) {
			t.Errorf("K=%d m=%d b=%d: a %d-bit chunk is wider than SMPackOperandBits", tc.keyBits, tc.m, tc.bits, got.Cols*got.Bits)
		}
	}
}

// rowSet canonicalizes result rows for multiset comparison.
func rowSet(rows [][]uint64) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// secureRowsWithLayout runs SkNNm and returns the unmasked rows plus the
// layout the reveal used.
func secureRowsWithLayout(t *testing.T, sk *paillier.PrivateKey, rows [][]uint64, f int, q []uint64, k, l int) ([][]uint64, RowLayout) {
	t.Helper()
	encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, rows)
	if err != nil {
		t.Fatal(err)
	}
	if encTable, err = encTable.WithFeatureColumns(f); err != nil {
		t.Fatal(err)
	}
	c1, bob := newSystemOver(t, sk, encTable, 1)
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := c1.SecureQuery(context.Background(), eq, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bob.Unmask(res)
	if err != nil {
		t.Fatal(err)
	}
	return got, res.Layout
}

func TestRowPackedBoundaries(t *testing.T) {
	wide := func(m int, fill uint64) []uint64 {
		row := make([]uint64, m)
		for j := range row {
			row[j] = (fill + uint64(j)) % 4
		}
		return row
	}
	const max24 = 1<<24 - 1
	cases := []struct {
		name     string
		keyBits  int
		attrBits int
		f        int // feature columns
		rows     [][]uint64
		q        []uint64
		k        int
		chunks   int // ciphertexts per revealed record
	}{
		{
			name: "every column at the top of its domain", keyBits: 256, attrBits: 3, f: 2,
			rows: [][]uint64{{7, 7, 7, 7}, {0, 0, 0, 0}, {7, 0, 7, 0}, {3, 4, 0, 7}},
			q:    []uint64{7, 7}, k: 2, chunks: 1,
		},
		{
			name: "m = 1", keyBits: 256, attrBits: 4, f: 1,
			rows: [][]uint64{{15}, {0}, {9}, {8}},
			q:    []uint64{9}, k: 2, chunks: 1,
		},
		{
			name: "widest record in one chunk", keyBits: 256, attrBits: 2, f: 2,
			rows: [][]uint64{wide(30, 3), wide(30, 0), wide(30, 1)},
			q:    []uint64{1, 2}, k: 2, chunks: 1,
		},
		{
			name: "one column past one chunk", keyBits: 256, attrBits: 2, f: 2,
			rows: [][]uint64{wide(31, 3), wide(31, 0), wide(31, 1)},
			q:    []uint64{1, 2}, k: 2, chunks: 2,
		},
		{
			name: "attrBits = 24", keyBits: 256, attrBits: 24, f: 1,
			rows: [][]uint64{{max24, max24, 0}, {0, 1, max24}, {max24 - 1, 0, max24}},
			q:    []uint64{max24}, k: 2, chunks: 2,
		},
		{
			name: "key too small to pack", keyBits: 128, attrBits: 2, f: 2,
			rows: [][]uint64{{3, 3, 3}, {0, 1, 2}, {2, 2, 0}},
			q:    []uint64{2, 3}, k: 2, chunks: 3,
		},
		{
			name: "ties and k = n", keyBits: 256, attrBits: 3, f: 2,
			rows: [][]uint64{{1, 1, 5}, {1, 1, 6}, {5, 5, 7}, {1, 1, 5}},
			q:    []uint64{1, 1}, k: 4, chunks: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := &dataset.Table{Rows: tc.rows, AttrBits: tc.attrBits}
			if err := tbl.Validate(); err != nil {
				t.Fatal(err)
			}
			sk := testkit.Key(tc.keyBits)
			l := dataset.DomainBits(tc.attrBits, tc.f)
			m := len(tc.rows[0])
			want, err := plainknn.KDistances(featurePrefix(tc.rows, tc.f), tc.q, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			got, layout := secureRowsWithLayout(t, sk, tc.rows, tc.f, tc.q, tc.k, l)
			if layout.Bits != tc.attrBits || layout.Chunks(m) != tc.chunks {
				t.Errorf("revealed %d shares per record (layout %+v), want %d of %d-bit columns",
					layout.Chunks(m), layout, tc.chunks, tc.attrBits)
			}
			ds := distancesOf(t, featurePrefix(got, tc.f), tc.q)
			if fmt.Sprint(ds) != fmt.Sprint(want) {
				t.Errorf("distances %v, oracle %v", ds, want)
			}
			// Whole rows, payload columns included, must be table rows:
			// a shifted or truncated slot shows up here.
			inTable := make(map[string]int)
			for _, r := range rowSet(tc.rows) {
				inTable[r]++
			}
			for _, r := range rowSet(got) {
				if inTable[r]--; inTable[r] < 0 {
					t.Errorf("returned row %s more often than the table holds it (got %v)", r, got)
				}
			}
		})
	}
}

// TestBasicPackedBoundaries is the same walk for SkNNb, whose slots are
// sized by the table's declared attribute width instead of l: through
// both entry points (the coordinator's BasicQuery and the bare worker's
// BasicQueryMetered) the answer is the plaintext oracle's, made of whole
// table rows named by their ids, in the layout the width and the key
// produce — and the scan rode the packed SSED kernel.
func TestBasicPackedBoundaries(t *testing.T) {
	wide := func(m int, fill uint64) []uint64 {
		row := make([]uint64, m)
		for j := range row {
			row[j] = (fill + uint64(j)) % 8
		}
		return row
	}
	const max24 = 1<<dataset.MaxAttrBits - 1
	cases := []struct {
		name     string
		keyBits  int
		attrBits int // declared; the rows may all be narrower
		f        int
		rows     [][]uint64
		q        []uint64
		k        int
		chunks   int // ciphertexts per revealed record
	}{
		{name: "declared wider than any stored value", keyBits: 256, attrBits: 8, f: 2,
			rows: [][]uint64{{1, 2, 3}, {3, 1, 0}, {2, 2, 2}, {0, 3, 1}},
			q:    []uint64{2, 1}, k: 2, chunks: 1},
		{name: "m = 1", keyBits: 256, attrBits: 4, f: 1,
			rows: [][]uint64{{15}, {0}, {9}, {8}},
			q:    []uint64{9}, k: 2, chunks: 1},
		{name: "b = 1", keyBits: 256, attrBits: 1, f: 3,
			rows: [][]uint64{{1, 1, 1}, {0, 0, 0}, {1, 0, 1}, {0, 1, 0}},
			q:    []uint64{1, 1, 0}, k: 3, chunks: 1},
		{name: "b = 24, the widest", keyBits: 256, attrBits: 24, f: 2,
			rows: [][]uint64{{max24, 5, max24}, {max24 - 3, 9, 0}, {max24 - 100, 5, 7}, {max24 - 2, 2, max24 - 1}},
			q:    []uint64{max24 - 1, 6}, k: 2, chunks: 2},
		{name: "widest record in one chunk", keyBits: 256, attrBits: 3, f: 2,
			rows: [][]uint64{wide(20, 7), wide(20, 0), wide(20, 1)},
			q:    []uint64{1, 2}, k: 2, chunks: 1},
		{name: "one column past one chunk", keyBits: 256, attrBits: 3, f: 2,
			rows: [][]uint64{wide(21, 7), wide(21, 0), wide(21, 1)},
			q:    []uint64{1, 2}, k: 2, chunks: 2},
		{name: "payload columns wider than the features", keyBits: 256, attrBits: 20, f: 2,
			rows: [][]uint64{{3, 3, 1<<20 - 1, 0}, {0, 1, 2, 1<<20 - 1}, {2, 2, 1 << 19, 1 << 19}},
			q:    []uint64{2, 3}, k: 2, chunks: 2},
		{name: "query far above the attribute domain", keyBits: 256, attrBits: 3, f: 2,
			rows: [][]uint64{{7, 7}, {0, 0}, {7, 0}, {3, 4}},
			q:    []uint64{1 << 30, 1 << 31}, k: 3, chunks: 1},
		{name: "key packs SSED but no SM pair", keyBits: 128, attrBits: 2, f: 2,
			rows: [][]uint64{{3, 3, 3}, {0, 1, 2}, {2, 2, 0}},
			q:    []uint64{2, 3}, k: 2, chunks: 3},
		{name: "ties and k = n", keyBits: 256, attrBits: 3, f: 2,
			rows: [][]uint64{{1, 1, 5}, {1, 1, 6}, {5, 5, 7}, {1, 1, 5}},
			q:    []uint64{1, 1}, k: 4, chunks: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sk := testkit.Key(tc.keyBits)
			m := len(tc.rows[0])
			encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, tc.rows)
			if err != nil {
				t.Fatal(err)
			}
			if encTable, err = encTable.WithAttrBits(tc.attrBits); err != nil {
				t.Fatal(err)
			}
			if encTable, err = encTable.WithFeatureColumns(tc.f); err != nil {
				t.Fatal(err)
			}
			cloud, bob := newSystemOver(t, sk, encTable, 2)
			eq, err := bob.EncryptQuery(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			want := bigDistances(featurePrefix(tc.rows, tc.f), tc.q)[:tc.k]
			check := func(who string, res *MaskedResult, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", who, err)
				}
				if res.Layout.Bits != tc.attrBits || res.Layout.Chunks(m) != tc.chunks {
					t.Errorf("%s: revealed %d shares per record (layout %+v), want %d of %d-bit columns",
						who, res.Layout.Chunks(m), res.Layout, tc.chunks, tc.attrBits)
				}
				got, err := bob.Unmask(res)
				if err != nil {
					t.Fatalf("%s: %v", who, err)
				}
				if ds := bigDistances(featurePrefix(got, tc.f), tc.q); fmt.Sprint(ds) != fmt.Sprint(want) {
					t.Errorf("%s: distances %v, oracle %v", who, ds, want)
				}
				for j, row := range got {
					if fmt.Sprint(row) != fmt.Sprint(tc.rows[res.IDs[j]]) {
						t.Errorf("%s: result %d is %v, id %d names %v", who, j, row, res.IDs[j], tc.rows[res.IDs[j]])
					}
				}
			}
			res, _, err := cloud.BasicQuery(context.Background(), eq, tc.k)
			check("coordinator", res, err)
			res, _, err = cloud.Workers[0].BasicQueryMetered(context.Background(), eq, tc.k)
			check("bare worker", res, err)

			packs := encTable.view().packs
			packs.mu.Lock()
			defer packs.mu.Unlock()
			if len(packs.rows[ssedRendering]) == 0 {
				t.Error("scan did not ride the packed SSED kernel")
			}
		})
	}
}

// TestOneRenderingPerRow: SkNNb and SkNNm pack a table's rows at one
// width, the table's, so after a query in each mode the table's memo
// holds one SSED rendering and one record rendering, and the second
// query reuses every row the first one packed. secure_scan's shape
// (m = 6, b = 4, l = 11) under a key that packs a whole record into one
// chunk.
func TestOneRenderingPerRow(t *testing.T) {
	tbl, err := dataset.Generate(44, 8, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	sk := testKey()
	encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if layout := rowLayoutFor(sk.Bits(), dataset.Shape{M: 6, AttrBits: encTable.Shape().AttrBits}); layout != (RowLayout{Cols: 6, Bits: 4}) {
		t.Fatalf("layout %+v, want one chunk of six 4-bit columns", layout)
	}
	cloud, bob := newSystemOver(t, sk, encTable, 1)
	q := []uint64{3, 9, 0, 15, 7, 1}
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	packs := encTable.view().packs
	// packed lists every row the memo holds, rendering by rendering.
	packed := func() [][]*paillier.Ciphertext {
		packs.mu.Lock()
		defer packs.mu.Unlock()
		var out [][]*paillier.Ciphertext
		for _, memo := range packs.rows {
			for _, row := range memo {
				if row != nil {
					out = append(out, row)
				}
			}
		}
		return out
	}
	renderings := func() (n int) {
		packs.mu.Lock()
		defer packs.mu.Unlock()
		for _, memo := range packs.rows {
			if slices.ContainsFunc(memo, func(row []*paillier.Ciphertext) bool { return row != nil }) {
				n++
			}
		}
		return n
	}

	if _, _, err := cloud.BasicQuery(context.Background(), eq, 2); err != nil {
		t.Fatal(err)
	}
	afterBasic := packed()
	res, _, err := cloud.SecureQuery(context.Background(), eq, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := bob.Unmask(res)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, tbl, q, 2, rows)
	if n := renderings(); n != 2 {
		t.Errorf("the memo holds %d renderings after a query in each mode, want 2 (SSED and record)", n)
	}
	// SkNNb packed every row for SSED and its two winners' records; SkNNm
	// packs the other six records and nothing else.
	after := packed()
	if len(afterBasic) != 8+2 || len(after) != 8+8 {
		t.Errorf("packed rows: %d after SkNNb, %d after SkNNm; want 10 and 16", len(afterBasic), len(after))
	}
	kept := make(map[*paillier.Ciphertext]bool)
	for _, row := range after {
		kept[row[0]] = true
	}
	for i, row := range afterBasic {
		if !kept[row[0]] {
			t.Errorf("row %d packed by SkNNb was packed again by SkNNm", i)
		}
	}
}

// bigDistances is the sorted squared distances of rows from q, computed
// without overflow for attributes and queries up to 64 bits wide (where
// plainknn's uint64 arithmetic does not reach).
func bigDistances(rows [][]uint64, q []uint64) []string {
	ds := make([]*big.Int, len(rows))
	for i, row := range rows {
		ds[i] = new(big.Int)
		for j, x := range row {
			d := new(big.Int).Sub(new(big.Int).SetUint64(x), new(big.Int).SetUint64(q[j]))
			ds[i].Add(ds[i], d.Mul(d, d))
		}
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a].Cmp(ds[b]) < 0 })
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

func featurePrefix(rows [][]uint64, f int) [][]uint64 {
	out := make([][]uint64, len(rows))
	for i, r := range rows {
		out[i] = r[:f]
	}
	return out
}

// TestUnmaskRowLayouts: Bob splits slots exactly as the layout declares
// and refuses, with ErrBadFrame, shares that do not fit it.
func TestUnmaskRowLayouts(t *testing.T) {
	pk := &testKey().PublicKey
	bob := NewClient(pk, nil)
	mask := big.NewInt(12345)
	// share returns the pair (mask, masked) revealing v.
	share := func(v *big.Int) (*big.Int, *big.Int) {
		s := new(big.Int).Add(v, mask)
		return mask, s.Mod(s, pk.N)
	}
	pack := func(bits int, cols ...uint64) *big.Int {
		v := new(big.Int)
		for j := len(cols) - 1; j >= 0; j-- {
			v.Lsh(v, uint(bits)).Or(v, new(big.Int).SetUint64(cols[j]))
		}
		return v
	}
	result := func(m int, layout RowLayout, vals ...*big.Int) *MaskedResult {
		res := &MaskedResult{K: 1, M: m, Layout: layout, n: pk.N, Masks: [][]*big.Int{nil}, Masked: [][]*big.Int{nil}}
		for _, v := range vals {
			r, s := share(v)
			res.Masks[0] = append(res.Masks[0], r)
			res.Masked[0] = append(res.Masked[0], s)
		}
		return res
	}

	// 5 columns in chunks of 3: [t0 t1 t2] [t3 t4].
	got, err := bob.Unmask(result(5, RowLayout{Cols: 3, Bits: 4}, pack(4, 15, 0, 9), pack(4, 1, 15)))
	if err != nil || fmt.Sprint(got) != "[[15 0 9 1 15]]" {
		t.Fatalf("packed unmask = %v, %v", got, err)
	}
	// The per-attribute form through the pre-existing constructor.
	r0, s0 := share(big.NewInt(7))
	r1, s1 := share(new(big.Int).SetUint64(1 << 63))
	per, err := RestoreMaskedResult(pk, 1, 2, [][]*big.Int{{r0, r1}}, [][]*big.Int{{s0, s1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := bob.Unmask(per); err != nil || got[0][0] != 7 || got[0][1] != 1<<63 {
		t.Fatalf("per-attribute unmask = %v, %v", got, err)
	}

	bad := []struct {
		name string
		res  *MaskedResult
	}{
		{"zero layout", result(2, RowLayout{}, big.NewInt(1), big.NewInt(2))},
		{"more columns per chunk than columns", result(2, RowLayout{Cols: 3, Bits: 4}, big.NewInt(1))},
		{"packed chunk without a slot width", result(2, RowLayout{Cols: 2}, big.NewInt(1))},
		{"negative slot width", result(2, RowLayout{Cols: 1, Bits: -1}, big.NewInt(1), big.NewInt(2))},
		{"row wider than the plaintext", result(4, RowLayout{Cols: 4, Bits: 64}, big.NewInt(1))},
		{"too few shares", result(5, RowLayout{Cols: 3, Bits: 4}, pack(4, 1, 2, 3))},
		{"per-attribute shares under a packed layout", result(3, RowLayout{Cols: 3, Bits: 4}, big.NewInt(1), big.NewInt(2), big.NewInt(3))},
		{"bits beyond the chunk's slots", result(3, RowLayout{Cols: 3, Bits: 4}, pack(4, 1, 2, 3, 1))},
		{"bits beyond a short last chunk", result(5, RowLayout{Cols: 3, Bits: 4}, pack(4, 1, 2, 3), pack(4, 1, 2, 3))},
		{"mask and share swapped", func() *MaskedResult {
			res := result(3, RowLayout{Cols: 3, Bits: 4}, pack(4, 1, 2, 3))
			res.Masks, res.Masked = res.Masked, res.Masks
			return res
		}()},
	}
	for _, tc := range bad {
		if _, err := bob.Unmask(tc.res); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", tc.name, err)
		}
	}
	if _, err := RestoreMaskedRows(pk, 1, 4, RowLayout{Cols: 4, Bits: 64}, [][]*big.Int{{mask}}, [][]*big.Int{{mask}}, nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("RestoreMaskedRows with a row wider than the plaintext: err = %v, want ErrBadFrame", err)
	}
}

// TestMergeRejectsForeignLayout: a candidate whose record is not in the
// merge session's row layout — what a remote shard's frame could carry —
// is a typed error, never merged as if its chunks were columns.
func TestMergeRejectsForeignLayout(t *testing.T) {
	tbl, err := dataset.Generate(71, 6, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	c1, bob := newSystem(t, tbl, 1)
	eq, err := bob.EncryptQuery([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cands, _, err := c1.Workers[0].TopK(context.Background(), eq, 2, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands[0].Rec) != 1 {
		t.Fatalf("row-packed candidate carries %d ciphertexts, want 1", len(cands[0].Rec))
	}
	// The same candidates with their records attribute by attribute.
	for i := range cands {
		cands[i].Rec = c1.Workers[0].Table().records[i]
	}
	s, err := c1.Workers[0].NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.mergeCandidates([][]Candidate{cands}, 1, &SecureMetrics{}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("merging per-attribute candidates on a packed session: err = %v, want ErrBadFrame", err)
	}
}

// TestNoGateRecordsAreRerandomized: with n ≤ k the selection network has
// no gate, so no comparison refreshes the records on their way to the
// reveal; selectTopK re-randomizes them instead. A stored ciphertext
// must not reach C2, which could recover its nonce with the
// factorisation and recognize the record in a later query. The
// candidates still hold exactly the stored rows.
func TestNoGateRecordsAreRerandomized(t *testing.T) {
	tbl, err := dataset.Generate(37, 3, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	c1, bob := newSystem(t, tbl, 1)
	eq, err := bob.EncryptQuery([]uint64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c1.Workers[0].NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cands, _, err := s.TopK(eq, 3, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := s.tbl.recordRows(s.tbl.liveIdx)
	if err != nil {
		t.Fatal(err)
	}
	sk := testKey()
	plain := func(rec []*paillier.Ciphertext) string {
		var out []*big.Int
		for _, ct := range rec {
			m, err := sk.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, m)
		}
		return fmt.Sprint(out)
	}
	for i, cand := range cands {
		if plain(cand.Rec) != plain(stored[i]) {
			t.Errorf("candidate %d holds %s, stored row %s", i, plain(cand.Rec), plain(stored[i]))
		}
		for _, row := range stored {
			for g, ct := range row {
				if cand.Rec[g].Raw().Cmp(ct.Raw()) == 0 {
					t.Errorf("candidate %d chunk %d is a stored ciphertext", i, g)
				}
			}
		}
	}
}
