package dataset

import (
	"bytes"
	"errors"
	"math/big"
	"strings"
	"testing"
)

func TestGenerateShapeAndDomain(t *testing.T) {
	tbl, err := Generate(1, 100, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.N() != 100 || tbl.M() != 6 {
		t.Fatalf("shape = %dx%d, want 100x6", tbl.N(), tbl.M())
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		for _, v := range row {
			if v >= 256 {
				t.Fatalf("value %d out of 8-bit domain", v)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(42, 10, 3, 10)
	b, _ := Generate(42, 10, 3, 10)
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatal("same seed produced different tables")
			}
		}
	}
	c, _ := Generate(43, 10, 3, 10)
	same := true
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != c.Rows[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical tables")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(1, 0, 3, 8); !errors.Is(err, ErrEmptyTable) {
		t.Errorf("n=0 error = %v", err)
	}
	if _, err := Generate(1, 5, 0, 8); !errors.Is(err, ErrEmptyTable) {
		t.Errorf("m=0 error = %v", err)
	}
	if _, err := Generate(1, 5, 3, 0); !errors.Is(err, ErrBadAttrBits) {
		t.Errorf("bits=0 error = %v", err)
	}
	if _, err := Generate(1, 5, 3, MaxAttrBits+1); !errors.Is(err, ErrBadAttrBits) {
		t.Errorf("bits too large error = %v", err)
	}
}

func TestGenerateQuery(t *testing.T) {
	q, err := GenerateQuery(7, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 4 {
		t.Fatalf("len = %d", len(q))
	}
	for _, v := range q {
		if v >= 256 {
			t.Fatalf("query value %d out of domain", v)
		}
	}
}

func TestValidateCatchesRaggedAndOverflow(t *testing.T) {
	tbl := &Table{Rows: [][]uint64{{1, 2}, {3}}, AttrBits: 4}
	if err := tbl.Validate(); !errors.Is(err, ErrRagged) {
		t.Errorf("ragged error = %v", err)
	}
	tbl = &Table{Rows: [][]uint64{{1, 16}}, AttrBits: 4}
	if err := tbl.Validate(); !errors.Is(err, ErrValueTooLarge) {
		t.Errorf("overflow error = %v", err)
	}
	tbl = &Table{Rows: [][]uint64{{1, 15}}, AttrBits: 4}
	if err := tbl.Validate(); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
}

func TestDomainBits(t *testing.T) {
	// Expected values are bitlen(max distance): every distance fits l
	// bits, and the engine's comparison reads one bit more.
	cases := []struct {
		attrBits, m, want int
	}{
		// m=1, b=1: max diff 1, squared 1 -> 1 bit.
		{1, 1, 1},
		// m=3, b=1: max distance 3 = 2^2 − 1 -> 2 bits, no headroom.
		{1, 3, 2},
		// m=6, b=1: max distance 6 -> 3 bits.
		{1, 6, 3},
		// b=3 (max 7): 49 per dim; m=2 -> 98 -> 7 bits.
		{3, 2, 7},
		// bench/'s secure shape: b=4, m=6 -> 6·225 = 1350 -> 11 bits.
		{4, 6, 11},
		// Paper-style: b=9 (heart data, max 511), m=10:
		// 10*511² = 2612121 -> 22 bits.
		{9, 10, 22},
	}
	for _, c := range cases {
		if got := DomainBits(c.attrBits, c.m); got != c.want {
			t.Errorf("DomainBits(%d,%d) = %d, want %d", c.attrBits, c.m, got, c.want)
		}
	}
	for _, c := range []struct{ attrBits, m int }{{1, 3}, {1, 7}, {2, 7}} {
		maxAttr := uint64(1)<<c.attrBits - 1
		if l := DomainBits(c.attrBits, c.m); uint64(c.m)*maxAttr*maxAttr != 1<<l-1 {
			t.Errorf("DomainBits(%d,%d) = %d: the largest distance is not 2^l − 1", c.attrBits, c.m, l)
		}
	}
}

// TestDomainBitsExact checks DomainBits against bitlen(m·(2^b−1)²)
// computed in math/big, up to 64-bit widths, past MaxAttrBits: a product
// taken in one uint64 wraps above b ≈ 31 (DomainBits(41, 2) came out 64,
// where the exact l is 83).
func TestDomainBitsExact(t *testing.T) {
	for _, b := range []int{1, 2, 24, 25, 31, 32, 41, 63, 64} {
		for _, m := range []int{1, 2, 6, 4096} {
			maxAttr := new(big.Int).Lsh(big.NewInt(1), uint(b))
			maxAttr.Sub(maxAttr, big.NewInt(1))
			dist := new(big.Int).Mul(maxAttr, maxAttr)
			dist.Mul(dist, big.NewInt(int64(m)))
			if got, want := DomainBits(b, m), dist.BitLen(); got != want {
				t.Errorf("DomainBits(%d,%d) = %d, want %d", b, m, got, want)
			}
		}
	}
}

// TestDomainBitsSentinelHeadroom pins where the disqualification
// sentinel's headroom lives: not in l. At every small domain the largest
// reachable squared distance m·(2^b−1)² fits l bits and needs all of
// them; at some — b = 1 with m = 2^j − 1, b = 2 with m = 7 — it is
// exactly 2^l − 1, the all-ones value the
// paper's step 3(e) drives a selected record to. That is why the
// printed protocol (internal/reference) runs at l + 1, where every
// distance sits strictly below its sentinel, and why the engine, which
// disqualifies nothing, runs at l.
func TestDomainBitsSentinelHeadroom(t *testing.T) {
	for attrBits := 1; attrBits <= 10; attrBits++ {
		for m := 1; m <= 16; m++ {
			l := DomainBits(attrBits, m)
			maxAttr := uint64(1)<<attrBits - 1
			maxDist := uint64(m) * maxAttr * maxAttr
			if maxDist >= uint64(1)<<l || maxDist < uint64(1)<<(l-1) {
				t.Errorf("DomainBits(%d,%d)=%d: max distance %d is not an l-bit value", attrBits, m, l, maxDist)
			}
			if maxDist >= uint64(1)<<(l+1)-1 {
				t.Errorf("DomainBits(%d,%d)=%d: max distance %d not below the sentinel 2^(l+1)−1", attrBits, m, l, maxDist)
			}
		}
	}
}

func TestGenerateClustered(t *testing.T) {
	tbl, err := GenerateClustered(9, 120, 3, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.N() != 120 || tbl.M() != 3 {
		t.Fatalf("shape = %dx%d, want 120x3", tbl.N(), tbl.M())
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	a, _ := GenerateClustered(9, 120, 3, 8, 4)
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != tbl.Rows[i][j] {
				t.Fatal("same seed produced different tables")
			}
		}
	}
	if _, err := GenerateClustered(9, 120, 3, 8, 0); err == nil {
		t.Error("centers=0 accepted")
	}
	if _, err := GenerateClustered(9, 0, 3, 8, 2); !errors.Is(err, ErrEmptyTable) {
		t.Errorf("n=0 error = %v", err)
	}
}

func TestDomainBitsIsSufficient(t *testing.T) {
	// Any pair of in-domain vectors must have a squared distance below
	// 2^l, the range the engine's comparisons order exactly. Checked over
	// several generated tables, including the tiny domains where a
	// distance reaches 2^l − 1.
	for _, p := range []struct{ n, m, attrBits int }{
		{50, 5, 8}, {40, 3, 1}, {40, 1, 1}, {30, 7, 2},
	} {
		tbl, err := Generate(3, p.n, p.m, p.attrBits)
		if err != nil {
			t.Fatal(err)
		}
		l := tbl.DomainBits()
		for i := 0; i < tbl.N(); i++ {
			for x := i + 1; x < tbl.N(); x++ {
				var sum uint64
				for j := 0; j < tbl.M(); j++ {
					d := int64(tbl.Rows[i][j]) - int64(tbl.Rows[x][j])
					sum += uint64(d * d)
				}
				if sum >= 1<<l {
					t.Fatalf("m=%d b=%d: distance %d not below 2^%d",
						p.m, p.attrBits, sum, l)
				}
			}
		}
	}
}

func TestHeartDiseaseTable(t *testing.T) {
	tbl := HeartDisease()
	if tbl.N() != 6 || tbl.M() != 10 {
		t.Fatalf("shape = %dx%d, want 6x10", tbl.N(), tbl.M())
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	// Spot-check t1 and t6 against Table 1.
	if tbl.Rows[0][0] != 63 || tbl.Rows[0][4] != 233 {
		t.Error("t1 mismatch")
	}
	if tbl.Rows[5][0] != 77 || tbl.Rows[5][9] != 4 {
		t.Error("t6 mismatch")
	}
	if len(tbl.Names) != 10 || tbl.Names[3] != "trestbps" {
		t.Errorf("names = %v", tbl.Names)
	}
	for _, name := range tbl.Names {
		if _, ok := HeartAttributeDescriptions[name]; !ok {
			t.Errorf("attribute %q missing from Table 2 descriptions", name)
		}
	}
}

func TestHeartDiseaseFeatures(t *testing.T) {
	tbl := HeartDiseaseFeatures()
	if tbl.M() != 9 {
		t.Fatalf("M = %d, want 9", tbl.M())
	}
	if len(HeartExampleQuery) != tbl.M() {
		t.Fatal("example query dimension mismatch")
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mutating the returned copy must not corrupt the embedded data.
	tbl.Rows[0][0] = 999
	if HeartDiseaseFeatures().Rows[0][0] != 63 {
		t.Error("HeartDiseaseFeatures returns shared backing storage")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl, _ := Generate(5, 20, 4, 8)
	tbl.Names = []string{"a", "b", "c", "d"}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != tbl.N() || back.M() != tbl.M() {
		t.Fatalf("shape changed: %dx%d", back.N(), back.M())
	}
	if back.Names[2] != "c" {
		t.Errorf("names = %v", back.Names)
	}
	for i := range tbl.Rows {
		for j := range tbl.Rows[i] {
			if tbl.Rows[i][j] != back.Rows[i][j] {
				t.Fatalf("cell (%d,%d) changed", i, j)
			}
		}
	}
}

func TestCSVNoHeader(t *testing.T) {
	back, err := ReadCSV(strings.NewReader("1,2\n3,4\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if back.Names != nil || back.N() != 2 || back.Rows[1][1] != 4 {
		t.Errorf("parsed = %+v", back)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), 4); !errors.Is(err, ErrEmptyTable) {
		t.Errorf("empty error = %v", err)
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,x\n"), 4); err == nil {
		t.Error("non-numeric body accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,99\n"), 4); !errors.Is(err, ErrValueTooLarge) {
		t.Errorf("overflow error = %v", err)
	}
}
