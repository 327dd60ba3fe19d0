package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
)

// TestSecureTinyDomainSentinelCollision is the end-to-end regression for
// the disqualification-sentinel collision. At attrBits=1, m=3 the
// largest real squared distance is 3 = 2^l − 1 at the table's l = 2.
// The paper's step 3(e) drives a selected record to that all-ones value,
// so a record at distance 3 could tie with it and be dropped in favour of
// re-selecting the disqualified row; internal/reference therefore
// decomposes at l + 1. The engine disqualifies nothing and compares in
// l + 1 bits, so at l itself the farthest corner must still come back.
func TestSecureTinyDomainSentinelCollision(t *testing.T) {
	tbl := &dataset.Table{
		Rows: [][]uint64{
			{0, 0, 0}, // distance 0 from the query: selected first
			{1, 1, 1}, // distance 3 = the pre-fix sentinel value
		},
		AttrBits: 1,
	}
	c1, bob := newSystem(t, tbl, 1)
	q := []uint64{0, 0, 0}

	// Repeat: the pre-fix failure depended on C2's uniform tie-break, so
	// one lucky pass is not evidence. Post-fix the result is deterministic.
	for trial := 0; trial < 8; trial++ {
		got := runSecure(t, c1, bob, q, 2)
		if len(got) != 2 {
			t.Fatalf("trial %d: got %d records, want 2", trial, len(got))
		}
		seen := map[uint64]bool{}
		for _, row := range got {
			var d uint64
			for j := range row {
				diff := row[j] - q[j]
				d += diff * diff
			}
			seen[d] = true
		}
		if !seen[0] || !seen[3] {
			t.Fatalf("trial %d: distances %v, want {0,3} — record at the old sentinel distance lost", trial, seen)
		}
	}
}

// TestSecureMaxDistanceSingleAttr covers the other collision trigger
// called out in the issue: m=3·b=1 is one of a family where
// m·(2^b−1)² = 2^j−1 exactly; b=1, m=1 (distance 1 vs old l=1 sentinel
// 1) is its smallest member.
func TestSecureMaxDistanceSingleAttr(t *testing.T) {
	tbl := &dataset.Table{
		Rows:     [][]uint64{{0}, {1}},
		AttrBits: 1,
	}
	c1, bob := newSystem(t, tbl, 1)
	for trial := 0; trial < 8; trial++ {
		got := runSecure(t, c1, bob, []uint64{0}, 2)
		seen := map[uint64]bool{}
		for _, row := range got {
			seen[row[0]] = true
		}
		if !seen[0] || !seen[1] {
			t.Fatalf("trial %d: rows %v, want both records", trial, got)
		}
	}
}

// TestSecureWideTableExactDomain runs SkNNm over the widest table the
// engine admits, 24 bits at m = 2, against a query at the domain's far
// corner: one record sits at the largest distance there is,
// 2·(2^24 − 1)², just below 2^l for the exact l = 49, and the k = 1
// answer must be the nearest record, not one ordered by low bits. A
// table wider than dataset.MaxAttrBits — 41 bits, where m·(2^b−1)² no
// longer fits a uint64 and a wrapped l once answered with the farthest
// record — is refused where it is built. The oracle is computed in
// math/big. Unsharded and at S = 2.
func TestSecureWideTableExactDomain(t *testing.T) {
	const max24 = 1<<24 - 1
	rows := [][]uint64{
		{0, 0},
		{max24, 0},
		{max24 - 5, max24 - 3},
		{3, max24},
	}
	q := []uint64{max24, max24}
	dist := func(row []uint64) *big.Int {
		sum := new(big.Int)
		for j, v := range row {
			d := new(big.Int).Sub(new(big.Int).SetUint64(v), new(big.Int).SetUint64(q[j]))
			sum.Add(sum, d.Mul(d, d))
		}
		return sum
	}
	nearest := 0
	for i, row := range rows {
		if dist(row).Cmp(dist(rows[nearest])) < 0 {
			nearest = i
		}
	}
	sk := testKey()
	if _, err := EncryptTable(rand.Reader, &sk.PublicKey, [][]uint64{{1 << 40, 0}, {0, 0}}); !errors.Is(err, dataset.ErrBadAttrBits) {
		t.Errorf("EncryptTable of a 41-bit table: err = %v, want dataset.ErrBadAttrBits", err)
	}
	c2 := NewCloudC2(sk, nil)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, rows)
			if err != nil {
				t.Fatal(err)
			}
			engine := newEngine(t, encTable, shards, func() []mpc.Conn { return []mpc.Conn{pipeTo(t, c2)} })
			if engine.Shape().AttrBits != 24 || engine.Shape().DomainBits() != 49 {
				t.Fatalf("table of %d-bit attributes at l = %d, want 24 and 49", engine.Shape().AttrBits, engine.Shape().DomainBits())
			}
			got := runSecure(t, engine, NewClient(&sk.PublicKey, nil), q, 1)
			if len(got) != 1 || !slices.Equal(got[0], rows[nearest]) {
				t.Errorf("nearest to %v = %v, want %v", q, got, rows[nearest])
			}
		})
	}
}
