package core

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"slices"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
)

// TestSecureTinyDomainSentinelCollision is the end-to-end regression for
// the disqualification-sentinel collision. At attrBits=1, m=3 the
// largest real squared distance is 3; before DomainBits gained its
// headroom bit, l was 2 and the step 3(e) sentinel 2^l−1 = 3 was equal
// to that distance, so after iteration 1 disqualified the nearest
// record, a real record at distance 3 tied with it and could be
// silently dropped in favor of re-selecting the disqualified row. With
// the headroom bit (l=3, sentinel 7) the farthest corner is always
// distinguishable from a disqualified record.
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

// TestSecureWideTableExactDomain runs SkNNm over a table 41 bits wide,
// where m·(2^b−1)² no longer fits a uint64: the engine's l must be the
// exact 84, not the 65 a wrapped product gives, below which a comparator
// orders distances by their low bits and the k = 1 answer to {0, 0} came
// back as the farthest record. The oracle is computed in math/big, since
// a uint64 squared distance wraps here too. Unsharded and at S = 2.
func TestSecureWideTableExactDomain(t *testing.T) {
	rows := [][]uint64{
		{1 << 40, 0},
		{0, 0},
		{1<<40 - 5, 1 << 39},
		{3, 1 << 40},
	}
	q := []uint64{0, 0}
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
	c2 := NewCloudC2(sk, nil)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, rows)
			if err != nil {
				t.Fatal(err)
			}
			engine := newEngine(t, encTable, shards, func() []mpc.Conn { return []mpc.Conn{pipeTo(t, c2)} })
			if engine.AttrBits() != 41 || engine.DomainBits() != 84 {
				t.Fatalf("table of %d-bit attributes at l = %d, want 41 and 84", engine.AttrBits(), engine.DomainBits())
			}
			got := runSecure(t, engine, NewClient(&sk.PublicKey, nil), q, 1)
			if len(got) != 1 || !slices.Equal(got[0], rows[nearest]) {
				t.Errorf("nearest to %v = %v, want %v", q, got, rows[nearest])
			}
		})
	}
}
