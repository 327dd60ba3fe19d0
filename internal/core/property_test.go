package core

import (
	mrand "math/rand"
	"testing"
	"testing/quick"

	"sknn/internal/dataset"
	"sknn/internal/plainknn"
)

// TestPropertySecureMatchesOracle sweeps SkNNm over random tiny
// instances — shapes, domains, and k all vary — and checks the returned
// distance multiset against the plaintext oracle every time. This is
// the strongest single correctness statement in the suite: the whole
// protocol stack (Paillier → SM/SSED/SBD/SMIN/SMINn/SBOR → Algorithm 6)
// agrees with a 10-line plaintext loop on arbitrary inputs.
func TestPropertySecureMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol property sweep is slow")
	}
	rng := mrand.New(mrand.NewSource(404))
	f := func() bool {
		n := 2 + rng.Intn(7)    // 2..8 records
		m := 1 + rng.Intn(3)    // 1..3 attributes
		bits := 2 + rng.Intn(2) // 2..3-bit domain
		k := 1 + rng.Intn(n)    // 1..n
		tbl, err := dataset.Generate(rng.Int63(), n, m, bits)
		if err != nil {
			return false
		}
		q, err := dataset.GenerateQuery(rng.Int63(), m, bits)
		if err != nil {
			return false
		}
		c1, bob := newSystem(t, tbl, 1)
		got := runSecure(t, c1, bob, q, k)
		want, err := plainknn.KDistances(tbl.Rows, q, k)
		if err != nil {
			return false
		}
		gotDs := distancesOf(t, got, q)
		for i := range want {
			if gotDs[i] != want[i] {
				t.Logf("n=%d m=%d bits=%d k=%d: got %v want %v", n, m, bits, k, gotDs, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBasicMatchesOracle is the SkNNb analogue, cheap enough
// for a wider sweep.
func TestPropertyBasicMatchesOracle(t *testing.T) {
	rng := mrand.New(mrand.NewSource(405))
	f := func() bool {
		n := 2 + rng.Intn(20)
		m := 1 + rng.Intn(5)
		bits := 2 + rng.Intn(4)
		k := 1 + rng.Intn(n)
		tbl, err := dataset.Generate(rng.Int63(), n, m, bits)
		if err != nil {
			return false
		}
		q, err := dataset.GenerateQuery(rng.Int63(), m, bits)
		if err != nil {
			return false
		}
		c1, bob := newSystem(t, tbl, 1)
		got := runBasic(t, c1, bob, q, k)
		want, err := plainknn.KNN(tbl.Rows, q, k)
		if err != nil {
			return false
		}
		for i, nb := range want {
			for j := range got[i] {
				if got[i][j] != tbl.Rows[nb.Index][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}
