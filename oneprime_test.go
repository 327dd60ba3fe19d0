package sknn

import (
	"fmt"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/paillier"
	"sknn/internal/testkit"
)

// TestOnePrimeKeyMatchesOracle runs SkNNm at K = 512, the smallest key
// where C2 decrypts short slot groups under one 256-bit prime factor
// (at K = 256 the bound, 63 bits, is below any slot), and checks every
// answer against the plaintext oracle: a full scan, a two-shard scan,
// and a clustered scan with an Insert and a Delete between its queries.
// Each run must have taken the one-prime path; root-package tests run
// serially, so the process-wide counter moves for this test alone.
func TestOnePrimeKeyMatchesOracle(t *testing.T) {
	const attrBits, k = 6, 2
	tbl, err := dataset.GenerateClustered(4747, 24, 2, attrBits, 3)
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]uint64{tbl.Rows[3], {17, 40}, {63, 0}}
	for _, cfg := range []Config{
		{},
		{Shards: 2},
		{Index: IndexClustered, Clusters: 3, Coverage: 4},
	} {
		t.Run(fmt.Sprintf("shards=%d/index=%v", cfg.Shards, cfg.Index), func(t *testing.T) {
			cfg.Key = testkit.Key(512)
			sys, err := New(tbl.Rows, attrBits, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			live := map[uint64][]uint64{}
			for i, row := range tbl.Rows {
				live[uint64(i)] = row
			}
			before, _ := paillier.DecryptCalls()
			for i, q := range queries {
				if i > 0 && cfg.Index == IndexClustered {
					row := []uint64{uint64(10 * i), uint64(50 - i)}
					id, err := sys.Insert(row)
					if err != nil {
						t.Fatal(err)
					}
					live[id] = row
					if err := sys.Delete(uint64(i)); err != nil {
						t.Fatal(err)
					}
					delete(live, uint64(i))
				}
				got, err := queryRows(sys, q, k, ModeSecure)
				if err != nil {
					t.Fatal(err)
				}
				rows := make([][]uint64, 0, len(live))
				for _, row := range live {
					rows = append(rows, row)
				}
				oracleCheck(t, rows, got, q, k)
			}
			if after, _ := paillier.DecryptCalls(); after == before {
				t.Error("no slot group was decrypted under one prime")
			}
		})
	}
}
