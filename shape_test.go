package sknn

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/paillier"
	"sknn/internal/plainknn"
)

// TestWideTableAnswers: a table of more than 1024 feature columns — past
// the arity C2's packed SSED handler once capped on its own, below the
// dataset.MaxColumns every layer now shares — answers both protocols
// exactly, served whole and split over two shards.
func TestWideTableAnswers(t *testing.T) {
	const n, m, b, k = 6, 1025, 1, 2
	tbl, err := dataset.Generate(4049, n, m, b)
	if err != nil {
		t.Fatal(err)
	}
	q, err := dataset.GenerateQuery(4050, m, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plainknn.KDistances(tbl.Rows, q, k)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	for _, shards := range []int{1, 2} {
		sys, err := New(tbl.Rows, b, Config{Key: facadeKey(), Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeBasic, ModeSecure} {
			if got := queryDistances(t, sys, q, k, mode); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("S=%d mode %v: distances %v, oracle %v", shards, mode, got, want)
			}
		}
		if err := sys.Close(); err != nil {
			t.Error(err)
		}
	}
}

// TestNewRefusesShape: a shape no table admits — more columns than
// dataset.MaxColumns, more feature columns than columns — is refused by
// New with a typed error before a single encryption.
func TestNewRefusesShape(t *testing.T) {
	wide := [][]uint64{make([]uint64, dataset.MaxColumns+1), make([]uint64, dataset.MaxColumns+1)}
	narrow := [][]uint64{{1, 2}, {3, 4}}
	for _, c := range []struct {
		name string
		rows [][]uint64
		cfg  Config
	}{
		{"MaxColumns+1 columns", wide, Config{Key: facadeKey()}},
		{"3 feature columns of 2", narrow, Config{Key: facadeKey(), FeatureColumns: 3}},
	} {
		enc0 := paillier.EncryptCalls()
		sys, err := New(c.rows, 4, c.cfg)
		if !errors.Is(err, dataset.ErrBadShape) {
			t.Errorf("%s: err = %v, want dataset.ErrBadShape", c.name, err)
		}
		if sys != nil {
			sys.Close()
		}
		if d := paillier.EncryptCalls() - enc0; d != 0 {
			t.Errorf("%s: refused table performed %d encryptions, want 0", c.name, d)
		}
	}
}
