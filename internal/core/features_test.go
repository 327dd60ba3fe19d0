package core

import (
	"context"
	"crypto/rand"
	"testing"
)

// newFeatureSystem outsources rows with the first f columns as distance
// features.
func newFeatureSystem(t *testing.T, rows [][]uint64, f int) (*Engine, *Client) {
	t.Helper()
	sk := testKey()
	encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, rows)
	if err != nil {
		t.Fatal(err)
	}
	encTable, err = encTable.WithFeatureColumns(f)
	if err != nil {
		t.Fatal(err)
	}
	return newSystemOver(t, sk, encTable, 1)
}

// TestFeatureColumnsIgnoreLabels builds a table whose label column would
// invert the ranking if it participated in the distance; correct feature
// handling must ignore it, and the labels must still come back intact.
func TestFeatureColumnsIgnoreLabels(t *testing.T) {
	rows := [][]uint64{
		{10, 10, 1}, // far by features, tiny label
		{1, 1, 500}, // nearest by features, huge label
		{5, 5, 2},
	}
	c1, bob := newFeatureSystem(t, rows, 2)
	q := []uint64{0, 0}

	for _, mode := range []string{"basic", "secure"} {
		var res *MaskedResult
		var err error
		eq, err := bob.EncryptQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if mode == "basic" {
			res, _, err = c1.BasicQuery(context.Background(), eq, 1)
		} else {
			// The attribute domain covers every column, labels included:
			// both protocols row-pack whole records into slots of the
			// table's width, b = 9.
			res, _, err = c1.SecureQuery(context.Background(), eq, 1, 0)
		}
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		got, err := bob.Unmask(res)
		if err != nil {
			t.Fatal(err)
		}
		if got[0][0] != 1 || got[0][1] != 1 || got[0][2] != 500 {
			t.Errorf("%s: nearest = %v, want [1 1 500]", mode, got[0])
		}
	}
}

func TestFeatureColumnsQueryDimension(t *testing.T) {
	rows := [][]uint64{{1, 2, 3}, {4, 5, 6}}
	c1, bob := newFeatureSystem(t, rows, 2)
	// A 3-attribute query must now be rejected: only 2 feature columns.
	eq, err := bob.EncryptQuery([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.BasicQuery(context.Background(), eq, 1); err == nil {
		t.Error("full-width query accepted against feature view")
	}
}

func TestWithFeatureColumnsValidation(t *testing.T) {
	sk := testKey()
	tbl, err := EncryptTable(rand.Reader, &sk.PublicKey, [][]uint64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.WithFeatureColumns(0); err == nil {
		t.Error("f=0 accepted")
	}
	if _, err := tbl.WithFeatureColumns(3); err == nil {
		t.Error("f>m accepted")
	}
	view, err := tbl.WithFeatureColumns(1)
	if err != nil {
		t.Fatal(err)
	}
	if view.Shape().FeatureM != 1 || view.Shape().M != 2 {
		t.Errorf("view dims = %d/%d", view.Shape().FeatureM, view.Shape().M)
	}
	if tbl.Shape().FeatureM != 2 {
		t.Error("WithFeatureColumns mutated the original table")
	}
}
