package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sknn"
	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/testkit"
)

// TestEncrypt drives the encrypt subcommand's body: a key too small for
// the table's l is refused before anything is encrypted or written, and
// -clusters yields a snapshot that loads back clustered with that many
// cells.
func TestEncrypt(t *testing.T) {
	dir := t.TempDir()

	t.Run("key too small for l", func(t *testing.T) {
		// m = 2 at 24 bits gives l = 49, one above the K − 69 a 117-bit key carries.
		tbl, err := dataset.Generate(3, 6, 2, 24)
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "small.snap")
		if err := encrypt(testkit.Key(117), tbl, out, 0); !errors.Is(err, core.ErrDomainBits) {
			t.Fatalf("err = %v, want core.ErrDomainBits", err)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("refused run left %s behind (stat err = %v)", out, err)
		}
	})

	t.Run("clustered", func(t *testing.T) {
		tbl, err := dataset.Generate(3, 24, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "clustered.snap")
		if err := encrypt(testkit.Key(256), tbl, out, 8); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sys, err := sknn.LoadTable(f, testkit.Key(256), sknn.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		if sys.Index() != sknn.IndexClustered || sys.Clusters() != 8 {
			t.Errorf("loaded index %v with %d clusters, want clustered with 8", sys.Index(), sys.Clusters())
		}
		if sys.N() != 24 || sys.DomainBits() != tbl.DomainBits() {
			t.Errorf("loaded n=%d l=%d, want 24 and %d", sys.N(), sys.DomainBits(), tbl.DomainBits())
		}
	})
}
