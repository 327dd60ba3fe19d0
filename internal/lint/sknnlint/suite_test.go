package sknnlint_test

import (
	"maps"
	"os"
	"path/filepath"
	"testing"

	"sknn/internal/lint/allow"
	"sknn/internal/lint/annotation"
	"sknn/internal/lint/loader"
	"sknn/internal/lint/sknnlint"
)

// scratchModule is a throwaway module with exactly one violation per
// analyzer, each in its own package so the triggers cannot interfere.
var scratchModule = map[string]string{
	"go.mod": "module scratch\n\ngo 1.22\n",

	"annot/annot.go": `package annot

//sknnlint:allow nosuchrule -- testing the unknown-rule report
func F() {}
`,

	"randsrc/randsrc.go": `package randsrc

import "math/rand"

var _ = rand.Int
`,

	"wireerr/wireerr.go": `package wireerr

type conn struct{}

func (conn) Send(v int) error { return nil }

func Fire(c conn) {
	c.Send(1)
}
`,

	"locks/locks.go": `package locks

import "sync"

type box struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (b *box) Bump() {
	b.n++
}
`,

	"party/c2.go": `//sknnlint:role c2

package party

type PrivateKey struct{ N int }

func (k *PrivateKey) Decrypt(c int) int { return c }
`,

	"party/c1.go": `//sknnlint:role c1

package party

func GrabsKey(k *PrivateKey, c int) int {
	return c
}
`,
}

// TestSuiteFiresEachRule runs the registered suite over scratchModule
// and requires every analyzer to report exactly once. TestRepoClean
// passes whenever the tree has zero findings; this is what shows each
// registered rule still runs. A new analyzer needs a violation here.
//
// It also requires allow.KnownRules to be exactly the registered
// analyzers bar annotation (which no annotation can waive): a retired
// rule's name left in the set would let an annotation naming it pass
// the annotation analyzer while it waives nothing.
func TestSuiteFiresEachRule(t *testing.T) {
	registered := make(map[string]bool)
	for _, a := range sknnlint.Analyzers {
		if a.Name != annotation.Analyzer.Name {
			registered[a.Name] = true
		}
	}
	if !maps.Equal(registered, allow.KnownRules) {
		t.Errorf("allow.KnownRules = %v, want the registered analyzers bar annotation: %v", allow.KnownRules, registered)
	}
	if testing.Short() {
		t.Skip("loads and type-checks the scratch module's dependency closure")
	}
	dir := t.TempDir()
	for name, src := range scratchModule {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := loader.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading scratch module: %v", err)
	}
	diags, errs := sknnlint.RunPackages(pkgs)
	for _, err := range errs {
		t.Errorf("load/analysis error: %v", err)
	}
	fired := make(map[string]int)
	for _, d := range diags {
		fired[d.Analyzer]++
	}
	for _, a := range sknnlint.Analyzers {
		if fired[a.Name] != 1 {
			t.Errorf("analyzer %s fired %d times over the scratch module, want exactly 1", a.Name, fired[a.Name])
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("%s", d)
		}
	}
}
