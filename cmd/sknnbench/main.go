// Command sknnbench regenerates the paper's evaluation (Section 5):
// every series of Figure 2(a)–(f) and Figure 3, plus the SMINn cost
// share and Bob's client-side cost reported in the text. Each figure is
// printed as an aligned table with the same axes as the paper.
//
// Absolute times differ from the paper (Go math/big vs the authors' C +
// GMP testbed); the shapes — linearity in n, m, k, l, the ×~7 factor per
// key-size doubling, SkNNb ≪ SkNNm, ×cores parallel speedup — are the
// reproduction target. See EXPERIMENTS.md.
//
// Usage:
//
//	sknnbench -fig all -scale small     # minutes, reduced sweeps (default)
//	sknnbench -fig 2a -scale medium     # closer to paper sizes
//	sknnbench -fig 2d -scale paper      # the paper's exact parameters (hours!)
//
// Figures: 2a 2b 2c 2d 2e 2f 3 sminn bob comm baselines all
//
// Throughput, index, sharding and gateway measurements live in bench/
// (bash bench/run.sh), the repo's one benchmark; this command keeps only
// the paper's own figures.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sknn"
	"sknn/internal/benchkit"
	"sknn/internal/dataset"
	"sknn/internal/paillier"

	"crypto/rand"
)

// scale holds the sweep parameters for one preset.
type scale struct {
	name string
	// SkNNb sweeps (figures 2a–2c, 3).
	basicNs []int
	basicMs []int
	basicKs []int
	// SkNNm sweeps (figures 2d–2f).
	secureN  int
	secureKs []int
	secureLs []int
	// Figure 3 parallel workers ("6 cores" in the paper).
	workers int
}

var scales = map[string]scale{
	// small: finishes in a few minutes on a laptop.
	"small": {
		name:    "small",
		basicNs: []int{100, 200, 400}, basicMs: []int{6, 12, 18}, basicKs: []int{5, 10, 15, 20, 25},
		secureN: 24, secureKs: []int{2, 4, 6, 8}, secureLs: []int{6, 12},
		workers: min(6, runtime.NumCPU()),
	},
	// medium: tens of minutes; shapes are unambiguous.
	"medium": {
		name:    "medium",
		basicNs: []int{500, 1000, 2000}, basicMs: []int{6, 12, 18}, basicKs: []int{5, 10, 15, 20, 25},
		secureN: 100, secureKs: []int{5, 10, 15, 20, 25}, secureLs: []int{6, 12},
		workers: min(6, runtime.NumCPU()),
	},
	// paper: the exact parameters of Section 5. SkNNm points take hours
	// each, exactly as they did for the authors (11.93–97.8 minutes per
	// query in their C implementation).
	"paper": {
		name:    "paper",
		basicNs: []int{2000, 4000, 6000, 8000, 10000}, basicMs: []int{6, 12, 18}, basicKs: []int{5, 10, 15, 20, 25},
		secureN: 2000, secureKs: []int{5, 10, 15, 20, 25}, secureLs: []int{6, 12},
		workers: 6,
	},
}

// bench carries the shared state: one cached key per key size so keygen
// is paid once, the chosen scale, and the optional JSON output dir.
type bench struct {
	sc      scale
	keys    map[int]*paillier.PrivateKey
	jsonDir string
}

// benchTimeout is the -timeout per-query deadline (0 = none), shared by
// every figure's query loop.
var benchTimeout time.Duration

// queryCtx arms one query's context under -timeout.
func queryCtx() (context.Context, context.CancelFunc) {
	if benchTimeout > 0 {
		return context.WithTimeout(context.Background(), benchTimeout)
	}
	return context.Background(), func() {}
}

// runQuery answers one throwaway benchmark query through the v2 API,
// honoring -timeout.
func runQuery(sys *sknn.System, q []uint64, k int, mode sknn.Mode) error {
	ctx, cancel := queryCtx()
	defer cancel()
	_, err := sys.Query(ctx, q, sknn.WithK(k), sknn.WithMode(mode))
	return err
}

// queryBasicMetered is the v1 metered call shape over the v2 API.
func queryBasicMetered(sys *sknn.System, q []uint64, k int) ([][]uint64, *sknn.BasicMetrics, error) {
	ctx, cancel := queryCtx()
	defer cancel()
	res, err := sys.Query(ctx, q, sknn.WithK(k), sknn.WithMode(sknn.ModeBasic))
	if err != nil {
		return nil, nil, err
	}
	return res.Rows, res.Metrics.Basic, nil
}

// querySecureMetered is queryBasicMetered's SkNNm sibling.
func querySecureMetered(sys *sknn.System, q []uint64, k int) ([][]uint64, *sknn.SecureMetrics, error) {
	ctx, cancel := queryCtx()
	defer cancel()
	res, err := sys.Query(ctx, q, sknn.WithK(k), sknn.WithMode(sknn.ModeSecure))
	if err != nil {
		return nil, nil, err
	}
	return res.Rows, res.Metrics.Secure, nil
}

// emit renders fig to stdout and, when -json is set, also writes
// BENCH_<name>.json so later PRs can diff the perf trajectory without
// scraping tables.
func (b *bench) emit(fig *benchkit.Figure, name string) error {
	if err := fig.Fprint(os.Stdout); err != nil {
		return err
	}
	if b.jsonDir == "" {
		return nil
	}
	path := filepath.Join(b.jsonDir, "BENCH_"+name+".json")
	if err := fig.WriteJSON(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sknnbench: ")
	var (
		figFlag     = flag.String("fig", "all", "figure to regenerate: 2a 2b 2c 2d 2e 2f 3 sminn bob comm baselines all")
		scaleFlag   = flag.String("scale", "small", "sweep preset: small | medium | paper")
		workersFlag = flag.Int("workers", 0, "override Figure 3 worker count (0 = min(6, NumCPU))")
		jsonFlag    = flag.String("json", "", "also write machine-readable BENCH_<fig>.json files into this directory")
		timeoutFlag = flag.Duration("timeout", 0, "per-query deadline; 0 = none. A stuck point aborts within one protocol round instead of hanging the sweep")
	)
	flag.Parse()
	benchTimeout = *timeoutFlag

	sc, ok := scales[*scaleFlag]
	if !ok {
		log.Fatalf("unknown -scale %q", *scaleFlag)
	}
	if *workersFlag > 0 {
		sc.workers = *workersFlag
	}
	if *jsonFlag != "" {
		if err := os.MkdirAll(*jsonFlag, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	b := &bench{sc: sc, keys: map[int]*paillier.PrivateKey{}, jsonDir: *jsonFlag}

	figs := map[string]func() error{
		"2a":        b.fig2a,
		"2b":        b.fig2b,
		"2c":        b.fig2c,
		"2d":        b.fig2d,
		"2e":        b.fig2e,
		"2f":        b.fig2f,
		"3":         b.fig3,
		"sminn":     b.sminnShare,
		"bob":       b.bobCost,
		"comm":      b.comm,
		"baselines": b.baselines,
	}
	order := []string{"2a", "2b", "2c", "2d", "2e", "2f", "3", "sminn", "bob", "comm", "baselines"}

	if *figFlag == "all" {
		for _, name := range order {
			if err := figs[name](); err != nil {
				log.Fatalf("figure %s: %v", name, err)
			}
			fmt.Println()
		}
		return
	}
	fn, ok := figs[*figFlag]
	if !ok {
		log.Fatalf("unknown -fig %q", *figFlag)
	}
	if err := fn(); err != nil {
		log.Fatal(err)
	}
}

// key returns (generating once) the Paillier key for the given size.
func (b *bench) key(bits int) *paillier.PrivateKey {
	if sk, ok := b.keys[bits]; ok {
		return sk
	}
	sk, err := paillier.GenerateKey(rand.Reader, bits)
	if err != nil {
		log.Fatalf("keygen %d: %v", bits, err)
	}
	b.keys[bits] = sk
	return sk
}

// system builds a System over a fresh synthetic table.
func (b *bench) system(n, m, attrBits, keyBits, workers int) (*sknn.System, []uint64, error) {
	tbl, err := dataset.Generate(int64(n*31+m), n, m, attrBits)
	if err != nil {
		return nil, nil, err
	}
	q, err := dataset.GenerateQuery(int64(n*37+m), m, attrBits)
	if err != nil {
		return nil, nil, err
	}
	sys, err := sknn.New(tbl.Rows, attrBits, sknn.Config{Key: b.key(keyBits), Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	return sys, q, nil
}

// basicTime runs one SkNNb query and returns its wall time.
func (b *bench) basicTime(n, m, k, keyBits, workers int) (time.Duration, error) {
	sys, q, err := b.system(n, m, 8, keyBits, workers)
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	_, metrics, err := queryBasicMetered(sys, q, k)
	if err != nil {
		return 0, err
	}
	return metrics.Total, nil
}

// secureMetrics runs one SkNNm query with the attribute domain chosen so
// the distance domain is exactly l bits (the paper sweeps l directly).
func (b *bench) secureMetrics(n, m, k, l, keyBits int) (*sknn.SecureMetrics, error) {
	// Pick attrBits so DomainBits(attrBits, m) ≤ l, then run SkNNm with
	// exactly l decomposition bits (extra headroom is harmless).
	attrBits := 1
	for dataset.DomainBits(attrBits+1, m) <= l {
		attrBits++
	}
	sys, q, err := b.system(n, m, attrBits, keyBits, 1)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	_, metrics, err := querySecureMetered(sys, q, k)
	if err != nil {
		return nil, err
	}
	return metrics, nil
}

func (b *bench) fig2a() error { return b.basicNMSweep("2a", "Fig 2(a): SkNNb, k=5, K=512", 512) }
func (b *bench) fig2b() error { return b.basicNMSweep("2b", "Fig 2(b): SkNNb, k=5, K=1024", 1024) }

func (b *bench) basicNMSweep(name, title string, keyBits int) error {
	fig := benchkit.NewFigure(fmt.Sprintf("%s [scale=%s]", title, b.sc.name), "n", "time (s)")
	for _, m := range b.sc.basicMs {
		series := fig.NewSeries(fmt.Sprintf("m=%d", m))
		for _, n := range b.sc.basicNs {
			d, err := b.basicTime(n, m, 5, keyBits, 1)
			if err != nil {
				return err
			}
			series.Add(float64(n), benchkit.Seconds(d))
		}
	}
	return b.emit(fig, name)
}

func (b *bench) fig2c() error {
	n := b.sc.basicNs[len(b.sc.basicNs)-1]
	fig := benchkit.NewFigure(
		fmt.Sprintf("Fig 2(c): SkNNb, m=6, n=%d [scale=%s]", n, b.sc.name),
		"k", "time (s)")
	for _, keyBits := range []int{512, 1024} {
		series := fig.NewSeries(fmt.Sprintf("K=%d", keyBits))
		for _, k := range b.sc.basicKs {
			d, err := b.basicTime(n, 6, k, keyBits, 1)
			if err != nil {
				return err
			}
			series.Add(float64(k), benchkit.Seconds(d))
		}
	}
	return b.emit(fig, "2c")
}

func (b *bench) fig2d() error { return b.secureKLSweep("2d", "Fig 2(d): SkNNm, m=6", 512) }
func (b *bench) fig2e() error { return b.secureKLSweep("2e", "Fig 2(e): SkNNm, m=6", 1024) }

func (b *bench) secureKLSweep(name, title string, keyBits int) error {
	fig := benchkit.NewFigure(
		fmt.Sprintf("%s, n=%d, K=%d [scale=%s]", title, b.sc.secureN, keyBits, b.sc.name),
		"k", "time (min)")
	for _, l := range b.sc.secureLs {
		series := fig.NewSeries(fmt.Sprintf("l=%d", l))
		for _, k := range b.sc.secureKs {
			m, err := b.secureMetrics(b.sc.secureN, 6, k, l, keyBits)
			if err != nil {
				return err
			}
			series.Add(float64(k), benchkit.Minutes(m.Total))
		}
	}
	return b.emit(fig, name)
}

func (b *bench) fig2f() error {
	fig := benchkit.NewFigure(
		fmt.Sprintf("Fig 2(f): SkNNb vs SkNNm, n=%d, m=6, l=6, K=512 [scale=%s]",
			b.sc.secureN, b.sc.name),
		"k", "time (min)")
	basicSeries := fig.NewSeries("SkNNb")
	secureSeries := fig.NewSeries("SkNNm")
	for _, k := range b.sc.secureKs {
		bd, err := b.basicTime(b.sc.secureN, 6, k, 512, 1)
		if err != nil {
			return err
		}
		basicSeries.Add(float64(k), benchkit.Minutes(bd))
		sm, err := b.secureMetrics(b.sc.secureN, 6, k, 6, 512)
		if err != nil {
			return err
		}
		secureSeries.Add(float64(k), benchkit.Minutes(sm.Total))
	}
	return b.emit(fig, "2f")
}

func (b *bench) fig3() error {
	w := b.sc.workers
	fig := benchkit.NewFigure(
		fmt.Sprintf("Fig 3: SkNNb serial vs parallel (%d workers), m=6, k=5, K=512 [scale=%s]",
			w, b.sc.name),
		"n", "time (s)")
	serial := fig.NewSeries("serial")
	parallel := fig.NewSeries("parallel")
	for _, n := range b.sc.basicNs {
		ds, err := b.basicTime(n, 6, 5, 512, 1)
		if err != nil {
			return err
		}
		serial.Add(float64(n), benchkit.Seconds(ds))
		dp, err := b.basicTime(n, 6, 5, 512, w)
		if err != nil {
			return err
		}
		parallel.Add(float64(n), benchkit.Seconds(dp))
	}
	if err := b.emit(fig, "3"); err != nil {
		return err
	}
	fmt.Printf("(paper: parallel ≈ serial/6 on 6 cores; here %d workers on %d CPUs)\n",
		w, runtime.NumCPU())
	return nil
}

func (b *bench) sminnShare() error {
	fig := benchkit.NewFigure(
		fmt.Sprintf("Section 5.2: SMINn share of SkNNm cost, n=%d, m=6, l=6, K=512 [scale=%s]",
			b.sc.secureN, b.sc.name),
		"k", "share (%)")
	series := fig.NewSeries("SMINn")
	for _, k := range b.sc.secureKs {
		m, err := b.secureMetrics(b.sc.secureN, 6, k, 6, 512)
		if err != nil {
			return err
		}
		series.Add(float64(k), 100*m.SMINnShare())
	}
	if err := b.emit(fig, "sminn"); err != nil {
		return err
	}
	fmt.Println("(paper: 69.7% at k=5, rising to ≥75% at k=25)")
	return nil
}

func (b *bench) bobCost() error {
	fig := benchkit.NewFigure("Section 5.2: Bob's query-encryption cost, m=6", "K (bits)", "time (ms)")
	series := fig.NewSeries("encrypt query")
	for _, keyBits := range []int{512, 1024} {
		sys, q, err := b.system(4, 6, 8, keyBits, 1)
		if err != nil {
			return err
		}
		// Average a few encryptions for a stable millisecond figure.
		const reps = 10
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := runQuery(sys, q, 1, sknn.ModeBasic); err != nil {
				sys.Close()
				return err
			}
		}
		_ = time.Since(start) // full-query time not reported; encryption below
		encStart := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := sys.PublicKey().EncryptUint64Vector(rand.Reader, q); err != nil {
				sys.Close()
				return err
			}
		}
		perEncrypt := time.Since(encStart) / reps
		sys.Close()
		series.Add(float64(keyBits), float64(perEncrypt.Microseconds())/1000)
	}
	if err := b.emit(fig, "bob"); err != nil {
		return err
	}
	fmt.Println("(paper: 4 ms at K=512, 17 ms at K=1024)")
	return nil
}

// comm is an extension beyond the paper: communication complexity of the
// two protocols side by side.
func (b *bench) comm() error {
	n, m, k := b.sc.secureN, 6, 4
	if k > n {
		k = n
	}
	sys, q, err := b.system(n, m, 4, 512, 1)
	if err != nil {
		return err
	}
	defer sys.Close()
	_, bm, err := queryBasicMetered(sys, q, k)
	if err != nil {
		return err
	}
	_, sm, err := querySecureMetered(sys, q, k)
	if err != nil {
		return err
	}
	fmt.Printf("Communication (extension): n=%d, m=%d, k=%d, K=512\n", n, m, k)
	fmt.Printf("  SkNNb: %s\n", bm.Comm)
	fmt.Printf("  SkNNm: %s\n", sm.Comm)
	return nil
}
