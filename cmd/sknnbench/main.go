// Command sknnbench regenerates the paper's evaluation (Section 5):
// every series of Figure 2(a)–(f) and Figure 3, plus the SMINn cost
// share and Bob's client-side cost reported in the text. Each figure is
// printed as an aligned table with the same axes as the paper.
//
// Absolute times differ from the paper (Go math/big vs the authors' C +
// GMP testbed); the shapes — linearity in n, m, k, l, the ×~7 factor per
// key-size doubling, SkNNb ≪ SkNNm, ×cores parallel speedup — are the
// reproduction target.
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
	"runtime"
	"strings"
	"time"

	"sknn"
	"sknn/internal/benchkit"
	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/paillier"
	"sknn/internal/reference"

	"crypto/rand"
)

// scale holds the sweep parameters for one preset.
type scale struct {
	name string
	// SkNNb sweeps (figures 2a–2c, 3).
	basicNs []int
	basicMs []int
	basicKs []int
	// SkNNm sweeps (figures 2d–2f), one series per attribute width: the
	// width fixes l, which is the table's (at m = 6, widths 1 and 4 give
	// l = 3 and 11, and width 2 the paper's l = 6, which Fig 2(f) runs).
	secureN    int
	secureKs   []int
	secureBits []int
	// Figure 3 parallel workers ("6 cores" in the paper).
	workers int
}

var scales = map[string]scale{
	// small: finishes in a few minutes on a laptop.
	"small": {
		name:    "small",
		basicNs: []int{100, 200, 400}, basicMs: []int{6, 12, 18}, basicKs: []int{5, 10, 15, 20, 25},
		secureN: 24, secureKs: []int{2, 4, 6, 8}, secureBits: []int{1, 4},
		workers: min(6, runtime.NumCPU()),
	},
	// medium: tens of minutes; shapes are unambiguous.
	"medium": {
		name:    "medium",
		basicNs: []int{500, 1000, 2000}, basicMs: []int{6, 12, 18}, basicKs: []int{5, 10, 15, 20, 25},
		secureN: 100, secureKs: []int{5, 10, 15, 20, 25}, secureBits: []int{1, 4},
		workers: min(6, runtime.NumCPU()),
	},
	// paper: the exact parameters of Section 5. SkNNm points take hours
	// each, exactly as they did for the authors (11.93–97.8 minutes per
	// query in their C implementation).
	"paper": {
		name:    "paper",
		basicNs: []int{2000, 4000, 6000, 8000, 10000}, basicMs: []int{6, 12, 18}, basicKs: []int{5, 10, 15, 20, 25},
		secureN: 2000, secureKs: []int{5, 10, 15, 20, 25}, secureBits: []int{1, 4},
		workers: 6,
	},
}

// bench carries the shared state: one cached key per key size so keygen
// is paid once, and the chosen scale.
type bench struct {
	sc   scale
	keys map[int]*paillier.PrivateKey
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

// runQuery answers one benchmark query, honoring -timeout.
func runQuery(sys *sknn.System, q []uint64, k int, mode sknn.Mode) (*sknn.Result, error) {
	ctx, cancel := queryCtx()
	defer cancel()
	return sys.Query(ctx, q, sknn.WithK(k), sknn.WithMode(mode))
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sknnbench: ")
	var (
		figFlag     = flag.String("fig", "all", "figure to regenerate: 2a 2b 2c 2d 2e 2f 3 sminn bob comm baselines all")
		scaleFlag   = flag.String("scale", "small", "sweep preset: small | medium | paper")
		workersFlag = flag.Int("workers", 0, "override Figure 3 worker count (0 = min(6, NumCPU))")
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
	b := &bench{sc: sc, keys: map[int]*paillier.PrivateKey{}}

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

// basicTime runs one SkNNb query over m attributes attrBits wide and
// returns its wall time.
func (b *bench) basicTime(n, m, k, attrBits, keyBits, workers int) (time.Duration, error) {
	sys, q, err := b.system(n, m, attrBits, keyBits, workers)
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	res, err := runQuery(sys, q, k, sknn.ModeBasic)
	if err != nil {
		return 0, err
	}
	return res.Metrics.Basic.Total, nil
}

// secureMetrics runs one SkNNm query over m attributes attrBits wide and
// returns the l it ran at, the table's.
func (b *bench) secureMetrics(n, m, k, attrBits, keyBits int) (*sknn.SecureMetrics, int, error) {
	sys, q, err := b.system(n, m, attrBits, keyBits, 1)
	if err != nil {
		return nil, 0, err
	}
	defer sys.Close()
	res, err := runQuery(sys, q, k, sknn.ModeSecure)
	if err != nil {
		return nil, 0, err
	}
	return res.Metrics.Secure, sys.DomainBits(), nil
}

func (b *bench) fig2a() error { return b.basicNMSweep("Fig 2(a): SkNNb, k=5, K=512", 512) }
func (b *bench) fig2b() error { return b.basicNMSweep("Fig 2(b): SkNNb, k=5, K=1024", 1024) }

func (b *bench) basicNMSweep(title string, keyBits int) error {
	fig := benchkit.NewFigure(fmt.Sprintf("%s [scale=%s]", title, b.sc.name), "n", "time (s)")
	for _, m := range b.sc.basicMs {
		series := fig.NewSeries(fmt.Sprintf("m=%d", m))
		for _, n := range b.sc.basicNs {
			d, err := b.basicTime(n, m, 5, 8, keyBits, 1)
			if err != nil {
				return err
			}
			series.Add(float64(n), benchkit.Seconds(d))
		}
	}
	return fig.Fprint(os.Stdout)
}

func (b *bench) fig2c() error {
	n := b.sc.basicNs[len(b.sc.basicNs)-1]
	fig := benchkit.NewFigure(
		fmt.Sprintf("Fig 2(c): SkNNb, m=6, n=%d [scale=%s]", n, b.sc.name),
		"k", "time (s)")
	for _, keyBits := range []int{512, 1024} {
		series := fig.NewSeries(fmt.Sprintf("K=%d", keyBits))
		for _, k := range b.sc.basicKs {
			d, err := b.basicTime(n, 6, k, 8, keyBits, 1)
			if err != nil {
				return err
			}
			series.Add(float64(k), benchkit.Seconds(d))
		}
	}
	return fig.Fprint(os.Stdout)
}

func (b *bench) fig2d() error { return b.secureKLSweep("Fig 2(d): SkNNm, m=6", 512) }
func (b *bench) fig2e() error { return b.secureKLSweep("Fig 2(e): SkNNm, m=6", 1024) }

func (b *bench) secureKLSweep(title string, keyBits int) error {
	fig := benchkit.NewFigure(
		fmt.Sprintf("%s, n=%d, K=%d [scale=%s]", title, b.sc.secureN, keyBits, b.sc.name),
		"k", "time (min)")
	for _, attrBits := range b.sc.secureBits {
		series := fig.NewSeries("")
		for _, k := range b.sc.secureKs {
			m, l, err := b.secureMetrics(b.sc.secureN, 6, k, attrBits, keyBits)
			if err != nil {
				return err
			}
			series.Name = fmt.Sprintf("l=%d", l)
			series.Add(float64(k), benchkit.Minutes(m.Total))
		}
	}
	return fig.Fprint(os.Stdout)
}

// fig2fBits is the attribute width both of Fig 2(f)'s protocols run
// over: at m = 6 its table's l is the paper's 6.
const fig2fBits = 2

func (b *bench) fig2f() error {
	fig := benchkit.NewFigure("", "k", "time (min)")
	basicSeries := fig.NewSeries("SkNNb")
	secureSeries := fig.NewSeries("SkNNm")
	for _, k := range b.sc.secureKs {
		bd, err := b.basicTime(b.sc.secureN, 6, k, fig2fBits, 512, 1)
		if err != nil {
			return err
		}
		basicSeries.Add(float64(k), benchkit.Minutes(bd))
		sm, l, err := b.secureMetrics(b.sc.secureN, 6, k, fig2fBits, 512)
		if err != nil {
			return err
		}
		secureSeries.Add(float64(k), benchkit.Minutes(sm.Total))
		fig.Title = fmt.Sprintf("Fig 2(f): SkNNb vs SkNNm, n=%d, m=6, b=%d, l=%d, K=512 [scale=%s]",
			b.sc.secureN, fig2fBits, l, b.sc.name)
	}
	return fig.Fprint(os.Stdout)
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
		ds, err := b.basicTime(n, 6, 5, 8, 512, 1)
		if err != nil {
			return err
		}
		serial.Add(float64(n), benchkit.Seconds(ds))
		dp, err := b.basicTime(n, 6, 5, 8, 512, w)
		if err != nil {
			return err
		}
		parallel.Add(float64(n), benchkit.Seconds(dp))
	}
	if err := fig.Fprint(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("(paper: parallel ≈ serial/6 on 6 cores; here %d workers on %d CPUs)\n",
		w, runtime.NumCPU())
	return nil
}

func (b *bench) sminnShare() error {
	fig := benchkit.NewFigure("", "k", "share (%)")
	series := fig.NewSeries("SMINn")
	for _, k := range b.sc.secureKs {
		m, l, err := b.secureMetrics(b.sc.secureN, 6, k, 1, 512)
		if err != nil {
			return err
		}
		series.Add(float64(k), 100*m.SMINnShare())
		fig.Title = fmt.Sprintf("Section 5.2: SMINn share of SkNNm cost, n=%d, m=6, l=%d, K=512 [scale=%s]",
			b.sc.secureN, l, b.sc.name)
	}
	if err := fig.Fprint(os.Stdout); err != nil {
		return err
	}
	fmt.Println("(paper: 69.7% at k=5, rising to ≥75% at k=25)")
	return nil
}

// bobCost times Bob's one computation before a query: encrypting it
// attribute-wise under the key Bob holds, a public key built from the
// modulus alone (paillier.NewPublicKey), whose nonces take the public
// comb rather than the private key's CRT one.
func (b *bench) bobCost() error {
	fig := benchkit.NewFigure("Section 5.2: Bob's query-encryption cost, m=6", "K (bits)", "time (ms)")
	series := fig.NewSeries("encrypt query")
	for _, keyBits := range []int{512, 1024} {
		pk, err := paillier.NewPublicKey(b.key(keyBits).N)
		if err != nil {
			return err
		}
		q, err := dataset.GenerateQuery(1, 6, 8)
		if err != nil {
			return err
		}
		// Average a few encryptions for a stable millisecond figure.
		const reps = 10
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := pk.EncryptUint64Vector(rand.Reader, q); err != nil {
				return err
			}
		}
		series.Add(float64(keyBits), float64((time.Since(start)/reps).Microseconds())/1000)
	}
	if err := fig.Fprint(os.Stdout); err != nil {
		return err
	}
	fmt.Println("(paper: 4 ms at K=512, 17 ms at K=1024)")
	return nil
}

// comm is an extension beyond the paper: what one query of each protocol
// costs between the clouds — round trips and C2's decryptions by path
// (C2 runs in this process, so paillier.DecryptCalls counts them) —
// beside the engine's cost model, core.PredictCost, and the round trips
// the paper's printed protocols take at the same shape,
// reference.PaperCost. An engine count the model does not predict is an
// error.
func (b *bench) comm() error {
	n, m, k := b.sc.secureN, 6, min(4, b.sc.secureN)
	const attrBits, keyBits = 4, 512
	sys, q, err := b.system(n, m, attrBits, keyBits, 1)
	if err != nil {
		return err
	}
	defer sys.Close()
	shape := dataset.Shape{M: sys.M(), FeatureM: sys.FeatureM(), AttrBits: attrBits}
	model, err := core.PredictCost(shape, keyBits, n, k, sys.Shards(), sys.Workers())
	if err != nil {
		return err
	}
	paperSecure, paperBasic := reference.PaperCost(n, shape.M, shape.FeatureM, k, sys.DomainBits())
	fmt.Printf("Communication (extension): n=%d, m=%d, k=%d, b=%d, l=%d, K=%d\n", n, m, k, attrBits, sys.DomainBits(), keyBits)
	fmt.Printf("  %-6s %14s %14s %14s %12s\n", "", "rounds", "one-prime", "CRT", "paper rounds")
	var differ []string
	for _, p := range []struct {
		name  string
		mode  sknn.Mode
		model core.Cost
		paper reference.Cost
	}{
		{"SkNNb", sknn.ModeBasic, model.Basic, paperBasic},
		{"SkNNm", sknn.ModeSecure, model.Secure, paperSecure},
	} {
		onePrime0, crt0 := paillier.DecryptCalls()
		res, err := runQuery(sys, q, k, p.mode)
		if err != nil {
			return err
		}
		onePrime1, crt1 := paillier.DecryptCalls()
		comm := res.Metrics.Secure.Comm
		got := [3]int{int(comm.Rounds), int(onePrime1 - onePrime0), int(crt1 - crt0)}
		want := [3]int{p.model.Rounds, p.model.OnePrime, p.model.CRT}
		cell := func(i int) string { return fmt.Sprintf("%d / %d", got[i], want[i]) }
		fmt.Printf("  %-6s %14s %14s %14s %12d\n", p.name, cell(0), cell(1), cell(2), p.paper.Rounds)
		fmt.Printf("  %-6s %s\n", "", comm)
		if got != want {
			differ = append(differ, fmt.Sprintf("%s counted %v, model %v", p.name, got, want))
		}
	}
	fmt.Println("(measured / core.PredictCost; paper rounds: reference.PaperCost, the printed protocols at this shape)")
	if len(differ) > 0 {
		return fmt.Errorf("engine counts differ from the cost model: %s", strings.Join(differ, "; "))
	}
	return nil
}
