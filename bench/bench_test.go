package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sknn/internal/cluster"
	"sknn/internal/mpc"
	"sknn/internal/store"
	"sknn/internal/testkit"
)

func TestPercentileAndTenBeyondRule(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	if got := percentile(v, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(v, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(v[:1], 0.9); got != 100 {
		t.Errorf("p90 of one sample = %v, want the sample", got)
	}
	if got := percentile(nil, 0.9); got != 0 {
		t.Errorf("p90 of nothing = %v, want 0", got)
	}
	for _, c := range []struct {
		n      int
		beyond int
		tail   float64
	}{
		{99, 9, 0.5}, // one short of ten beyond p90
		{100, 10, 0.9},
		{999, 99, 0.9},
		{1000, 100, 0.99},
		{10000, 1000, 0.999},
	} {
		if got := samplesBeyond(c.n, 0.9); got != c.beyond {
			t.Errorf("samplesBeyond(%d, 0.9) = %d, want %d", c.n, got, c.beyond)
		}
		if got := tailPercentile(c.n); got != c.tail {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.tail)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
	q1, q3 = quartiles([]float64{13, 10, 11})
	if q1 != 10 || q3 != 13 {
		t.Errorf("quartiles(10,11,13) = %v, %v, want 10, 13", q1, q3)
	}
	if got := spread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25−2.75)/5.5 = 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c1.query", Start: 10, End: 90},
		// two round trips on parallel links overlap from 30 to 40
		{ID: 3, Parent: 2, Name: "rtt:16", Start: 20, End: 40},
		{ID: 4, Parent: 2, Name: "rtt:16", Start: 30, End: 60},
		{ID: 5, Parent: 3, Name: "c2.handle:16", Start: 25, End: 35},
		// a child reaching past its parent is clipped to it
		{ID: 6, Parent: 2, Name: "rtt:65", Start: 80, End: 95},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 20, 2: 80 - 40 - 10, 3: 10, 4: 30, 5: 10, 6: 15}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if got := cover([][2]int64{{5, 7}, {6, 9}, {20, 30}}, 0, 25); got != 4+5 {
		t.Errorf("cover = %d, want 9", got)
	}
}

func TestMatchHandlesByTag(t *testing.T) {
	rtts := []rttRef{
		{Span: 1, Link: "a", Tag: 7, Op: 16, Start: 10},
		{Span: 2, Link: "a", Tag: 8, Op: 16, Start: 11}, // another session interleaved on the link
		{Span: 3, Link: "a", Tag: 7, Op: 64, Start: 50},
		{Span: 4, Link: "b", Tag: 7, Op: 16, Start: 12}, // same tag on another link is another session
		{Span: 5, Link: "a", Tag: 9, Op: 65, Start: 60}, // never reached C2
	}
	handles := []handleEvent{
		{Link: "a", Tag: 7, Op: 64, Start: 55, End: 58}, // logged out of order
		{Link: "b", Tag: 7, Op: 16, Start: 14, End: 20},
		{Link: "a", Tag: 7, Op: 16, Start: 12, End: 30},
		{Link: "a", Tag: 8, Op: 16, Start: 13, End: 31},
		{Link: "c", Tag: 1, Op: 16, Start: 1, End: 2}, // a link nobody tapped
	}
	pairs, unmatched := matchHandles(rtts, handles)
	if unmatched != 1 {
		t.Errorf("unmatched = %d, want 1", unmatched)
	}
	want := map[int]handleEvent{1: handles[2], 2: handles[3], 3: handles[0], 4: handles[1]}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("pairs = %v, want %v", pairs, want)
	}
	// An opcode that does not line up is a mismatch, not a pairing.
	_, unmatched = matchHandles(rtts[:1], []handleEvent{{Link: "a", Tag: 7, Op: 19, Start: 12, End: 13}})
	if unmatched != 1 {
		t.Errorf("opcode mismatch went unnoticed")
	}
}

func TestScopeBindsTagsToTheIdlestOwner(t *testing.T) {
	sc := newScope()
	if o := sc.ownerFor("l", 1); o != (owner{}) {
		t.Errorf("frame with nobody in the pool bound to %v", o)
	}
	a, b := owner{span: 10, query: 1}, owner{span: 20, query: 2}
	sc.enter(a)
	sc.enter(b)
	if o := sc.ownerFor("l", 2); o != a {
		t.Errorf("first new tag bound to %v, want the oldest owner", o)
	}
	if o := sc.ownerFor("l", 3); o != b {
		t.Errorf("second new tag bound to %v, want the owner without a session", o)
	}
	if o := sc.ownerFor("l", 2); o != a {
		t.Errorf("a bound tag moved to %v", o)
	}
	sc.leave(a)
	if o := sc.ownerFor("l", 2); o != a {
		t.Errorf("a late reply lost its owner: %v", o)
	}
	if o := sc.ownerFor("l", 4); o != b {
		t.Errorf("new tag after a left bound to %v", o)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{name: "query_p50_ms", better: "lower", bound: 0.07}
	higher := metricDef{name: "throughput_qps", better: "higher", bound: 0.07}
	steady := []float64{100, 101, 99, 100, 100.5}
	for _, c := range []struct {
		name string
		a, b []float64
		def  metricDef
		want string
	}{
		{"same", steady, steady, lower, verdictOK},
		{"slower within bound", steady, []float64{105, 106, 104}, lower, verdictOK},
		{"slower beyond bound", steady, []float64{110, 111, 109}, lower, verdictRegressed},
		{"faster", steady, []float64{50, 51, 49}, lower, verdictOK},
		{"throughput down beyond bound", steady, []float64{90, 91, 89}, higher, verdictRegressed},
		{"throughput up", steady, []float64{120, 121, 119}, higher, verdictOK},
		{"too noisy to tell", []float64{80, 100, 120, 90, 110}, steady, lower, verdictUnresolved},
		{"noisy but clearly worse", []float64{80, 100, 120, 90, 110}, []float64{150, 151}, lower, verdictRegressed},
	} {
		got := compareSets(c.a, c.b, c.def)
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %s (worse %+.3f, spreads %.3f/%.3f), want %s",
				c.name, got.Verdict, got.Worse, got.SpreadA, got.SpreadB, c.want)
		}
	}
	if w := worsening(100, 110, "lower"); math.Abs(w-0.10) > 1e-12 {
		t.Errorf("worsening lower = %v", w)
	}
	if w := worsening(100, 110, "higher"); math.Abs(w+0.10) > 1e-12 {
		t.Errorf("worsening higher = %v", w)
	}
}

func TestCompensationFollowsTheHost(t *testing.T) {
	nominal := ms(nominalKernel)
	// A run whose first half ran at nominal speed and whose second half at
	// half speed: the same work reads twice as long, the kernel too.
	var timings, kernels []float64
	for i := 0; i < 40; i++ {
		slow := 1.0
		if i >= 20 {
			slow = 2
		}
		timings = append(timings, 100*slow)
		kernels = append(kernels, nominal*slow)
	}
	got := compensate(timings, kernels)
	for _, i := range []int{0, 10, 30, 39} { // away from the change of speed
		if math.Abs(got[i]-100) > 1e-9 {
			t.Errorf("compensated[%d] = %v, want 100", i, got[i])
		}
	}
	if math.Abs(median(got)-100) > 1 {
		t.Errorf("median compensated = %v, want about 100", median(got))
	}
	// The readings round an operation are pooled by their mean: a host
	// hopping between full and half speed reads as three quarters.
	hop := []float64{nominal, 2 * nominal, nominal, 2 * nominal, nominal, 2 * nominal, nominal, 2 * nominal, nominal, 2 * nominal, nominal, 2 * nominal}
	if s := speedAt(hop, 6); math.Abs(s-17.0/11) > 1e-9 { // readings 1..11: six slow, five fast
		t.Errorf("speedAt = %v, want 17/11", s)
	}
	if s := hostSpeed(hop); math.Abs(s-1.5) > 1e-9 {
		t.Errorf("hostSpeed = %v, want 1.5", s)
	}
	if got := compensate([]float64{7}, nil); got[0] != 7 {
		t.Errorf("no readings must leave a timing alone, got %v", got[0])
	}
	if d := kernel(); d <= 0 {
		t.Errorf("kernel took %v", d)
	}
}

func TestCheckRowsComparesDistanceMultisets(t *testing.T) {
	table := [][]uint64{{0, 0}, {3, 0}, {0, 3}, {9, 9}}
	q := []uint64{0, 0}
	// {3,0} and {0,3} tie at distance 9: either is a right answer.
	for _, got := range [][][]uint64{{{0, 0}, {3, 0}}, {{0, 3}, {0, 0}}} {
		if recall, valid := checkRows(table, q, 2, got); recall != 1 || !valid {
			t.Errorf("checkRows(%v) = %v, %v", got, recall, valid)
		}
	}
	if recall, valid := checkRows(table, q, 2, [][]uint64{{0, 0}, {9, 9}}); recall != 0.5 || !valid {
		t.Errorf("a far row: recall %v valid %v, want 0.5 true", recall, valid)
	}
	if _, valid := checkRows(table, q, 2, [][]uint64{{0, 0}, {1, 1}}); valid {
		t.Error("a row that is not in the table passed")
	}
	if _, valid := checkRows(table, q, 2, [][]uint64{{0, 0}, {0, 0}}); valid {
		t.Error("the same row twice passed")
	}
	if _, valid := checkRows(table, q, 2, [][]uint64{{0, 0}}); valid {
		t.Error("a short answer passed")
	}
}

// The steadiness of live_mixed rests on k-means finding exactly the
// generated blobs, whatever the seed.
func TestBlobsAreWhatKMeansFinds(t *testing.T) {
	sh := findWorkload("live_mixed").shape
	for seed := int64(1); seed <= 20; seed++ {
		in, err := genBlobs(seed, sh)
		if err != nil {
			t.Fatal(err)
		}
		if len(in.rows) != sh.N || len(in.inserts) == 0 || len(in.queries) != queryPool {
			t.Fatalf("seed %d: %d rows, %d inserts, %d queries", seed, len(in.rows), len(in.inserts), len(in.queries))
		}
		// the table, then the table with a standing set of inserts
		for _, rows := range [][][]uint64{in.rows, append(append([][]uint64(nil), in.rows...), in.inserts[:liveInserts]...)} {
			part, err := cluster.KMeans(rows, sh.Clusters, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, members := range part.Members {
				blob := -1
				for _, i := range members {
					b := i / (sh.N / sh.Clusters) // rows are laid out blob by blob
					if i >= sh.N {
						b = (i - sh.N) % sh.Clusters // insert j joins blob j mod Clusters
					}
					if blob >= 0 && b != blob {
						t.Fatalf("seed %d: a cluster mixes blobs %d and %d", seed, blob, b)
					}
					blob = b
				}
			}
			if len(part.Members) != sh.Clusters {
				t.Fatalf("seed %d: %d clusters, want %d", seed, len(part.Members), sh.Clusters)
			}
		}
	}
	a, _ := genBlobs(7, sh)
	b, _ := genBlobs(7, sh)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different inputs")
	}
}

// BENCHMARK.json repeats the workload and metric tables; the driver
// reads that file, the program these.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q / %q, defined %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(decl.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(decl.EndToEnd), len(endToEndDefs))
	}
	sawSetup := false
	for i, m := range decl.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: declared %+v, defined %+v", i, m, d)
		}
		if m.Bound > 0.25 {
			t.Errorf("%s: bound %v above the contract's 0.25", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("setup_s is not declared")
	}
	if len(decl.PerLayer) != len(perLayerDefs) || len(decl.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d defined", len(decl.PerLayer), len(perLayerDefs))
	}
	for i, m := range decl.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: declared %+v, defined %+v", i, m, d)
		}
	}
}

// toyShapes are the four workloads small enough for a 256-bit key and a
// few seconds: same topologies, same code paths.
var toyShapes = map[string]shape{
	"secure_scan":     {N: 4, M: 2, AttrBits: 3, K: 1, Mode: "secure", Index: "none", Workers: 1, Clients: 1},
	"basic_tcp":       {N: 6, M: 2, AttrBits: 4, K: 2, Mode: "basic", Index: "none", Workers: 2, Clients: 1},
	"gateway_sharded": {N: 4, M: 2, AttrBits: 3, K: 1, Mode: "secure", Index: "none", Workers: 1, Shards: 2, Clients: 2},
	"live_mixed":      {N: 8, M: 2, AttrBits: 6, K: 1, Mode: "secure", Index: "clustered", Clusters: 4, Workers: 1, Clients: 1},
}

func TestSmoke(t *testing.T) {
	keyPath := filepath.Join(t.TempDir(), "k256.key")
	if err := store.WriteKeyFile(keyPath, testkit.Key(256)); err != nil {
		t.Fatal(err)
	}
	traceDir := t.TempDir()
	for _, def := range workloads {
		def := def
		sh := toyShapes[def.name]
		for _, traced := range []bool{false, true} {
			cfg := runConfig{
				seed: 3, seconds: 0, trace: traced, keyPath: keyPath,
				setups: 2, warmup: 2, minQueries: 3, traceDir: traceDir, shape: &sh,
				micro: microScale{kernel: 3, smc: 2, heavy: 1, sminn: 1, keygen: 1},
			}
			res, err := runWorkload(&def, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d checks=%v",
					def.name, traced, res.Correct, res.Attempted, res.Failed, res.Checks)
			}
			if _, err := resultLine(res); err != nil {
				t.Errorf("%s: result line: %v", def.name, err)
			}
			if !traced {
				if len(res.Metrics) != len(endToEndDefs) {
					t.Errorf("%s: %d end-to-end metrics, want %d", def.name, len(res.Metrics), len(endToEndDefs))
				}
				for _, m := range res.Metrics {
					if m.Value <= 0 || math.IsNaN(m.Value) {
						t.Errorf("%s: end-to-end metric %s = %v; these must never be 0", def.name, m.Name, m.Value)
					}
				}
				continue
			}
			if len(res.Metrics) != len(perLayerDefs) {
				t.Errorf("%s: %d per-layer metrics, want %d", def.name, len(res.Metrics), len(perLayerDefs))
			}
			requests, _ := res.metric("c2.requests_per_query")
			socket, _ := res.metric("mpc.socket_bytes_per_query")
			composed := def.name == "basic_tcp" || def.name == "gateway_sharded"
			if composed != (requests.Value > 0) || composed != (socket.Value > 0) {
				t.Errorf("%s: c2.requests_per_query=%v mpc.socket_bytes_per_query=%v", def.name, requests.Value, socket.Value)
			}
			data, err := os.ReadFile(res.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var file struct{ Spans []span }
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatal(err)
			}
			names := map[string]int{}
			for _, s := range file.Spans {
				if s.Query > 0 {
					name, _, _ := strings.Cut(s.Name, ":")
					names[name]++
				}
			}
			want := map[string][]string{
				"secure_scan":     {"query", "c1.query", "phase.sminn"},
				"basic_tcp":       {"query", "bob.encrypt", "c1.query", "rtt", "c2.handle", "bob.unmask"},
				"gateway_sharded": {"query", "bob.encrypt", "gateway.rtt", "gateway.backend", "shard.topk[0]", "shard.topk[1]", "rtt", "c2.handle", "bob.unmask"},
				"live_mixed":      {"query", "c1.query", "phase.centroid"},
			}[def.name]
			for _, name := range want {
				if names[name] == 0 {
					t.Errorf("%s: no %q span in the trace (have %v)", def.name, name, names)
				}
			}
		}
	}
}

// A tapped link must not change what crosses it.
func TestLinkTapPassesFramesThrough(t *testing.T) {
	kit := newTraceKit()
	a, b := mpc.ChanPipe()
	done := make(chan error, 1)
	go func() { done <- mpc.Serve(b, kit.timedHandler(mpc.NewMux(), "pipe")) }()
	sc := newScope()
	o := owner{kit.tr.begin(0, 1, "core", "c1.query"), 1}
	sc.enter(o)
	tapped := kit.tap(a, sc, "pipe")
	if _, err := pingRTT(tapped, 5); err != nil {
		t.Fatal(err)
	}
	sc.leave(o)
	kit.tr.end(o.span, 0)
	tapped.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	spans, unmatched := kit.finish()
	rtts, handles := 0, 0
	for _, s := range spans {
		switch {
		case s.Name == "rtt:2" && s.Parent == o.span && s.Query == 1:
			rtts++
		case s.Name == "c2.handle:2" && s.Query == 1:
			handles++
		}
	}
	if rtts != 5 || handles != 5 || unmatched != 0 {
		t.Errorf("%d rtt spans, %d handle spans, %d unmatched; want 5, 5, 0", rtts, handles, unmatched)
	}
	if kit.frames() != 10 {
		t.Errorf("%d frames tapped, want 10", kit.frames())
	}
}
