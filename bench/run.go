package main

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/big"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"sknn"
	"sknn/internal/core"
	"sknn/internal/paillier"
	"sknn/internal/plainknn"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	seed    int64
	seconds float64 // measuring window
	trace   bool
	keyPath string
	// setups is how many times the system is stood up; setup_s and
	// heap_mb are medians over them and the last one is measured.
	setups int
	// warmup queries run before the window: lazy tables, pool dials.
	warmup int
	// minQueries keeps a very short window (the smoke test's) from
	// ending before anything was measured.
	minQueries int
	micro      microScale
	traceDir   string // where the traced run writes its span file
	shape      *shape // overrides the workload's shape (smoke test)
}

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// runResult is what one run reports.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Shape     shape    `json:"shape"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Metrics   []metric `json:"metrics"`
	// Checks are the cost-model and bypass predictions with what was
	// counted; a violated one makes the run incorrect.
	Checks []string `json:"checks"`
	// Notes say what host-speed compensation did to this run: the factor
	// and the raw values next to the compensated ones.
	Notes     []string `json:"notes,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
}

func (r *runResult) metric(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// sample is one timed client query and the kernel reading taken right
// after it (see calib.go).
type sample struct {
	ms       float64
	kernelMs float64
	recall   float64
	qm       qmetrics
}

// model is the benchmark's own plaintext copy of the table, kept in step
// with every Insert and Delete: the oracle the program's answers are
// checked against.
type model struct {
	rows map[uint64][]uint64
}

func newModel(rows [][]uint64) *model {
	m := &model{rows: make(map[uint64][]uint64, len(rows))}
	for i, r := range rows {
		m.rows[uint64(i)] = r // the initial table holds ids 0..n−1 in row order
	}
	return m
}

// live returns the rows in ascending id order, the order DecryptTable
// reports them in.
func (m *model) live() [][]uint64 {
	ids := make([]uint64, 0, len(m.rows))
	for id := range m.rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([][]uint64, len(ids))
	for i, id := range ids {
		out[i] = m.rows[id]
	}
	return out
}

// checkRows compares one answer with the oracle. SkNNm breaks distance
// ties at random, so it is the multiset of the k squared distances that
// must match, not the rows. recall is the share of the oracle's multiset
// the answer holds; valid is false when the answer has the wrong number
// of rows or a row that is not in the table at all.
func checkRows(table [][]uint64, q []uint64, k int, got [][]uint64) (recall float64, valid bool) {
	want, err := plainknn.KDistances(table, q, k)
	if err != nil || len(got) != k {
		return 0, false
	}
	have := make(map[string]int, len(table))
	for _, r := range table {
		have[fmt.Sprint(r)]++
	}
	left := make(map[uint64]int, k)
	for _, d := range want {
		left[d]++
	}
	hit := 0
	valid = true
	for _, r := range got {
		key := fmt.Sprint(r)
		if have[key] == 0 {
			valid = false
			continue
		}
		have[key]--
		d, err := plainknn.SquaredDistance(r[:len(q)], q)
		if err != nil {
			valid = false
			continue
		}
		if left[d] > 0 {
			left[d]--
			hit++
		}
	}
	return float64(hit) / float64(k), valid
}

// passResult is one measured window.
type passResult struct {
	samples   []sample
	window    time.Duration
	attempted int
	failed    int
	failures  []string // the first few, for the report

	insertMs, deleteUs []float64
	compactions        int

	// cycles holds, per client, every iteration of its loop: the query,
	// whatever mutation followed it, and the checking in between — the
	// time the client's throughput is made of.
	cycles [][]cycle

	cpuUtil, allocKBPerQuery, gcPauseMs float64
	encryptCallsPerQuery                float64
	// traced passes: what crossed the tapped links inside the window
	socketBytes, frames int64
}

// cycle is one iteration of a client's loop and the kernel reading taken
// in it; ok says whether its query counted.
type cycle struct {
	ms, kernelMs float64
	ok           bool
}

func (p *passResult) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveInserts is how many inserted rows the mutation cycle keeps alive:
// each cycle inserts one and deletes the oldest.
const liveInserts = 4

// runPass warms the instance up, then drives it closed-loop — every
// client sends its next query only when the previous answer is checked —
// for the window. On a mutating workload the single client repeats
// Query, Insert, Query, Delete(oldest live insert).
func runPass(def *workloadDef, inst *instance, in *inputs, cfg runConfig, window time.Duration) *passResult {
	sh := inst.sh
	tr := tracerOf(inst.kit)
	mdl := newModel(in.rows)
	static := mdl.live()
	p := &passResult{}
	var mu sync.Mutex // guards p across clients

	var inserted []uint64 // ids of live inserts, oldest first (one client)
	nextInsert := 0
	// An automatic Compact shows as the dirty fraction dropping across a
	// mutation.
	dirty := 0.0
	noteCompaction := func() {
		f := inst.sys.DirtyFraction()
		if f < dirty {
			p.compactions++
		}
		dirty = f
	}
	insert := func() {
		row := in.inserts[nextInsert%len(in.inserts)]
		nextInsert++
		sp := tr.begin(0, 0, "sknn", "insert")
		start := time.Now()
		id, err := inst.sys.Insert(row)
		d := time.Since(start)
		tr.end(sp, 1)
		p.attempted++
		if err != nil {
			p.fail("insert: %v", err)
			return
		}
		p.insertMs = append(p.insertMs, ms(d))
		mdl.rows[id] = row
		inserted = append(inserted, id)
		noteCompaction()
	}
	remove := func() {
		if len(inserted) == 0 {
			return
		}
		id := inserted[0]
		inserted = inserted[1:]
		sp := tr.begin(0, 0, "sknn", "delete")
		start := time.Now()
		err := inst.sys.Delete(id)
		d := time.Since(start)
		tr.end(sp, 1)
		p.attempted++
		if err != nil {
			p.fail("delete %d: %v", id, err)
			return
		}
		p.deleteUs = append(p.deleteUs, us(d))
		delete(mdl.rows, id)
		noteCompaction()
	}

	// one client query: timed from just before the call to just after the
	// rows are in hand; the oracle check is outside the timing.
	query := func(client, qno int, q []uint64, record bool) (kernelMs float64, ok bool) {
		table := static
		if def.mutating {
			table = mdl.live()
		}
		root := 0
		if qno > 0 {
			root = tr.begin(0, qno, "bench", "query")
		}
		start := time.Now()
		rows, qm, err := inst.query(client, qno, root, q)
		d := time.Since(start)
		tr.end(root, len(rows))
		if !record {
			return 0, err == nil
		}
		k := ms(kernel())
		mu.Lock()
		defer mu.Unlock()
		p.attempted++
		if err != nil {
			p.fail("query %d: %v", qno, err)
			return k, false
		}
		recall, valid := checkRows(table, q, sh.K, rows)
		if !valid || (def.exact && recall < 1) {
			p.fail("query %d: got %v for %v, recall %.2f", qno, rows, q, recall)
			return k, false
		}
		if inst.sys != nil && root != 0 {
			phaseSpans(tr, root, qno, qm)
		}
		p.samples = append(p.samples, sample{ms: ms(d), kernelMs: k, recall: recall, qm: qm})
		return k, true
	}

	// Warm-up: split over the clients; a mutating workload also builds
	// up its standing set of live inserts.
	warm := (cfg.warmup + sh.Clients - 1) / sh.Clients // per client
	var wg sync.WaitGroup
	for c := 0; c < sh.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < warm; i++ {
				query(c, 0, in.queries[(c+i*sh.Clients)%len(in.queries)], false)
				if def.mutating && i < liveInserts-1 {
					insert()
				}
			}
		}(c)
	}
	wg.Wait()
	p.attempted, p.insertMs = 0, nil // warm-up mutations are not measured
	if p.failed > 0 {
		return p // the system cannot even warm up; report that
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	enc0 := paillier.EncryptCalls()
	var socket0, frames0 int64
	if inst.kit != nil {
		socket0, frames0 = inst.kit.socketBytes(), inst.kit.frames()
	}
	var qno int64
	nextQno := func() int {
		mu.Lock()
		defer mu.Unlock()
		qno++
		return int(qno)
	}
	p.cycles = make([][]cycle, sh.Clients)
	begin := time.Now()
	deadline := begin.Add(window)
	for c := 0; c < sh.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				// A mutating cycle is two queries long and is not cut in half.
				if (!def.mutating || i%2 == 0) && i >= cfg.minQueries && !time.Now().Before(deadline) {
					return
				}
				start := time.Now()
				k, ok := query(c, nextQno(), in.queries[(c+(warm+i)*sh.Clients)%len(in.queries)], true)
				if def.mutating {
					if i%2 == 0 {
						insert()
					} else {
						remove()
					}
				}
				p.cycles[c] = append(p.cycles[c], cycle{ms: ms(time.Since(start)), kernelMs: k, ok: ok})
			}
		}(c)
	}
	wg.Wait()
	p.window = time.Since(begin)
	cpu1 := cpuSeconds()
	if inst.kit != nil {
		p.socketBytes, p.frames = inst.kit.socketBytes()-socket0, inst.kit.frames()-frames0
	}
	runtime.ReadMemStats(&m1)

	n := float64(len(p.samples))
	if n > 0 {
		p.cpuUtil = (cpu1 - cpu0) / p.window.Seconds() / float64(runtime.NumCPU())
		p.allocKBPerQuery = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n
		p.gcPauseMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		p.encryptCallsPerQuery = float64(paillier.EncryptCalls()-enc0) / n
	}
	if def.mutating && p.failed == 0 {
		finalTableChecks(inst, mdl, p)
	}
	return p
}

// phaseSpans lays the engine's phase timings under a facade query. The
// facade reports how long each phase took, not when: the phases are laid
// end to end in protocol order, ending where the query ended (Bob's
// unmask after them is microseconds), which leaves Bob's encryption as
// the root's self time at the front.
func phaseSpans(tr *tracer, root, qno int, qm qmetrics) {
	if tr == nil {
		return
	}
	end := tr.endOf(root)
	start := end - int64(qm.total())
	c1 := tr.add(root, qno, "core", "c1.query", start, end, 0)
	at := start
	for _, ph := range qm.phases() {
		if ph.d <= 0 {
			continue
		}
		tr.add(c1, qno, "core", "phase."+ph.name, at, at+int64(ph.d), 0)
		at += int64(ph.d)
	}
}

// finalTableChecks asserts that the outsourced table still decrypts to
// the model after the window, and again after a SaveTable → LoadTable
// round trip, and times the two halves of that round trip.
func finalTableChecks(inst *instance, mdl *model, p *passResult) {
	want := mdl.live()
	got, err := inst.sys.DecryptTable()
	if err != nil || !reflect.DeepEqual(got, want) {
		p.fail("table after the window differs from the model (%d rows vs %d, err %v)", len(got), len(want), err)
		return
	}
	var buf bytes.Buffer
	start := time.Now()
	if err := inst.sys.SaveTable(&buf); err != nil {
		p.fail("SaveTable: %v", err)
		return
	}
	inst.saveMs = ms(time.Since(start))
	inst.savedBytes = buf.Len()
	inst.savedCiphertexts = len(want) * inst.sh.M
	start = time.Now()
	loaded, err := sknn.LoadTable(&buf, inst.sk, inst.sh.facadeConfig(nil))
	if err != nil {
		p.fail("LoadTable: %v", err)
		return
	}
	inst.loadMs = ms(time.Since(start))
	defer loaded.Close()
	got, err = loaded.DecryptTable()
	if err != nil || !reflect.DeepEqual(got, want) {
		p.fail("table after SaveTable/LoadTable differs from the model (err %v)", err)
	}
	start = time.Now()
	if err := inst.sys.Compact(); err != nil {
		p.fail("Compact: %v", err)
	}
	inst.compactMs = ms(time.Since(start))
}

// setupStats is what standing the system up cost, with the kernel
// readings taken round each build.
type setupStats struct {
	seconds  []float64
	kernelMs []float64
	heapMB   []float64
}

// standUp builds the system cfg.setups times, keeping the last. Each
// build is timed from key load to the last dial, then a forced GC shows
// what the stood-up system keeps alive on the heap (HeapAlloc: HeapInuse
// adds the allocator's fragmentation, which moved 3 % from run to run).
func standUp(def *workloadDef, sh shape, in *inputs, cfg runConfig, kit *traceKit) (*instance, *setupStats, error) {
	st := &setupStats{}
	var inst *instance
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		before := []float64{ms(kernel()), ms(kernel())}
		start := time.Now()
		next, err := def.setup(env{keyPath: cfg.keyPath, kit: kit}, sh, in)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		st.seconds = append(st.seconds, time.Since(start).Seconds())
		st.kernelMs = append(st.kernelMs, mean(append(before, ms(kernel()), ms(kernel()))))
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		st.heapMB = append(st.heapMB, float64(m.HeapAlloc)/(1<<20))
		inst = next
	}
	return inst, st, nil
}

// bobCost times Bob's whole share of a query — encrypt the query point,
// unmask k result rows — with the same core.Client calls the facade and
// the tenant client make, on this workload's key and shape. It is timed
// on its own after the window because three of the four workloads make
// those calls where the benchmark cannot reach.
func bobCost(inst *instance, in *inputs, iters int) (*bobStats, error) {
	b := &bobStats{}
	pk := &inst.sk.PublicKey
	bob := core.NewClient(pk, nil)
	sh := inst.sh
	for i := 0; i < iters; i++ {
		q := in.queries[i%len(in.queries)]
		start := time.Now()
		if _, err := bob.EncryptQuery(q); err != nil {
			return nil, err
		}
		b.encUs = append(b.encUs, us(time.Since(start)))

		masks := make([][]*big.Int, sh.K)
		masked := make([][]*big.Int, sh.K)
		for j := range masks {
			row := in.rows[(i+j)%len(in.rows)]
			masks[j] = make([]*big.Int, sh.M)
			masked[j] = make([]*big.Int, sh.M)
			for h := range row {
				r, err := pk.RandomZN(rand.Reader)
				if err != nil {
					return nil, err
				}
				masks[j][h] = r
				v := new(big.Int).Add(r, new(big.Int).SetUint64(row[h]))
				masked[j][h] = v.Mod(v, pk.N)
			}
		}
		res, err := core.RestoreMaskedResult(pk, sh.K, sh.M, masks, masked, nil)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		rows, err := bob.Unmask(res)
		b.unmaskUs = append(b.unmaskUs, us(time.Since(start)))
		if err != nil {
			return nil, err
		}
		b.kernelMs = append(b.kernelMs, ms(kernel()))
		for j := range rows {
			if !reflect.DeepEqual(rows[j], in.rows[(i+j)%len(in.rows)]) {
				return nil, fmt.Errorf("unmask returned %v, want %v", rows[j], in.rows[(i+j)%len(in.rows)])
			}
		}
	}
	return b, nil
}

// bobStats are Bob's two halves per iteration and the kernel reading
// after each.
type bobStats struct {
	encUs, unmaskUs, kernelMs []float64
}

// runWorkload is one benchmark run of one workload: end-to-end metrics
// from an untraced pass, or — traced — the per-layer ledger from the
// micro-loops, a short untraced pass and a traced pass.
func runWorkload(def *workloadDef, cfg runConfig) (*runResult, error) {
	sh := def.shape
	if cfg.shape != nil {
		sh = *cfg.shape
	}
	in, err := def.gen(cfg.seed, sh)
	if err != nil {
		return nil, fmt.Errorf("%s inputs: %w", def.name, err)
	}
	if def.mutating && sh.Clients != 1 {
		return nil, fmt.Errorf("%s: the mutation cycle is written for one client, shape has %d", def.name, sh.Clients)
	}
	res := &runResult{Workload: def.name, Seed: cfg.seed, Trace: cfg.trace, Shape: sh}
	window := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		inst, st, err := standUp(def, sh, in, cfg, nil)
		if err != nil {
			return nil, err
		}
		defer inst.close()
		p := runPass(def, inst, in, cfg, window)
		bob, err := bobCost(inst, in, 100)
		if err != nil {
			return nil, fmt.Errorf("%s: Bob's share: %w", def.name, err)
		}
		res.Metrics, res.Notes = endToEnd(p, st, bob)
		finish(res, def, sh, p)
		return res, nil
	}

	// Traced run: the window is shared between the two passes; the
	// micro-loops have fixed iteration counts.
	micro, err := runMicro(cfg.keyPath, cfg.micro, in.rows, sh.Clusters)
	if err != nil {
		return nil, fmt.Errorf("micro-loops: %w", err)
	}
	once := cfg
	once.setups = 1
	plain, _, err := standUp(def, sh, in, once, nil)
	if err != nil {
		return nil, err
	}
	up := runPass(def, plain, in, cfg, window/2)
	bob, berr := bobCost(plain, in, 100)
	plain.close()
	if berr != nil {
		return nil, fmt.Errorf("%s: Bob's share: %w", def.name, berr)
	}

	kit := newTraceKit()
	traced, _, err := standUp(def, sh, in, once, kit)
	if err != nil {
		return nil, err
	}
	tp := runPass(def, traced, in, cfg, window/2)
	traced.close()
	spans, unmatched := kit.finish()

	queries, c2BusyNs := analyze(spans)
	res.Metrics = perLayer(sh, micro, plain, up, tp, kit, queries, c2BusyNs, bob)
	finish(res, def, sh, up, tp)
	res.Checks = append(res.Checks, traceChecks(def, sh, queries, unmatched, res)...)
	res.Correct = res.Correct && !hasViolation(res.Checks)
	if cfg.traceDir != "" {
		path, err := writeTrace(cfg.traceDir, def.name, spans)
		if err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		res.TraceFile = path
	}
	return res, nil
}

// finish fills the counts from the passes, runs the cost-model checks on
// each and decides correctness.
func finish(res *runResult, def *workloadDef, sh shape, passes ...*passResult) {
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, f := range p.failures {
			res.Checks = append(res.Checks, "FAILED "+f)
		}
		for _, c := range costModelChecks(def, sh, p) {
			if !slices.Contains(res.Checks, c) { // both passes of a traced run usually agree
				res.Checks = append(res.Checks, c)
			}
		}
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1 // nothing could even be attempted
	}
	res.Correct = res.Failed == 0 && !hasViolation(res.Checks)
}
