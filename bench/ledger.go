package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sknn/internal/core"
	"sknn/internal/smc"
)

// metricDef declares one metric: BENCHMARK.json repeats these tables and
// a test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: relative worsening that is a regression
}

// endToEndDefs are the numbers a user of the system sees, reported by
// every workload from the untraced pass. Each timing bound is two to three
// times the widest quartile spread the metric showed over ten seeds on the
// reference host (README, Baseline; the contract caps a bound at 0.25), so
// a difference that large is a difference in the program, not in the host.
var endToEndDefs = []metricDef{
	{"query_p50_ms", "ms", "lower", 0.15},
	{"query_p90_ms", "ms", "lower", 0.25},
	{"throughput_qps", "queries/s", "higher", 0.20},
	{"bob_ms", "ms", "lower", 0.25},
	{"c2_bytes_per_query", "bytes", "lower", 0.01},
	{"c2_rounds_per_query", "count", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MiB", "lower", 0.08},
	{"recall", "fraction", "higher", 0.12},
}

// perLayerDefs is the ledger, named after the modules. A line a workload
// does not exercise reads 0 there, which is itself the bypass claim.
var perLayerDefs = []metricDef{
	{"paillier.encrypt_us", "us", "lower", 0},
	{"paillier.encrypt_plain_us", "us", "lower", 0},
	{"paillier.decrypt_us", "us", "lower", 0},
	{"paillier.rerandomize_us", "us", "lower", 0},
	{"paillier.scalarmul_us", "us", "lower", 0},
	{"paillier.add_us", "us", "lower", 0},
	{"paillier.pack_encrypt_us", "us", "lower", 0},
	{"paillier.unpack_decrypt_us", "us", "lower", 0},
	{"paillier.fixedbase_setup_ms", "ms", "lower", 0},
	{"paillier.keygen_ms", "ms", "lower", 0},
	{"paillier.encrypt_calls_per_query", "count", "lower", 0},

	{"mpc.frame1_codec_us", "us", "lower", 0},
	{"mpc.frame64_codec_us", "us", "lower", 0},
	{"mpc.socket_bytes_per_ciphertext", "bytes", "lower", 0},
	{"mpc.loopback_rtt_us", "us", "lower", 0},
	{"mpc.chanpipe_rtt_us", "us", "lower", 0},
	{"mpc.socket_bytes_per_query", "bytes", "lower", 0},
	{"mpc.frames_per_query", "count", "lower", 0},
	{"mpc.wire_ms_per_query", "ms", "lower", 0},
	{"mpc.codec_overhead_frac", "fraction", "lower", 0},

	{"smc.sm_ms", "ms", "lower", 0},
	{"smc.ssed_ms", "ms", "lower", 0},
	{"smc.sbd_ms", "ms", "lower", 0},
	{"smc.smin_ms", "ms", "lower", 0},
	{"smc.sminn_values16_ms", "ms", "lower", 0},
	{"smc.sbor_ms", "ms", "lower", 0},
	{"smc.ssed_rounds", "count", "lower", 0},
	{"smc.sbd_rounds", "count", "lower", 0},
	{"smc.smin_rounds", "count", "lower", 0},
	{"smc.sminn_values16_rounds", "count", "lower", 0},
	{"smc.sbd_bytes", "bytes", "lower", 0},
	{"smc.smin_bytes", "bytes", "lower", 0},

	{"c2.smc_busy_ms_per_query", "ms", "lower", 0},
	{"c2.core_busy_ms_per_query", "ms", "lower", 0},
	{"c2.requests_per_query", "count", "lower", 0},
	{"c2.busy_frac", "fraction", "lower", 0},

	{"core.distance_ms", "ms", "lower", 0},
	{"core.bitdecom_ms", "ms", "lower", 0},
	{"core.sminn_ms", "ms", "lower", 0},
	{"core.select_ms", "ms", "lower", 0},
	{"core.extract_ms", "ms", "lower", 0},
	{"core.exclude_ms", "ms", "lower", 0},
	{"core.reveal_ms", "ms", "lower", 0},
	{"core.rank_ms", "ms", "lower", 0},
	{"core.centroid_ms", "ms", "lower", 0},
	{"core.scatter_ms", "ms", "lower", 0},
	{"core.merge_ms", "ms", "lower", 0},
	{"core.phase_sum_frac", "fraction", "higher", 0},
	{"core.smin_count", "count", "lower", 0},
	{"core.candidates", "count", "lower", 0},
	{"core.clusters_probed", "count", "lower", 0},
	{"core.failovers", "count", "lower", 0},
	{"core.c1_self_ms_per_query", "ms", "lower", 0},
	{"core.shard_scan_ms", "ms", "lower", 0},
	{"core.shard_skew_frac", "fraction", "lower", 0},
	{"core.encrypt_table_ms", "ms", "lower", 0},
	{"core.client_encrypt_query_us", "us", "lower", 0},
	{"core.client_unmask_us", "us", "lower", 0},

	{"cluster.kmeans_ms", "ms", "lower", 0},

	{"store.save_ms", "ms", "lower", 0},
	{"store.load_ms", "ms", "lower", 0},
	{"store.bytes_per_ciphertext", "bytes", "lower", 0},

	{"gateway.overhead_ms", "ms", "lower", 0},
	{"gateway.auth_dial_ms", "ms", "lower", 0},
	{"gateway.shed", "count", "lower", 0},
	{"gateway.queue_depth_max", "count", "lower", 0},

	{"sknn.new_ms", "ms", "lower", 0},
	{"sknn.insert_ms", "ms", "lower", 0},
	{"sknn.delete_us", "us", "lower", 0},
	{"sknn.compact_ms", "ms", "lower", 0},
	{"sknn.compactions", "count", "lower", 0},

	{"proc.cpu_util", "fraction", "higher", 0},
	{"proc.alloc_kb_per_query", "KiB", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.trace_overhead_frac", "fraction", "lower", 0},
	{"proc.trace_self_sum_frac", "fraction", "higher", 0},
	{"proc.host_speed_factor", "fraction", "lower", 0},
}

// collect turns named values into the declared metric list, in
// declaration order; an undeclared name is a bug in this file.
func collect(defs []metricDef, vals map[string]float64, samples map[string]int, n int) []metric {
	out := make([]metric, 0, len(defs))
	for _, d := range defs {
		s, ok := samples[d.name]
		if !ok {
			s = n
		}
		out = append(out, metric{Name: d.name, Value: vals[d.name], Unit: d.unit, Samples: s})
	}
	for name := range vals {
		known := false
		for _, d := range defs {
			known = known || d.name == name
		}
		if !known {
			panic("undeclared metric " + name)
		}
	}
	return out
}

func column(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func commBytes(s sample) float64 {
	c := s.qm.comm()
	return float64(c.BytesSent + c.BytesReceived)
}

func latencies(p *passResult) (raw, compensated []float64) {
	raw = column(p.samples, func(s sample) float64 { return s.ms })
	return raw, compensate(raw, column(p.samples, func(s sample) float64 { return s.kernelMs }))
}

// endToEnd computes the client-observed metrics of an untraced pass. The
// timings are compensated for host speed (calib.go); the notes give the
// factors and the raw values.
func endToEnd(p *passResult, st *setupStats, bob *bobStats) ([]metric, []string) {
	rawLat, lat := latencies(p)
	speed := hostSpeed(column(p.samples, func(s sample) float64 { return s.kernelMs }))
	rawBob := make([]float64, len(bob.encUs))
	for i := range rawBob {
		rawBob[i] = (bob.encUs[i] + bob.unmaskUs[i]) / 1000
	}
	rawQPS := 0.0
	if p.window > 0 {
		rawQPS = float64(len(p.samples)) / p.window.Seconds()
	}
	// Each client's rate is its answered queries over the compensated
	// length of its loop; closed-loop clients add up.
	qps := 0.0
	for _, cycles := range p.cycles {
		length, kernels, answered := make([]float64, len(cycles)), make([]float64, len(cycles)), 0
		for i, c := range cycles {
			length[i], kernels[i] = c.ms, c.kernelMs
			if c.ok {
				answered++
			}
		}
		if total := mean(compensate(length, kernels)) * float64(len(cycles)); total > 0 {
			qps += float64(answered) / (total / 1000)
		}
	}
	vals := map[string]float64{
		"query_p50_ms":        percentile(lat, 0.5),
		"query_p90_ms":        percentile(lat, 0.9),
		"throughput_qps":      qps,
		"bob_ms":              median(compensate(rawBob, bob.kernelMs)),
		"c2_bytes_per_query":  median(column(p.samples, commBytes)),
		"c2_rounds_per_query": median(column(p.samples, func(s sample) float64 { return float64(s.qm.comm().Rounds) })),
		"setup_s":             median(compensate(st.seconds, st.kernelMs)),
		"heap_mb":             median(st.heapMB),
		"recall":              mean(column(p.samples, func(s sample) float64 { return s.recall })),
	}
	notes := []string{
		fmt.Sprintf("host speed: kernel mean %.3f ms in the window, %.3f ms round set-up, %.3f ms round Bob's share; nominal %.3f ms (window factor %.3f)",
			speed*ms(nominalKernel), mean(st.kernelMs), mean(bob.kernelMs), ms(nominalKernel), speed),
		fmt.Sprintf("raw, before compensation: query_p50_ms %.6g, query_p90_ms %.6g, throughput_qps %.6g, bob_ms %.6g, setup_s %.6g",
			percentile(rawLat, 0.5), percentile(rawLat, 0.9), rawQPS, median(rawBob), median(st.seconds)),
	}
	samples := map[string]int{"bob_ms": len(rawBob), "setup_s": len(st.seconds), "heap_mb": len(st.heapMB)}
	return collect(endToEndDefs, vals, samples, len(p.samples)), notes
}

// phaseSumFrac is Σ phases ÷ Total per query, the check that the engine's
// phase breakdown accounts for the whole query.
func phaseSumFrac(s sample) float64 {
	total := s.qm.total()
	if total <= 0 {
		return 0
	}
	var sum float64
	for _, ph := range s.qm.phases() {
		sum += float64(ph.d)
	}
	return sum / float64(total)
}

func secureField(f func(*core.SecureMetrics) float64) func(sample) float64 {
	return func(s sample) float64 {
		if s.qm.secure == nil {
			return 0
		}
		return f(s.qm.secure)
	}
}

// queryTrace is what the spans of one client query add up to.
type queryTrace struct {
	c1SelfMs, wireMs, c2Ms float64 // the three-way split of the C1 span
	c2SmcMs, c2CoreMs      float64
	requests               float64
	shardMs, shardSkew     float64
	gatewayOverheadMs      float64
	selfSumFrac            float64
	ops                    map[int]int // C2 requests by opcode
	split                  bool        // round trips were visible
	sharded, gateway       bool
}

func opOf(name string) int {
	_, op, _ := strings.Cut(name, ":")
	n, _ := strconv.Atoi(op)
	return n
}

// analyze folds the span list into per-query figures.
func analyze(spans []span) (perQuery []queryTrace, c2BusyNs int64) {
	byQuery := make(map[int][]span)
	var allHandles [][2]int64
	var lo, hi int64
	for _, s := range spans {
		if s.Query > 0 {
			byQuery[s.Query] = append(byQuery[s.Query], s)
		}
		if strings.HasPrefix(s.Name, "c2.handle:") {
			allHandles = append(allHandles, [2]int64{s.Start, s.End})
			if lo == 0 || s.Start < lo {
				lo = s.Start
			}
			if s.End > hi {
				hi = s.End
			}
		}
	}
	c2BusyNs = cover(allHandles, lo, hi)

	qnos := make([]int, 0, len(byQuery))
	for q := range byQuery {
		qnos = append(qnos, q)
	}
	sort.Ints(qnos)
	for _, q := range qnos {
		ss := byQuery[q]
		qt := queryTrace{ops: map[int]int{}}
		var root, c1, gwRTT, gwBackend *span
		var rtts, handles [][2]int64
		var shardDur []float64
		for i := range ss {
			s := &ss[i]
			switch {
			case s.Name == "query":
				root = s
			case s.Name == "c1.query":
				c1 = s
			case s.Name == "gateway.backend":
				c1, gwBackend = s, s
			case s.Name == "gateway.rtt":
				gwRTT = s
			case strings.HasPrefix(s.Name, "rtt:"):
				rtts = append(rtts, [2]int64{s.Start, s.End})
			case strings.HasPrefix(s.Name, "c2.handle:"):
				handles = append(handles, [2]int64{s.Start, s.End})
				op := opOf(s.Name)
				qt.ops[op]++
				switch {
				case op >= 16 && op < 64:
					qt.c2SmcMs += float64(s.dur()) / 1e6
				case op >= 64 && op < 80:
					qt.c2CoreMs += float64(s.dur()) / 1e6
				}
			case strings.HasPrefix(s.Name, "shard.topk["):
				shardDur = append(shardDur, float64(s.dur())/1e6)
			}
		}
		if root == nil || root.dur() <= 0 {
			continue
		}
		var selfSum int64
		for _, d := range selfTimes(ss) {
			selfSum += d
		}
		qt.selfSumFrac = float64(selfSum) / float64(root.dur())
		qt.requests = float64(len(handles))
		if c1 != nil {
			if len(rtts) > 0 {
				qt.split = true
				covRTT := cover(rtts, c1.Start, c1.End)
				covC2 := cover(handles, c1.Start, c1.End)
				qt.c1SelfMs = float64(c1.dur()-covRTT) / 1e6
				qt.wireMs = float64(covRTT-covC2) / 1e6
				qt.c2Ms = float64(covC2) / 1e6
			}
		}
		if len(shardDur) > 0 {
			qt.sharded = true
			qt.shardMs = mean(shardDur)
			s := sorted(shardDur)
			if max := s[len(s)-1]; max > 0 {
				qt.shardSkew = (max - s[0]) / max
			}
		}
		if gwRTT != nil && gwBackend != nil {
			qt.gateway = true
			qt.gatewayOverheadMs = float64(gwRTT.dur()-gwBackend.dur()) / 1e6
		}
		perQuery = append(perQuery, qt)
	}
	return perQuery, c2BusyNs
}

func traceColumn(qs []queryTrace, f func(queryTrace) float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = f(q)
	}
	return out
}

// perLayer assembles the ledger of a traced run: micro-loops, the
// engine's own phase account and process counters from the untraced
// pass, and the per-query medians of the traced pass.
func perLayer(sh shape, micro ledger, plain *instance, up, tp *passResult, kit *traceKit, qs []queryTrace, c2BusyNs int64, bob *bobStats) []metric {
	vals := map[string]float64{}
	for k, v := range micro {
		vals[k] = v
	}
	med := func(f func(sample) float64) float64 { return median(column(up.samples, f)) }

	// core: the engine's phase account, median per query.
	// On a sharded query the per-record lines are sums over the shards;
	// Scatter and Merge are what partitions its wall clock.
	phaseMs := map[string][]float64{}
	for _, s := range up.samples {
		phases := s.qm.recordPhases()
		if sh.Shards > 1 {
			phases = append(phases, s.qm.phases()...)
		}
		for _, ph := range phases {
			phaseMs[ph.name] = append(phaseMs[ph.name], ms(ph.d))
		}
	}
	for name, v := range phaseMs {
		vals["core."+name+"_ms"] = median(v)
	}
	vals["core.phase_sum_frac"] = med(phaseSumFrac)
	vals["core.smin_count"] = med(secureField(func(m *core.SecureMetrics) float64 { return float64(m.SMINCount) }))
	vals["core.candidates"] = med(secureField(func(m *core.SecureMetrics) float64 { return float64(m.Candidates) }))
	vals["core.clusters_probed"] = med(secureField(func(m *core.SecureMetrics) float64 { return float64(m.ClustersProbed) }))
	vals["core.failovers"] = med(secureField(func(m *core.SecureMetrics) float64 { return float64(m.Failovers) }))
	vals["core.client_encrypt_query_us"] = median(bob.encUs)
	vals["core.client_unmask_us"] = median(bob.unmaskUs)

	vals["paillier.encrypt_calls_per_query"] = up.encryptCallsPerQuery
	vals["proc.cpu_util"] = up.cpuUtil
	vals["proc.alloc_kb_per_query"] = up.allocKBPerQuery
	vals["proc.gc_pause_ms"] = up.gcPauseMs

	// sknn: the facade's own operations.
	if plain.sys != nil {
		vals["sknn.new_ms"] = plain.newMs
	}
	vals["sknn.insert_ms"] = median(up.insertMs)
	vals["sknn.delete_us"] = median(up.deleteUs)
	vals["sknn.compactions"] = float64(up.compactions)
	vals["sknn.compact_ms"] = plain.compactMs
	vals["store.save_ms"] = plain.saveMs
	vals["store.load_ms"] = plain.loadMs
	if plain.savedCiphertexts > 0 {
		vals["store.bytes_per_ciphertext"] = float64(plain.savedBytes) / float64(plain.savedCiphertexts)
	}
	vals["gateway.auth_dial_ms"] = median(plain.dialMs)
	if plain.gatewayStats != nil {
		shed, depth := plain.gatewayStats()
		vals["gateway.shed"], vals["gateway.queue_depth_max"] = float64(shed), float64(depth)
	}

	// The traced pass.
	tmed := func(f func(queryTrace) float64) float64 { return median(traceColumn(qs, f)) }
	nTraced := float64(len(tp.samples))
	if len(qs) > 0 {
		vals["proc.trace_self_sum_frac"] = tmed(func(q queryTrace) float64 { return q.selfSumFrac })
		if qs[0].split {
			vals["core.c1_self_ms_per_query"] = tmed(func(q queryTrace) float64 { return q.c1SelfMs })
			vals["mpc.wire_ms_per_query"] = tmed(func(q queryTrace) float64 { return q.wireMs })
			vals["c2.smc_busy_ms_per_query"] = tmed(func(q queryTrace) float64 { return q.c2SmcMs })
			vals["c2.core_busy_ms_per_query"] = tmed(func(q queryTrace) float64 { return q.c2CoreMs })
			vals["c2.requests_per_query"] = tmed(func(q queryTrace) float64 { return q.requests })
			if tp.window > 0 {
				vals["c2.busy_frac"] = float64(c2BusyNs) / float64(tp.window)
			}
		}
		if qs[0].sharded {
			vals["core.shard_scan_ms"] = tmed(func(q queryTrace) float64 { return q.shardMs })
			vals["core.shard_skew_frac"] = tmed(func(q queryTrace) float64 { return q.shardSkew })
		}
		if qs[0].gateway {
			vals["gateway.overhead_ms"] = tmed(func(q queryTrace) float64 { return q.gatewayOverheadMs })
		}
	}
	if nTraced > 0 && len(kit.conns) > 0 {
		socket := float64(tp.socketBytes)
		payload := 0.0
		for _, s := range tp.samples {
			payload += commBytes(s)
		}
		vals["mpc.socket_bytes_per_query"] = socket / nTraced
		vals["mpc.frames_per_query"] = float64(tp.frames) / nTraced
		if payload > 0 {
			vals["mpc.codec_overhead_frac"] = socket/payload - 1
		}
	}
	// The ledger's timings are raw; this factor says how fast the host ran
	// while they were taken. The two passes run minutes apart, so their
	// comparison uses compensated latencies.
	vals["proc.host_speed_factor"] = hostSpeed(column(up.samples, func(s sample) float64 { return s.kernelMs }))
	_, plainLat := latencies(up)
	_, tracedLat := latencies(tp)
	if p50 := percentile(plainLat, 0.5); p50 > 0 {
		vals["proc.trace_overhead_frac"] = percentile(tracedLat, 0.5)/p50 - 1
	}
	return collect(perLayerDefs, vals, nil, len(up.samples))
}

func check(ok bool, format string, args ...any) string {
	verdict := "ok"
	if !ok {
		verdict = "VIOLATED"
	}
	return verdict + " " + fmt.Sprintf(format, args...)
}

func hasViolation(checks []string) bool {
	for _, c := range checks {
		if strings.HasPrefix(c, "VIOLATED") || strings.HasPrefix(c, "FAILED") {
			return true
		}
	}
	return false
}

// costModelChecks are the predictions the interaction table rests on,
// checked on what the engine counted in a pass.
func costModelChecks(def *workloadDef, sh shape, p *passResult) []string {
	if len(p.samples) == 0 {
		return nil
	}
	var out []string
	all := func(f func(sample) bool) bool {
		for _, s := range p.samples {
			if !f(s) {
				return false
			}
		}
		return true
	}
	switch def.name {
	case "secure_scan":
		want := sh.K * (sh.N - 1)
		out = append(out,
			check(all(func(s sample) bool { return s.qm.secure != nil && s.qm.secure.SMINCount == want }),
				"secure_scan core.smin_count == k·(n−1) = %d on every query", want),
			check(all(func(s sample) bool { return s.qm.secure != nil && s.qm.secure.Candidates == sh.N }),
				"secure_scan core.candidates == n = %d on every query", sh.N))
	case "basic_tcp":
		out = append(out, check(all(func(s sample) bool { return s.qm.secure == nil && s.qm.basic != nil }),
			"basic_tcp core.smin_count == 0: every query ran SkNNb, which has no SMIN phase"))
	}
	if sh.Clients == 1 {
		f := median(column(p.samples, phaseSumFrac))
		out = append(out, check(f >= 0.95 && f <= 1.05, "%s core.phase_sum_frac = %.3f within 0.95–1.05", def.name, f))
	}
	return out
}

// sknnbOps are the only requests SkNNb may send to C2: SM and SSED for
// the distances, then rank and reveal.
var sknnbOps = map[int]bool{
	int(smc.OpSM): true, int(smc.OpSMPack): true, int(smc.OpSSEDPack): true,
	int(core.OpRank): true, int(core.OpReveal): true,
}

// traceChecks are the predictions that need the traced pass.
func traceChecks(def *workloadDef, sh shape, qs []queryTrace, unmatched int, res *runResult) []string {
	var out []string
	if len(qs) == 0 {
		return []string{check(false, "%s traced pass produced no query spans", def.name)}
	}
	inProcess := def.name == "secure_scan" || def.name == "live_mixed"
	socket, _ := res.metric("mpc.socket_bytes_per_query")
	if inProcess {
		out = append(out, check(socket.Value == 0, "%s mpc.socket_bytes_per_query == 0 (in-process links)", def.name))
	} else {
		out = append(out,
			check(socket.Value > 0, "%s mpc.socket_bytes_per_query = %.0f > 0 (TCP links)", def.name, socket.Value),
			check(unmatched == 0, "%s every C2 handler event matched a round trip by tag (%d unmatched)", def.name, unmatched))
		split := func(f func(queryTrace) float64) float64 { return median(traceColumn(qs, f)) }
		out = append(out, fmt.Sprintf("ok %s per query: C1 self %.1f ms / wire %.1f ms / C2 busy %.1f ms",
			def.name, split(func(q queryTrace) float64 { return q.c1SelfMs }),
			split(func(q queryTrace) float64 { return q.wireMs }), split(func(q queryTrace) float64 { return q.c2Ms })))
	}
	if def.name == "basic_tcp" {
		stray := 0
		for _, q := range qs {
			for op, n := range q.ops {
				if !sknnbOps[op] {
					stray += n
				}
			}
		}
		out = append(out, check(stray == 0, "basic_tcp sent C2 no SMIN, SBD or select request (%d stray)", stray))
	}
	// Self times add up to the wall clock only where nothing inside a
	// query overlaps: one client, one link per pool. With parallel links
	// the round trips overlap and the sum is the larger, by design.
	if sh.Clients == 1 && sh.Workers == 1 {
		f := median(traceColumn(qs, func(q queryTrace) float64 { return q.selfSumFrac }))
		out = append(out, check(f >= 0.95 && f <= 1.05, "%s span self times sum to %.3f of the query wall clock", def.name, f))
	}
	return out
}
