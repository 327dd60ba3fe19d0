package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// host describes where a report was taken, so two reports are only ever
// compared knowingly.
type host struct {
	Commit    string `json:"commit"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
}

func describeHost() host {
	h := host{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), CPUModel: "unknown"}
	// The driver's checkout is not a git repository; then the commit
	// stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPUModel = strings.TrimSpace(value)
				break
			}
		}
	}
	return h
}

// report is the file -out writes: a header and every run appended to it.
type report struct {
	Host host         `json:"host"`
	Runs []*runResult `json:"runs"`
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// appendRun adds a run to the report at path, creating it if need be, so
// a loop over seeds builds one file per set of runs.
func appendRun(path string, h host, res *runResult) error {
	rep, err := readReport(path)
	if os.IsNotExist(err) {
		rep, err = &report{}, nil
	}
	if err != nil {
		return err
	}
	rep.Host = h
	rep.Runs = append(rep.Runs, res)
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printRun writes one line per metric — workload metric value unit
// samples — and the checks beside them.
func printRun(w io.Writer, h host, res *runResult) {
	fmt.Fprintf(w, "# %s seed=%d trace=%v shape=%+v\n", res.Workload, res.Seed, res.Trace, res.Shape)
	fmt.Fprintf(w, "# commit=%s %s nproc=%d cpu=%q\n", h.Commit, h.GoVersion, h.NumCPU, h.CPUModel)
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "%s %s %.6g %s %d\n", res.Workload, m.Name, m.Value, m.Unit, m.Samples)
	}
	if !res.Trace {
		if n := res.Metrics[0].Samples; samplesBeyond(n, 0.9) < 10 {
			fmt.Fprintf(w, "# query_p90_ms has only %d of %d samples beyond it; this run resolves p%g\n",
				samplesBeyond(n, 0.9), n, 100*tailPercentile(n))
		}
	}
	for _, c := range append(res.Notes, res.Checks...) {
		fmt.Fprintf(w, "# %s\n", c)
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "# spans written to %s\n", res.TraceFile)
	}
}

// resultLine is the one JSON object the benchmark contract asks for as
// the last line of standard output.
func resultLine(res *runResult) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.Metrics))
	for _, m := range res.Metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(line), err
}

// verdicts of a comparison, per workload × end-to-end metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare.
type comparison struct {
	Metric           string
	A, B             float64 // medians of the two sets
	SpreadA, SpreadB float64 // quartile distance ÷ median within each set
	Worse            float64 // how much worse B is than A, as a share of A; negative = better
	Bound            float64
	Verdict          string
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets judges set b against set a on one metric: regressed when
// b's median is worse than a's by more than the bound; unresolved when
// it is not but either set's own run-to-run spread is wider than the
// bound, so the sets could not have shown a regression of that size; ok
// otherwise.
func compareSets(a, b []float64, def metricDef) comparison {
	c := comparison{
		Metric: def.name, A: median(a), B: median(b),
		SpreadA: spread(a), SpreadB: spread(b), Bound: def.bound,
	}
	c.Worse = worsening(c.A, c.B, def.better)
	switch {
	case c.Worse > def.bound:
		c.Verdict = verdictRegressed
	case c.SpreadA > def.bound || c.SpreadB > def.bound:
		c.Verdict = verdictUnresolved
	default:
		c.Verdict = verdictOK
	}
	return c
}

// valuesOf gathers one metric's value from every untraced run of a
// workload in a report.
func valuesOf(rep *report, workload, metric string) []float64 {
	var out []float64
	for _, r := range rep.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.metric(metric); ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareReports prints, per workload × end-to-end metric, both medians,
// both spreads, the relative difference and the verdict, and reports
// whether anything regressed.
func compareReports(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "# a: %s commit=%s nproc=%d cpu=%q\n", pathA, a.Host.Commit, a.Host.NumCPU, a.Host.CPUModel)
	fmt.Fprintf(w, "# b: %s commit=%s nproc=%d cpu=%q\n", pathB, b.Host.Commit, b.Host.NumCPU, b.Host.CPUModel)
	fmt.Fprintf(w, "%-16s %-20s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median_a", "median_b", "iqr_a", "iqr_b", "worse", "bound", "verdict")
	for _, def := range workloads {
		for _, m := range endToEndDefs {
			va, vb := valuesOf(a, def.name, m.name), valuesOf(b, def.name, m.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := compareSets(va, vb, m)
			regressed = regressed || c.Verdict == verdictRegressed
			fmt.Fprintf(w, "%-16s %-20s %12.6g %12.6g %8.4f %8.4f %+8.4f %6.2f  %s (%d vs %d runs)\n",
				def.name, m.name, c.A, c.B, c.SpreadA, c.SpreadB, c.Worse, c.Bound, c.Verdict, len(va), len(vb))
		}
	}
	return regressed, nil
}
