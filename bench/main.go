// Command bench is the repository's one benchmark: four closed-loop
// workloads, the end-to-end metrics a user of the system sees, and — on
// a traced run — a per-layer ledger named after the modules. It measures
// the program from outside and claims nothing; later changes are judged
// by the names fixed here and in BENCHMARK.json. See README.md.
//
//	bash bench/run.sh --workload secure_scan --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --trace 1 --out bench/out/ledger.json
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, a comma-separated list, or all")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 20, "length of the measuring window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics from an untraced pass; 1: per-layer ledger and a span file")
		key      = flag.String("key", "bench/testdata/k512.key", "test-only Paillier key file")
		out      = flag.String("out", "", "append each run to this JSON report")
		traceDir = flag.String("tracedir", "bench/out", "where a traced run writes trace-<workload>.json")
		compare  = flag.Bool("compare", false, "compare two reports written with -out: bench -compare a.json b.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.json b.json")
		}
		regressed, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	var defs []*workloadDef
	if *workload == "all" {
		for i := range workloads {
			defs = append(defs, &workloads[i])
		}
	} else {
		for _, name := range strings.Split(*workload, ",") {
			def := findWorkload(name)
			if def == nil {
				fatal("unknown workload %q", name)
			}
			defs = append(defs, def)
		}
	}
	if *trace != 0 && *trace != 1 {
		fatal("-trace takes 0 or 1")
	}

	h := describeHost()
	allCorrect := true
	for _, def := range defs {
		res, err := runWorkload(def, runConfig{
			seed: *seed, seconds: *seconds, trace: *trace == 1, keyPath: *key,
			setups: 5, warmup: 10, minQueries: 1, micro: fullMicro, traceDir: *traceDir,
		})
		if err != nil {
			// No result line: the run did not happen.
			fatal("%v", err)
		}
		printRun(os.Stdout, h, res)
		if *out != "" {
			if err := appendRun(*out, h, res); err != nil {
				fatal("writing %s: %v", *out, err)
			}
		}
		line, err := resultLine(res)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(line)
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
