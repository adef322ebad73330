// Command bench is the repository's one benchmark: six named workloads,
// seven end-to-end metrics, and per-layer spans recorded from outside the
// product code. BENCHMARK.json at the repository root names it; README.md in
// this directory defines every workload, op and metric.
//
// Usage (from the repository root):
//
//	go run ./bench -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	go run ./bench [-seed N] [-seconds S] [-trace 0|1] [-runs N] [-o FILE]
//	go run ./bench -compare A.json B.json
//
// With -workload it runs that one workload in this process and prints every
// metric by name with its unit, then one JSON object as the last line of
// standard output. Without it, it re-executes itself once per workload and
// run so each gets a fresh heap, and writes every value to the -o file.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "run only this workload, in this process")
	flag.Uint64Var(&cfg.seed, "seed", 42, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "nominal length of the timed region (default: run_seconds of BENCHMARK.json); op counts scale with it")
	trace := flag.Int("trace", 0, "1: record spans around each call into a layer and report per-layer metrics")
	runs := flag.Int("runs", 1, "suite mode: runs per workload, on seeds seed, seed+1, ...")
	out := flag.String("o", "", "suite mode: write every run's values to this JSON file")
	compare := flag.Bool("compare", false, "compare two suite files: bench -compare A.json B.json")
	flag.Parse()
	cfg.trace = *trace != 0

	// At most four threads run Go code, and each workload starts at most two
	// goroutines that compute (one load goroutine, one simulator goroutine),
	// so the numbers mean the same on a 2-core box and a 64-core one.
	if runtime.NumCPU() < 4 {
		runtime.GOMAXPROCS(runtime.NumCPU())
	} else {
		runtime.GOMAXPROCS(4)
	}

	spec, root, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	cfg.outDir = root + "/bench/out"

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two suite files"))
		}
		regressed, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case cfg.workload != "":
		if err := runOne(os.Stdout, spec, cfg); err != nil {
			fatal(err)
		}
	default:
		if err := runSuite(os.Stdout, spec, cfg, *runs, *out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
