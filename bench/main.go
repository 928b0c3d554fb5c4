// Command bench is the repository's one performance instrument: five
// workloads, each reporting the same end-to-end metrics from the real
// binaries over loopback sockets (or, for plan.lib, from the library in
// process), and — in a separate traced run — per-layer metrics from
// spans the harness records around calls into each layer. See README.md
// in this directory and BENCHMARK.json at the repository root.
//
// It is run through run.sh, which builds it and the two served
// binaries first:
//
//	bash bench/run.sh --workload query.hot --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -repeat 10 -o bench/BASELINE.json
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	bin      string // directory holding ektelo-serve and ektelo-router
	scratch  string // where state directories of a run are made and removed
	out      string // where results and traces are written
	result   string // also write the full result here
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload to run: query.hot, query.cold, mixed.rw, query.routed, plan.lib")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of the op-stream generator")
	flag.Float64Var(&opt.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&opt.trace, "trace", 0, "1: traced run, reports the per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&opt.bin, "bin", ".bench_build/bin", "directory of the built ektelo-serve and ektelo-router")
	flag.StringVar(&opt.scratch, "scratch", ".bench_build", "directory for a run's state directories")
	flag.StringVar(&opt.out, "out", "bench/out", "directory for result and trace files")
	flag.StringVar(&opt.result, "result", "", "also write the run's full result JSON to this file")
	repeat := flag.Int("repeat", 0, "run this many sets (every workload, or -workload, once per set with seeds seed, seed+1, ...) and write medians and spreads to -o")
	outFile := flag.String("o", "", "output file of -repeat")
	compare := flag.Bool("compare", false, "compare two -repeat files: bench -compare old.json new.json")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as this build defines it")
	updateGolden := flag.Bool("update-golden", false, "rewrite testdata/plan_err.json from the reference pass")
	flag.Parse()

	switch {
	case *manifest:
		fail(printManifest(os.Stdout))
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("usage: bench -compare old.json new.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		fail(err)
		if worse {
			os.Exit(1)
		}
	case *updateGolden:
		fail(referencePass(nil, filepath.Join(filepath.Dir(opt.out), "testdata", "plan_err.json")))
	case *repeat > 0:
		fail(repeatRuns(opt, *repeat, *outFile))
	default:
		os.Exit(runOnce(opt))
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// runOnce is one run as the driver makes it: it prints every metric by
// name and unit, the checks, and as the last line the contract's JSON.
// A run whose outputs were wrong still prints that line, with
// "correct": false, and exits 1; a run that could not measure at all
// prints no result and exits 2.
func runOnce(opt options) int {
	spec, ok := specByName(opt.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", opt.workload)
		return 2
	}
	if opt.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(opt.scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// SIGINT/SIGTERM cancel set-up waits; children die with the process
	// (Pdeathsig) and are stopped by the deferred teardown on every path.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var res *Result
	var err error
	switch {
	case spec.name == "plan.lib":
		res, err = runPlanLib(spec, opt, opt.trace == 1)
	case opt.trace == 1:
		res, err = runTraced(ctx, spec, opt)
	default:
		res, err = runServed(ctx, spec, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	res.print(os.Stdout)
	kind := "e2e"
	if res.Traced {
		kind = "trace"
	}
	paths := []string{filepath.Join(opt.out, fmt.Sprintf("result-%s-%s.json", spec.name, kind))}
	if opt.result != "" {
		paths = append(paths, opt.result)
	}
	for _, p := range paths {
		if err := res.save(p); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	line, err := res.lastLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
