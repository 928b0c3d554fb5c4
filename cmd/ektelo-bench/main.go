// Command ektelo-bench regenerates the tables and figures of the EKTELO
// paper's evaluation (§10) on the synthetic substitute datasets.
//
// Usage:
//
//	ektelo-bench -exp table4|table5|table6|fig3|fig4a|fig4b|fig5|all [-full]
//
// Without -full the quick configurations run (small domains, seconds);
// with -full the paper-scale configurations run (up to the 1.4M-cell
// Census domain; minutes). Performance of the served system is measured
// by bench/ (bash bench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table4, table5, table6, fig3, fig4a, fig4b, fig5, all")
	full := flag.Bool("full", false, "run the paper-scale configuration instead of the quick one")
	flag.Parse()

	runners := map[string]func(bool){
		"table4": runTable4,
		"table5": runTable5,
		"table6": runTable6,
		"fig3":   runFig3,
		"fig4a":  runFig4a,
		"fig4b":  runFig4b,
		"fig5":   runFig5,
	}
	order := []string{"table4", "table5", "fig3", "fig4a", "fig4b", "fig5", "table6"}

	if *exp == "all" {
		for _, name := range order {
			runners[name](*full)
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	run(*full)
}

func banner(title string) func() {
	fmt.Printf("== %s ==\n", title)
	start := time.Now()
	return func() { fmt.Printf("(%s elapsed)\n\n", time.Since(start).Round(time.Millisecond)) }
}

func runTable4(full bool) {
	done := banner("Table 4: MWEM variants (error-improvement factors vs standard MWEM)")
	cfg := experiments.QuickTable4()
	if full {
		cfg = experiments.FullTable4()
	}
	fmt.Print(experiments.Table4String(experiments.Table4(cfg)))
	done()
}

func runTable5(full bool) {
	done := banner("Table 5: Census case study (scaled per-query L2 error)")
	cfg := experiments.QuickTable5()
	if full {
		cfg = experiments.FullTable5()
	}
	fmt.Print(experiments.Table5String(experiments.Table5(cfg)))
	done()
}

func runTable6(full bool) {
	done := banner("Table 6: workload-based domain reduction")
	cfg := experiments.QuickTable6()
	if full {
		cfg = experiments.FullTable6()
	}
	fmt.Print(experiments.Table6String(experiments.Table6(cfg)))
	done()
}

func runFig3(full bool) {
	done := banner("Figure 3: Naive Bayes classifier AUC vs privacy budget")
	cfg := experiments.QuickFig3()
	if full {
		cfg = experiments.FullFig3()
	}
	fmt.Print(experiments.Fig3String(experiments.Fig3(cfg)))
	done()
}

func runFig4a(full bool) {
	done := banner("Figure 4a: 1-D/2-D plan runtime by matrix representation")
	cfg := experiments.QuickFig4a()
	if full {
		cfg = experiments.FullFig4a()
	}
	fmt.Print(experiments.Fig4String(experiments.Fig4a(cfg)))
	done()
}

func runFig4b(full bool) {
	done := banner("Figure 4b: multi-dimensional plan runtime")
	cfg := experiments.QuickFig4b()
	if full {
		cfg = experiments.FullFig4b()
	}
	fmt.Print(experiments.Fig4String(experiments.Fig4b(cfg)))
	done()
}

func runFig5(full bool) {
	done := banner("Figure 5: inference scalability")
	cfg := experiments.QuickFig5()
	if full {
		cfg = experiments.FullFig5()
	}
	fmt.Print(experiments.Fig5String(experiments.Fig5(cfg)))
	done()
}
