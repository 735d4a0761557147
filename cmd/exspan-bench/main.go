// exspan-bench regenerates the paper's evaluation tables and figures
// (§7, Tables 1-2 and Figures 6-17) and prints each as a text table whose
// rows mirror the series the paper plots.
//
// Usage:
//
//	exspan-bench                 # everything at paper scale
//	exspan-bench -scale 0.2      # quick pass at reduced scale
//	exspan-bench -fig 6          # one figure
//	exspan-bench -no-testbed     # skip the UDP deployment figures
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 1.0, "experiment scale in (0,1]: shrinks sizes and durations")
	seed := flag.Int64("seed", 42, "random seed")
	fig := flag.Int("fig", 0, "run a single figure (6-17); 0 = all")
	tables := flag.Bool("tables", false, "run only Tables 1-2")
	noTestbed := flag.Bool("no-testbed", false, "skip UDP deployment figures 16-17")
	ablations := flag.Bool("ablations", false, "run only the beyond-the-paper ablations")
	flag.Parse()

	p := experiments.Params{Scale: *scale, Seed: *seed}
	// runEach prints every registered experiment keep selects and reports
	// whether there was one.
	runEach := func(keep func(experiments.Experiment) bool) bool {
		found := false
		for _, e := range experiments.Experiments {
			if !keep(e) {
				continue
			}
			found = true
			res, err := e.Gen(p)
			if err != nil {
				fatal(err)
			}
			fmt.Println(res.Table())
		}
		return found
	}

	if *ablations {
		runEach(func(e experiments.Experiment) bool { return e.Fig == 0 })
		return
	}

	if *tables {
		t1, t2, err := experiments.Tables12(p)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t1.Table())
		fmt.Println(t2.Table())
		return
	}

	if *fig != 0 {
		if !runEach(func(e experiments.Experiment) bool { return e.Fig == *fig }) {
			fatal(fmt.Errorf("unknown figure %d", *fig))
		}
		return
	}

	if err := experiments.Run(p, !*noTestbed, func(r *experiments.Result) {
		fmt.Println(r.Table())
	}); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "exspan-bench:", err)
	os.Exit(1)
}
