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
	"slices"

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
	keep := func(e experiments.Experiment) bool { return !e.Ablation && !(e.Testbed && *noTestbed) }
	only := "" // with -fig N, the one Result to print
	switch {
	case *ablations:
		keep = func(e experiments.Experiment) bool { return e.Ablation }
	case *tables:
		keep = func(e experiments.Experiment) bool { return e.Name == "tables" }
	case *fig != 0:
		// A figure runs the whole entry that holds it; only its own Result prints.
		only = fmt.Sprintf("fig%02d", *fig)
		keep = func(e experiments.Experiment) bool { return slices.Contains(e.IDs, only) }
		if !slices.ContainsFunc(experiments.Experiments, keep) {
			fatal(fmt.Errorf("unknown figure %d", *fig))
		}
	}
	if err := experiments.Run(p, keep, func(r *experiments.Result) {
		if only == "" || r.ID == only {
			fmt.Println(r.Table())
		}
	}); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "exspan-bench:", err)
	os.Exit(1)
}
