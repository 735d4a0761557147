// Command exspanlint is the multichecker driver for the engine's invariant
// analyzers (internal/lint): determinism, hotpath and interning.
// `make lint` runs it over the whole tree (tests included) as a blocking CI
// gate; any finding exits 1.
//
// Usage:
//
//	exspanlint [-tests=false] [-only name[,name]] [-fieldalign] [patterns ...]
//
// Patterns default to ./... rooted at the current directory. -fieldalign
// switches to the report-only struct-packing sweep (always exits 0; see
// PERFORMANCE.md "Field alignment").
package main

import (
	"flag"
	"fmt"
	"go/types"
	"os"
	"runtime"
	"strings"

	"repro/internal/lint"
)

func main() {
	tests := flag.Bool("tests", true, "analyze _test.go files and external test packages too")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	fieldalign := flag.Bool("fieldalign", false, "report-only struct field-alignment sweep instead of the invariant analyzers")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(".", *tests && !*fieldalign, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "exspanlint: %v\n", err)
		os.Exit(2)
	}

	if *fieldalign {
		reports := lint.FieldAlign(pkgs, types.SizesFor("gc", runtime.GOARCH))
		for _, r := range reports {
			fmt.Println(r)
		}
		fmt.Printf("exspanlint -fieldalign: %d structs with tighter packings available (report-only)\n", len(reports))
		return
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
			}
		}
		if len(sel) == 0 {
			fmt.Fprintf(os.Stderr, "exspanlint: no analyzer matches -only=%s\n", *only)
			os.Exit(2)
		}
		analyzers = sel
	}

	diags := lint.Run(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "exspanlint: %d findings\n", len(diags))
		os.Exit(1)
	}
	fmt.Println("exspanlint ok")
}
