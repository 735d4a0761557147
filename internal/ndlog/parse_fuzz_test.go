package ndlog_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/ndlog"
)

// FuzzParse feeds arbitrary text to the NDlog parser. Property: Parse never
// panics, and a program that parses prints to a form that parses again and
// prints identically — the printer and the lexer agree on every construct,
// string escapes included. Seeds: the application programs, the §5.1 query
// program, and a string literal holding a byte that Go's %q would escape
// but the lexer reads literally.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		apps.MinCostSrc, apps.PathVectorSrc, apps.PacketForwardSrc, apps.ChordSrc, apps.PolicySrc,
		apps.QueryProgramSrc,
		"r1 a(@X,\"p\xadq\") :- b(@X).",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ndlog.Parse(src)
		if err != nil {
			return
		}
		printed := prog.String()
		again, err := ndlog.Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not parse: %v\n%s", err, printed)
		}
		if got := again.String(); got != printed {
			t.Fatalf("print∘parse is not stable:\n first: %q\nsecond: %q", printed, got)
		}
	})
}
