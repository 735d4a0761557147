package lint

// Golden-fixture tests: each analyzer runs over its package under
// testdata/src/ and must produce exactly the diagnostics pinned by
// `// want "re"` comments — no more, no fewer. The fixtures double as the
// suite's negative fence: TestFixtures fails if an analyzer goes silent on
// a seeded violation, the same way doccheck is negative-tested. testdata
// directories are invisible to ./... patterns, so `make lint`, builds and
// vet never see the deliberate violations; the loader reaches them by
// explicit path.

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// loadFixture loads one testdata package through the production loader.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkgs, err := Load(".", false, "./testdata/src/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", name, len(pkgs))
	}
	return pkgs[0]
}

// wantRe extracts the quoted regexes of one `// want "re" "re"` comment.
var wantRe = regexp.MustCompile(`// want ((?:"(?:[^"\\]|\\.)*"\s*)+)`)

var wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// collectWants scans a fixture package's comments for want expectations.
func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, qm := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(qm[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regex %q: %v", pos.Filename, pos.Line, qm[1], err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

func TestFixtures(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer *Analyzer
	}{
		{"determinism", DeterminismAnalyzer},
		{"hotpath", HotpathAnalyzer},
		{"interning", InterningAnalyzer},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) { checkWants(t, loadFixture(t, tc.fixture), tc.analyzer) })
	}
}

// checkWants runs the analyzer over pkg and requires exactly the diagnostics
// its want comments pin.
func checkWants(t *testing.T, pkg *Package, analyzer *Analyzer) {
	t.Helper()
	wants := collectWants(t, pkg)
	if len(wants) == 0 {
		t.Fatalf("package %s has no want comments", pkg.Path)
	}
	for _, d := range RunAnalyzer(analyzer, pkg) {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
}

// TestDeterminismCoversExternalTests: the external test package of a
// deterministic-core package (package X_test) is held to X's bar. The
// determinism fixture's external test file seeds a wall-clock read.
func TestDeterminismCoversExternalTests(t *testing.T) {
	pkgs, err := Load(".", true, "./testdata/src/determinism")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if strings.HasPrefix(pkg.Path, "repro/internal/lint/testdata/src/determinism_test ") {
			checkWants(t, pkg, DeterminismAnalyzer)
			return
		}
	}
	t.Fatal("the determinism fixture's external test package did not load")
}

// TestSuppressionHandling pins the escape-hatch contract on the suppress
// fixture: a justified suppression silences its finding, an empty-reason
// suppression is converted into a finding, and a suppression that silences
// nothing is a finding.
func TestSuppressionHandling(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	diags := RunAnalyzer(DeterminismAnalyzer, pkg)
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d: %s", d.Pos.Line, d.Message))
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (empty reason + unused):\n%s",
			len(diags), strings.Join(got, "\n"))
	}
	if !strings.Contains(diags[0].Message, "needs a reason") {
		t.Errorf("first diagnostic = %q, want the empty-reason finding", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, "unused suppression") {
		t.Errorf("second diagnostic = %q, want the unused-suppression finding", diags[1].Message)
	}
	// The justified suppression must not surface at all.
	for _, d := range diags {
		if strings.Contains(d.Message, "wall-clock") {
			t.Errorf("justified suppression leaked a finding: %s", d)
		}
	}
}

// TestSuiteFindsSeededViolations is the cmd/exspanlint-level negative fence:
// every analyzer in the shipped suite must fire on its fixture when run the
// way the driver runs it (whole suite over the package), proving the gate
// cannot silently pass a tree that contains these violation classes.
func TestSuiteFindsSeededViolations(t *testing.T) {
	for _, a := range Analyzers() {
		pkg := loadFixture(t, a.Name)
		diags := Run([]*Package{pkg}, Analyzers())
		count := 0
		for _, d := range diags {
			if d.Analyzer == a.Name {
				count++
			}
		}
		if count == 0 {
			t.Errorf("suite produced no %s findings on its fixture — the gate would pass a violating tree", a.Name)
		}
	}
}
