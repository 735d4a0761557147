package experiments

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

// figures holds one run of every simulated experiment at the golden's
// parameters, shared by the golden and every shape check of this package.
var figures struct {
	once    sync.Once
	results []*Result
	err     error
}

// figureResults runs every non-testbed experiment once, at scale 0.2 and
// seed 7 (the parameters testdata/figures.golden was recorded at). The
// entries share no state, and every simulated quantity is a function of
// the seed alone, so they run concurrently; the Results keep registry
// order.
func figureResults(t *testing.T) []*Result {
	t.Helper()
	figures.once.Do(func() {
		out := make([][]*Result, len(Experiments))
		errs := make([]error, len(Experiments))
		var wg sync.WaitGroup
		for i, e := range Experiments {
			if e.Testbed {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i], errs[i] = e.Gen(Params{Scale: 0.2, Seed: 7})
				if errs[i] != nil {
					errs[i] = fmt.Errorf("%s: %w", e.Name, errs[i])
				}
			}()
		}
		wg.Wait()
		figures.results, figures.err = slices.Concat(out...), errors.Join(errs...)
	})
	if figures.err != nil {
		t.Fatal(figures.err)
	}
	return figures.results
}

// figure returns the shared Result with the given ID.
func figure(t *testing.T, id string) *Result {
	t.Helper()
	for _, r := range figureResults(t) {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("no result %s", id)
	return nil
}

// TestFiguresGolden pins every simulated table and figure of the
// evaluation — Tables 1-2, Figs 6-15 and both ablations — against
// testdata/figures.golden, in exspan-bench's output format
// (`exspan-bench -scale 0.2 -seed 7 -no-testbed`, then `-ablations`).
// Figs 16-17 measure wall-clock time over UDP and are not recorded. On a
// mismatch the test prints the differing lines of each differing Result and
// logs the whole computed output; when the change is intended, regenerate
// the golden by pasting that output over it.
func TestFiguresGolden(t *testing.T) {
	results := figureResults(t)

	// Every entry returns exactly the Results its IDs declare, in order.
	var wantIDs, gotIDs []string
	for _, e := range Experiments {
		if !e.Testbed {
			wantIDs = append(wantIDs, e.IDs...)
		}
	}
	var got strings.Builder
	for _, r := range results {
		gotIDs = append(gotIDs, r.ID)
		got.WriteString(r.Table() + "\n")
	}
	if !slices.Equal(gotIDs, wantIDs) {
		t.Errorf("result IDs %v, registry declares %v", gotIDs, wantIDs)
	}

	golden, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(golden) {
		return
	}
	want := resultBlocks(string(golden))
	for _, r := range results {
		if d := lineDiff(want[r.ID], strings.TrimSuffix(r.Table(), "\n")); d != "" {
			t.Errorf("%s differs from the golden (-golden +computed):\n%s", r.ID, d)
		}
	}
	t.Errorf("output differs from testdata/figures.golden; computed output:\n%s", got.String())
}

// resultBlocks splits exspan-bench output into one block per Result, keyed
// by ID.
func resultBlocks(out string) map[string]string {
	blocks := map[string]string{}
	for _, b := range strings.Split(out, "\n\n") {
		if head, ok := strings.CutPrefix(b, "== "); ok {
			id, _, _ := strings.Cut(head, ":")
			blocks[id] = b
		}
	}
	return blocks
}

// lineDiff lists the lines at which two renderings differ, position by
// position.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "-%s\n+%s\n", wl, gl)
		}
	}
	return b.String()
}
