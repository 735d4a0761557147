package experiments

import (
	"strings"
	"testing"
)

func TestAblationModes(t *testing.T) {
	res := figure(t, "ablation-modes")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 modes", len(res.Rows))
	}
	none := parseF(t, res.Rows[0][1])
	ref := parseF(t, res.Rows[1][1])
	value := parseF(t, res.Rows[2][1])
	central := parseF(t, res.Rows[3][1])
	if !(none < ref && ref < value) {
		t.Errorf("expected none < ref < value, got %v %v %v", none, ref, value)
	}
	// Centralized relays every prov/ruleExec row: the most expensive in
	// aggregate bandwidth.
	if central <= value {
		t.Errorf("centralized (%v) should exceed value-based (%v)", central, value)
	}
	// And it concentrates load at the server relative to reference mode.
	refShare := parseF(t, res.Rows[1][2])
	centralShare := parseF(t, res.Rows[3][2])
	if centralShare <= refShare {
		t.Errorf("centralized max-node share %v should exceed reference %v", centralShare, refShare)
	}
}

func TestAblationInvalidation(t *testing.T) {
	res := figure(t, "ablation-invalidation")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Coherence: no stale answers in either configuration.
	for _, row := range res.Rows {
		if !strings.HasPrefix(row[2], "0/") {
			t.Errorf("%s: stale answers %s", row[0], row[2])
		}
	}
}
