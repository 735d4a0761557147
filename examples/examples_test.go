// Package examples holds no code of its own: each subdirectory is a runnable
// walkthrough, and README.md shows what each prints.
package examples

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExpectedOutputs builds the examples whose "Expected output" blocks in
// README.md are complete — trust, chord and forensics — runs each, and
// diffs its stdout against its block byte for byte. The others show only
// excerpts, or sections whose order the README leaves open.
func TestExpectedOutputs(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"trust", "chord", "forensics"}
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, name := range names {
		args = append(args, "./"+name)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range names {
		want, ok := expectedOutput(string(readme), name)
		if !ok {
			t.Errorf("%s: README.md has no expected-output block", name)
			continue
		}
		got, err := exec.Command(filepath.Join(bin, name)).Output()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if string(got) != want {
			t.Errorf("%s: stdout differs from README.md\n--- want\n%s--- got\n%s", name, want, got)
		}
	}
}

// expectedOutput returns the first fenced block after "Expected output" in
// the README section "## <name> — …".
func expectedOutput(readme, name string) (string, bool) {
	_, section, ok := strings.Cut(readme, "\n## "+name+" ")
	if !ok {
		return "", false
	}
	section, _, _ = strings.Cut(section, "\n## ")
	_, rest, ok := strings.Cut(section, "Expected output")
	if !ok {
		return "", false
	}
	_, rest, ok = strings.Cut(rest, "```\n")
	if !ok {
		return "", false
	}
	block, _, ok := strings.Cut(rest, "```")
	return block, ok
}
