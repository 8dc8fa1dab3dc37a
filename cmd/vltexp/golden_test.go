package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the tables section of results.txt")

// resultsPath is the documented reproduction whose leading section —
// every table and figure, up to the blank line before "Serving layer" —
// is the golden output of `vltexp -all`.
var resultsPath = filepath.Join("..", "..", "results.txt")

const goldenEnd = "\nServing layer"

// TestGoldenFigures pins the full `vltexp -all` output (all 78
// simulated cells behind the paper's tables and figures) to the numbers
// results.txt publishes, so a figure cannot drift from the docs
// silently. The simulator is deterministic: any difference is a real
// behavior change — regenerate with `go test -run TestGoldenFigures
// -update ./cmd/vltexp` and update the matching EXPERIMENTS.md rows.
func TestGoldenFigures(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-all"}, &out, &errOut); code != 0 {
		t.Fatalf("vltexp -all exit %d, stderr: %s", code, errOut.String())
	}
	doc, err := os.ReadFile(resultsPath)
	if err != nil {
		t.Fatal(err)
	}
	end := strings.Index(string(doc), goldenEnd)
	if end < 0 {
		t.Fatalf("%s has no %q section to end the tables at", resultsPath, goldenEnd[1:])
	}
	got, want := out.String(), string(doc[:end])
	if *updateGolden {
		if err := os.WriteFile(resultsPath, []byte(got+string(doc[end:])), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got != want {
		t.Errorf("vltexp -all drifted from the tables in %s (regenerate with -update if intended):\n%s",
			resultsPath, lineDiff(want, got))
	}
}

// lineDiff lists the lines that differ between want and got, by line
// number — enough to name the drifted table rows.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&sb, "line %d:\n  doc:  %s\n  code: %s\n", i+1, wl, gl)
		}
	}
	return sb.String()
}
