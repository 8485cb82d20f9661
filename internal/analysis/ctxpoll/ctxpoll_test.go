package ctxpoll

import (
	"testing"

	"repro/internal/analysis/atest"
)

func TestCtxpoll(t *testing.T) {
	atest.Run(t, Analyzer, "b")
}

// TestPkgsGate checks the -pkgs flag pulls a whole package into scope
// without annotations.
func TestPkgsGate(t *testing.T) {
	if err := Analyzer.Flags.Set("pkgs", "b"); err != nil {
		t.Fatal(err)
	}
	defer Analyzer.Flags.Set("pkgs", "repro/internal/query")
	pkg := atest.Load(t, "b")
	results := atest.Apply(t, Analyzer, pkg)
	// The four annotated findings plus the unannotated function at the
	// fixture's tail, now in scope.
	if len(results) != 5 {
		t.Errorf("with -pkgs=b want 5 findings (unannotated loop included), got %d: %v", len(results), results)
	}
}
