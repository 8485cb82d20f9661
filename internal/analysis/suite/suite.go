// Package suite registers boolqvet's analyzers in one place, shared by
// cmd/boolqvet and the meta-test that keeps the repository clean.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/ctxpoll"
	"repro/internal/analysis/errflow"
	"repro/internal/analysis/lockguard"
	"repro/internal/analysis/noalloc"
	"repro/internal/analysis/walcheck"
)

// Analyzers returns the full suite in a stable order. lockguard runs
// first (its diagnostics tend to explain the others' — a missing lock
// often causes a walcheck ordering finding too), fact producers before
// fact consumers is guaranteed separately by package dependency order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockguard.Analyzer,
		ctxpoll.Analyzer,
		noalloc.Analyzer,
		walcheck.Analyzer,
		errflow.Analyzer,
	}
}
