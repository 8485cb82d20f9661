package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses an integer table cell.
func cell(t *testing.T, tab Table, row, col int) int {
	t.Helper()
	v, err := strconv.Atoi(tab.Rows[row][col])
	if err != nil {
		t.Fatalf("%s row %d col %d: %q not an int", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func TestAllExperimentsRunAndRender(t *testing.T) {
	for _, r := range All() {
		tab := r.Run()
		if tab.ID != r.ID {
			t.Errorf("%s: table ID %q", r.ID, tab.ID)
		}
		out := tab.String()
		if !strings.Contains(out, tab.Title) || len(tab.Rows) == 0 {
			t.Errorf("%s: rendering broken or empty:\n%s", r.ID, out)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Errorf("%s: row width %d, header %d", r.ID, len(row), len(tab.Header))
			}
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("e6"); !ok {
		t.Errorf("case-insensitive lookup failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Errorf("unknown ID found")
	}
}

// E1: every configuration finds the same solutions and the full pipeline
// examines fewer candidates than naive.
func TestE1Shape(t *testing.T) {
	tab := E1Smuggler()
	sol := cell(t, tab, 0, 1)
	for i := range tab.Rows {
		if got := cell(t, tab, i, 1); got != sol {
			t.Errorf("row %d solutions %d, want %d", i, got, sol)
		}
	}
	naiveCand := cell(t, tab, 0, 2)
	fullCand := cell(t, tab, 3, 2)
	if fullCand*2 > naiveCand {
		t.Errorf("full pipeline candidates %d vs naive %d: no win", fullCand, naiveCand)
	}
}

// E2/E3/E4: the worked examples must match the paper exactly.
func TestPaperExamplesMatch(t *testing.T) {
	for _, tab := range []Table{E2Projection(), E4Bounds()} {
		for _, row := range tab.Rows {
			if row[len(row)-1] != "true" {
				t.Errorf("%s: %v does not match the paper", tab.ID, row)
			}
		}
	}
	e3 := E3BCF()
	if len(e3.Rows) != 2 {
		t.Errorf("E3: BCF has %d prime implicants, paper has 2", len(e3.Rows))
	}
}

// E5: the point transform agrees with scanning on every query and prunes.
func TestE5Shape(t *testing.T) {
	tab := E5PointTransform()
	for i, row := range tab.Rows {
		if row[2] != "true" {
			t.Errorf("query %q disagrees with scan", row[0])
		}
		scanned := cell(t, tab, i, 3)
		total := cell(t, tab, i, 4)
		if row[0] != "overlap" && scanned*2 > total {
			t.Errorf("query %q scanned %d of %d — no pruning", row[0], scanned, total)
		}
	}
}

// E6: optimized tuples must shrink relative to naive as size grows, and
// solutions agree.
func TestE6Shape(t *testing.T) {
	tab := E6Pruning()
	for i, row := range tab.Rows {
		naive := cell(t, tab, i, 1)
		opt := cell(t, tab, i, 2)
		if opt*2 > naive {
			t.Errorf("scale %s: opt %d vs naive %d — reduction below 2x", row[0], opt, naive)
		}
		if row[6] != "true" {
			t.Errorf("scale %s: solutions disagree", row[0])
		}
	}
	// Reduction grows with scale (paper's asymptotic claim).
	first := float64(cell(t, tab, 0, 1)) / float64(cell(t, tab, 0, 2))
	last := float64(cell(t, tab, len(tab.Rows)-1, 1)) / float64(cell(t, tab, len(tab.Rows)-1, 2))
	if last <= first {
		t.Errorf("reduction does not grow with database size: %.1f → %.1f", first, last)
	}
}

// E7: atomless exact, atomic inexact.
func TestE7Shape(t *testing.T) {
	tab := E7Atomless()
	if tab.Rows[0][4] != "true" {
		t.Errorf("region algebra not exact: %v", tab.Rows[0])
	}
	if tab.Rows[1][4] != "false" {
		t.Errorf("atomic algebra unexpectedly exact (gap missing): %v", tab.Rows[1])
	}
}

// E8: all filters agree on solutions; the bbox row shows false positives
// cleaned at the end.
func TestE8Shape(t *testing.T) {
	tab := E8FilterCost()
	sol := tab.Rows[0][4]
	for _, row := range tab.Rows {
		if row[4] != sol {
			t.Errorf("filters disagree on solutions: %v", tab.Rows)
		}
	}
}

// E9: all three methods agree on the join result.
func TestE9Shape(t *testing.T) {
	tab := E9ZOrder()
	for _, row := range tab.Rows {
		if row[5] != "true" {
			t.Errorf("join disagreement at n=%s", row[0])
		}
	}
}

// E10: compiles succeed and no system is reported unsat.
func TestE10Shape(t *testing.T) {
	tab := E10CompileScaling()
	if len(tab.Rows) < 5 {
		t.Fatalf("too few scaling points")
	}
	for _, row := range tab.Rows {
		if row[4] != "false" {
			t.Errorf("satisfiable chain system reported unsat at n=%s", row[0])
		}
	}
}

// E11: identical solutions across backends.
func TestE11Shape(t *testing.T) {
	tab := E11Indexes()
	sol := tab.Rows[0][1]
	for _, row := range tab.Rows {
		if row[1] != sol {
			t.Errorf("backend %s returned %s solutions, scan %s", row[0], row[1], sol)
		}
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "MISMATCH") {
			t.Errorf("note reports mismatch: %s", n)
		}
	}
}

// E12: all orders agree on solutions, and the adaptive planner's cold
// order reads at most 1.2× the best order's candidates. Both planners cost
// the probe the executor issues, exact lower box included: adaptive picks
// R→T→B at 32 candidates, the best order, and the greedy static walk
// B→R→T at 123, where the worst order (B→T→R) reads 338. The log line
// keeps the numbers on record.
func TestE12Shape(t *testing.T) {
	tab := E12Ordering()
	if len(tab.Rows) != 6 {
		t.Fatalf("expected 6 permutations, got %d", len(tab.Rows))
	}
	sols := tab.Rows[0][2]
	best, worst, worstIdx := -1, -1, -1
	staticIdx, adaptiveIdx := -1, -1
	for i, row := range tab.Rows {
		if row[2] != sols {
			t.Errorf("order %s changed the solution set", row[0])
		}
		c := cell(t, tab, i, 1)
		if c > worst {
			worst, worstIdx = c, i
		}
		if best < 0 || c < best {
			best = c
		}
		if strings.Contains(row[4], "static") {
			staticIdx = i
		}
		if strings.Contains(row[4], "adaptive") {
			adaptiveIdx = i
		}
	}
	if staticIdx < 0 || adaptiveIdx < 0 {
		t.Fatalf("planner orders not among the permutations (static %d, adaptive %d)", staticIdx, adaptiveIdx)
	}
	if c := cell(t, tab, adaptiveIdx, 1); 5*c > 6*best {
		t.Errorf("adaptive planner picked %s at %d candidates; best order reads %d (limit 1.2×)", tab.Rows[adaptiveIdx][0], c, best)
	}
	if staticIdx == worstIdx {
		t.Errorf("static planner picked the worst order")
	}
	t.Logf("static picked %s (%d candidates), adaptive %s (%d); best %d, worst %d",
		tab.Rows[staticIdx][0], cell(t, tab, staticIdx, 1),
		tab.Rows[adaptiveIdx][0], cell(t, tab, adaptiveIdx, 1), best, worst)
}

// E13: all construction strategies answer queries identically; STR touches
// no more nodes than incremental quadratic.
func TestE13Shape(t *testing.T) {
	tab := E13RTreeConstruction()
	for _, row := range tab.Rows {
		if row[4] != "true" {
			t.Errorf("construction %s changed query results", row[0])
		}
	}
	quad := parseFloatCell(t, tab, 0, 3)
	str := parseFloatCell(t, tab, 2, 3)
	if str > quad {
		t.Errorf("STR touched %.1f nodes/query, quadratic %.1f — packing did not help", str, quad)
	}
}

// E14: all worker counts find the same solutions.
func TestE14Shape(t *testing.T) {
	tab := E14Parallel()
	sols := tab.Rows[0][3]
	for _, row := range tab.Rows {
		if row[3] != sols {
			t.Errorf("workers=%s changed solutions", row[0])
		}
	}
}

func parseFloatCell(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %q not a float", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}
