// Package golden pins the engine's observable semantics with a
// golden-result regression corpus: ~30 queries over three deterministic
// fixtures (the §2 smuggler map, a VLSI layout, and a hand-built
// edge-case store), executed across every index backend, every executor
// and both planners, and compared against checked-in expected solution
// sets in testdata/golden/.
//
// The corpus is the safety net under the adaptive planner: whatever
// retrieval order the planner picks, the solution set — and the order of
// variables within each tuple — must not move.
// Results are canonicalized to "Var=object" lines sorted
// lexicographically, so comparisons are insensitive to the order
// solutions are found in but sensitive to tuple contents.
//
// Regenerate with `make golden-update` (or
// `go test ./internal/golden -run TestCorpus -update`); the update path
// derives expected sets from the naive cross-product executor, the
// semantics oracle every optimization is measured against.
package golden

import (
	"sort"
	"strings"

	"repro/internal/bbox"
	"repro/internal/query"
	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/workload"
)

// Fixture is a deterministic store-building recipe plus the parameter
// pool its cases draw from. Populate must be a pure function of the
// fixture definition so every backend (and a WAL-recovered copy) holds
// identical data.
type Fixture struct {
	Name     string
	Universe bbox.Box
	Layers   []string
	Populate func(store *spatialdb.Store)
	Params   map[string]*region.Region
}

// Case is one corpus query. The golden file lives at
// testdata/golden/<Fixture>/<Name>.txt.
type Case struct {
	Name    string
	Fixture string
	Query   string
}

// Fixtures returns the corpus fixtures, freshly generated.
func Fixtures() []*Fixture {
	m := workload.GenMap(workload.MapConfig{Seed: 42})
	vl := workload.GenVLSI(workload.VLSIConfig{Seed: 7, Metal1: 18, Metal2: 18, Vias: 24})

	smuggler := &Fixture{
		Name:     "smuggler",
		Universe: m.Config.Universe,
		Layers:   []string{"towns", "roads", "states"},
		Populate: m.Populate,
		Params: map[string]*region.Region{
			"C": m.Country,
			"A": m.Area,
			"W": region.FromBox(bbox.Rect(0, 0, 500, 500)),
			"E": region.Empty(2),
		},
	}

	vlsi := &Fixture{
		Name:     "vlsi",
		Universe: vl.Config.Universe,
		Layers:   []string{"metal1", "metal2", "vias"},
		Populate: vl.Populate,
		Params: map[string]*region.Region{
			"W": region.FromBox(bbox.Rect(200, 200, 700, 700)),
			"U": region.FromBox(vl.Config.Universe),
		},
	}

	edgeUniverse := bbox.Rect(0, 0, 100, 100)
	edge := &Fixture{
		Name:     "edge",
		Universe: edgeUniverse,
		Layers:   []string{"pins", "boxes", "empty"},
		Populate: func(store *spatialdb.Store) {
			// Tiny "pins", including two with identical geometry.
			store.MustInsert("pins", "p0", region.FromBox(bbox.Rect(9, 9, 11, 11)))
			store.MustInsert("pins", "p0-twin", region.FromBox(bbox.Rect(9, 9, 11, 11)))
			store.MustInsert("pins", "p1", region.FromBox(bbox.Rect(49, 49, 51, 51)))
			// Boxes: the whole universe, two boxes sharing only an edge
			// (measure-zero intersection — empty as a region), a nested
			// pair, and a two-box L-shaped region.
			store.MustInsert("boxes", "all", region.FromBox(edgeUniverse))
			store.MustInsert("boxes", "west", region.FromBox(bbox.Rect(0, 0, 10, 10)))
			store.MustInsert("boxes", "east", region.FromBox(bbox.Rect(10, 0, 20, 10)))
			store.MustInsert("boxes", "outer", region.FromBox(bbox.Rect(30, 30, 60, 60)))
			store.MustInsert("boxes", "inner", region.FromBox(bbox.Rect(40, 40, 50, 50)))
			store.MustInsert("boxes", "ell", region.FromBoxes(2,
				bbox.Rect(70, 0, 90, 10), bbox.Rect(70, 0, 80, 30)))
			// A layer that exists but holds nothing.
			store.Layer("empty")
		},
		Params: map[string]*region.Region{
			"W": region.FromBox(bbox.Rect(0, 0, 30, 30)),
			"U": region.FromBox(edgeUniverse),
		},
	}

	return []*Fixture{smuggler, vlsi, edge}
}

// smugglerConstraints is the §2 constraint system shared by the two
// smuggler-query cases (original and permuted retrieval order).
const smugglerConstraints = "A <= C; B <= C; R <= A | B | T; R & A != 0; R & T != 0; T !<= C"

// Cases returns the corpus. Names are unique within a fixture.
func Cases() []Case {
	return []Case{
		// ---- smuggler: the paper's §2 scenario ----
		{"e1-smuggler", "smuggler",
			"find T in towns, R in roads, B in states given C, A where " + smugglerConstraints},
		{"e1-reordered", "smuggler",
			"find B in states, R in roads, T in towns given C, A where " + smugglerConstraints},
		{"towns-inside", "smuggler", "find T in towns given C where T <= C"},
		{"border-towns", "smuggler", "find T in towns given C where T & C != 0; T !<= C"},
		{"border-roads", "smuggler", "find R in roads given C where R & C != 0; R !<= C"},
		{"town-road", "smuggler", "find T in towns, R in roads where T & R != 0"},
		{"roads-into-area", "smuggler", "find R in roads given A where R & A != 0"},
		{"states-touching-area", "smuggler", "find B in states given A where B & A != 0"},
		{"chain-triple", "smuggler",
			"find T in towns, R in roads, B in states where T & R != 0; R & B != 0"},
		{"road-within-state", "smuggler", "find R in roads, B in states where R <= B"},
		{"towns-clear-of-area", "smuggler", "find T in towns given A where disjoint(T, A)"},
		{"towns-in-window", "smuggler", "find T in towns given W where T <= W"},
		{"nothing-in-empty", "smuggler", "find T in towns given E where T <= E"},
		{"roads-in-country-touching-area", "smuggler",
			"find R in roads given C, A where R <= C; R & A != 0"},
		{"town-state-overlap", "smuggler", "find T in towns, B in states where overlaps(T, B)"},

		// ---- vlsi: design-rule-checking shapes (§1 motivation) ----
		{"via-on-m1", "vlsi", "find V in vias, M in metal1 where V & M != 0"},
		{"via-at-crossing", "vlsi",
			"find V in vias, M in metal1, N in metal2 where V & M != 0; V & N != 0; M & N != 0"},
		{"via-inside-wire", "vlsi", "find V in vias, M in metal1 where V <= M"},
		{"crossings", "vlsi", "find M in metal1, N in metal2 where M & N != 0"},
		{"m1-in-window", "vlsi", "find M in metal1 given W where M & W != 0"},
		{"window-vias-on-m2", "vlsi",
			"find V in vias, M in metal2 given W where V <= W; V & M != 0"},
		{"m1-clear-of-window", "vlsi", "find M in metal1 given W where disjoint(M, W)"},
		{"vias-straddling-window", "vlsi",
			"find V in vias given W where V & W != 0; V !<= W"},

		// ---- edge: degenerate and boundary semantics ----
		{"pin-in-box", "edge", "find P in pins, B in boxes where P <= B"},
		{"overlapping-pairs", "edge",
			"find X in boxes, Y in boxes where X & Y != 0; X != Y"},
		{"empty-layer", "edge", "find E in empty where E != 0"},
		{"empty-layer-join", "edge", "find E in empty, B in boxes where E & B != 0"},
		{"nested-boxes", "edge", "find X in boxes, Y in boxes where X <= Y; X != Y"},
		{"duplicate-geometry", "edge", "find X in pins, Y in pins where X = Y"},
		{"all-in-universe", "edge", "find B in boxes given U where B <= U"},
		{"pins-outside-window", "edge", "find P in pins given W where P <= ~W"},
	}
}

// FixtureCases returns the cases of one fixture, in corpus order.
func FixtureCases(fixture string) []Case {
	var out []Case
	for _, c := range Cases() {
		if c.Fixture == fixture {
			out = append(out, c)
		}
	}
	return out
}

// BuildStore materializes a fixture on the given primary backend.
func BuildStore(f *Fixture, kind spatialdb.IndexKind) *spatialdb.Store {
	store := spatialdb.NewStore(f.Universe, kind)
	f.Populate(store)
	return store
}

// Canon renders one solution canonically: Var=object pairs in the
// query's retrieval order. Executors emit tuples in exactly that order
// regardless of the plan's internal step order (Plan.outPos), so a
// mismatch here catches output-permutation bugs too.
func Canon(q *query.Query, s query.Solution) string {
	parts := make([]string, len(s.Objects))
	for i, o := range s.Objects {
		parts[i] = q.Retrieve[i].Var + "=" + o.Name
	}
	return strings.Join(parts, " ")
}

// CanonSet renders a solution list as sorted canonical lines — the
// order-insensitive form golden files store and comparisons use.
func CanonSet(q *query.Query, sols []query.Solution) []string {
	out := make([]string, len(sols))
	for i, s := range sols {
		out[i] = Canon(q, s)
	}
	sort.Strings(out)
	return out
}
