// Package query is the public face of the library: it compiles a system of
// Boolean constraints plus a retrieval order into the paper's optimized
// execution plan, and runs it against a spatial store.
//
// Compilation (the paper's §3–§4 pipeline):
//
//  1. the system is normalized (Theorem 1) and triangularized
//     (Algorithm 1, internal/triangular);
//  2. each solved constraint's Boolean functions s, t, p, q are
//     approximated by bounding-box functions (Algorithm 2, internal/bbox):
//     s from below, t/p/q from above;
//  3. at run time each retrieval step evaluates its box functions against
//     the already-bound prefix, yielding ONE univariate range query
//     (bbox.RangeSpec) per step, which the spatial index answers.
//
// Execution builds solution tuples incrementally, pruning useless partial
// tuples as early as possible — the paper's headline optimization. Two
// independently switchable filters implement the ablations of the
// experiment suite: the index/bounding-box filter and the exact
// solved-form filter. Final tuples are always verified against the
// original system in the exact region algebra, so every execution mode
// returns the same, sound solution set.
//
// Plan.RunStream is the one plan executor, serial or fanned out over
// workers; RunCtx and RunParallelCtx collect from it, and RunNaiveCtx is
// the separate reference. Execution is cancellable and boundable: every
// context-aware entry point polls cancellation every few hundred
// candidates, stops at Options.Limit solutions, and returns the partial
// result flagged Stats.Cancelled/Stats.Truncated instead of an error — so
// one pathological query can neither pin the store's read guard forever
// nor buffer an unbounded result set.
//
// DESIGN.md §2 ("Compilation") places this package in the module map; §3 describes the concurrency contract the executors uphold.
package query

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/boolalg"
	"repro/internal/constraint"
	"repro/internal/region"
	"repro/internal/spatialdb"
)

// Binding associates a retrieval variable with the layer its candidate
// objects come from.
type Binding struct {
	Var   string
	Layer string
}

// Query is a constraint system plus a retrieval order. Variables of the
// system not mentioned in Retrieve are parameters and must be bound to
// concrete regions at Run time.
type Query struct {
	Sys      *constraint.System
	Retrieve []Binding
}

// New returns a query over a fresh constraint system.
func New() *Query {
	return &Query{Sys: constraint.NewSystem()}
}

// From appends a retrieval binding (variable drawn from layer) and returns
// the query for chaining.
func (q *Query) From(varName, layer string) *Query {
	q.Retrieve = append(q.Retrieve, Binding{Var: varName, Layer: layer})
	return q
}

// Options selects the executor's filters. The zero value disables both —
// a full scan per step with only the final verification, the weakest
// configuration; use DefaultOptions for the paper's full pipeline.
type Options struct {
	// UseIndex answers each step's range query with the layer index
	// (bounding-box filtering). When false the step scans the whole layer.
	UseIndex bool
	// UseExact applies the solved-form constraint Cᵢ exactly (region
	// algebra) to every candidate before extending the partial tuple.
	UseExact bool
	// Limit stops the search after this many solutions (≤ 0: unlimited).
	// A run stopped by its limit returns the partial result with
	// Stats.Truncated set. Honored by every executor, including the
	// naive baseline.
	Limit int
}

// DefaultOptions enables both filters: the paper's full pipeline.
var DefaultOptions = Options{UseIndex: true, UseExact: true}

// Stats counts the executor's work.
type Stats struct {
	Candidates    int // objects considered across all steps
	ExactRejects  int // candidates rejected by the exact solved-form filter
	Extended      int // partial-tuple extensions performed
	FinalChecked  int // full tuples reaching final verification
	FinalRejected int // full tuples failing it
	Solutions     int
	GroundFailed  bool // parameter-only constraints already unsatisfiable
	Truncated     bool // Options.Limit stopped the search early
	Cancelled     bool // the context was cancelled or expired mid-run
	DB            spatialdb.Stats
}

// add sums another frame's work counters into s (the flags are the run's).
func (s *Stats) add(o Stats) {
	s.Candidates += o.Candidates
	s.ExactRejects += o.ExactRejects
	s.Extended += o.Extended
	s.FinalChecked += o.FinalChecked
	s.FinalRejected += o.FinalRejected
	s.Solutions += o.Solutions
	s.DB.Add(o.DB)
}

// Solution is one tuple of objects, in retrieval order.
type Solution struct {
	Objects []spatialdb.Object
}

// Clone returns a copy that owns its tuple — what a RunStream consumer
// keeps of a solution it was lent.
func (s Solution) Clone() Solution {
	return Solution{Objects: slices.Clone(s.Objects)}
}

// Names returns the object names of the tuple.
func (s Solution) Names() []string {
	out := make([]string, len(s.Objects))
	for i, o := range s.Objects {
		out[i] = o.Name
	}
	return out
}

// Result is the outcome of one execution.
type Result struct {
	Solutions []Solution
	Stats     Stats
}

// RunNaive executes the query with no optimization at all: it enumerates
// the full cross product of the bound layers and checks the original
// system on each complete tuple. This is the baseline the paper's
// optimization is measured against (experiment E6). Like Plan.Run it
// holds the store's read guard for the whole execution.
func RunNaive(q *Query, store *spatialdb.Store, params map[string]*region.Region) (*Result, error) {
	return RunNaiveCtx(context.Background(), q, store, params, Options{})
}

// RunNaiveCtx is RunNaive bounded by a context and Options.Limit (the
// filter options are meaningless for the naive baseline and ignored).
// It shares only the execCtl with Plan.RunStream, which it checks.
// Cancellation and the limit behave exactly as in Plan.RunCtx: the
// search stops early, the read guard is released, and the partial
// result comes back with Stats.Cancelled/Stats.Truncated set rather
// than an error.
func RunNaiveCtx(ctx context.Context, q *Query, store *spatialdb.Store, params map[string]*region.Region, opts Options) (*Result, error) {
	if err := validate(q, store); err != nil {
		return nil, err
	}
	alg := region.NewAlgebra(store.Universe())
	env, err := bindParams(q, alg, params)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	ctl := newExecCtl(ctx, opts.Limit)
	if ctl.poll() { // already cancelled: don't touch the read guard
		ctl.finish(&res.Stats)
		return res, nil
	}
	store.RLock()
	defer store.RUnlock()
	names := make([]string, len(q.Retrieve))
	for i, b := range q.Retrieve {
		names[i] = b.Layer
	}
	layers, err := resolveLayers(store, names)
	if err != nil {
		return nil, err
	}
	tuple := make([]spatialdb.Object, len(q.Retrieve))
	var scr region.Scratch // the per-tuple check's intermediate values
	check := alg.Bind(&scr)
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Retrieve) {
			if ctl.poll() {
				return
			}
			res.Stats.FinalChecked++
			scr.Reset()
			if q.Sys.Satisfied(&check, env) {
				if !ctl.reserve() {
					return
				}
				res.Stats.Solutions++
				objs := append([]spatialdb.Object(nil), tuple...)
				res.Solutions = append(res.Solutions, Solution{Objects: objs})
			} else {
				res.Stats.FinalRejected++
			}
			return
		}
		v, _ := q.Sys.Vars.Lookup(q.Retrieve[i].Var)
		layers[i].All(func(o spatialdb.Object) bool {
			res.Stats.Candidates++
			if res.Stats.Candidates%cancelCheckEvery == 0 {
				ctl.poll()
			}
			if ctl.halted() {
				return false
			}
			tuple[i] = o
			env[v] = o.Reg
			rec(i + 1)
			env[v] = nil
			return !ctl.halted()
		})
	}
	rec(0)
	ctl.finish(&res.Stats)
	return res, nil
}

// validate checks the query's bindings against the system and store.
func validate(q *Query, store *spatialdb.Store) error {
	if len(q.Retrieve) == 0 {
		return fmt.Errorf("query: no retrieval variables")
	}
	seen := map[string]bool{}
	for _, b := range q.Retrieve {
		if _, ok := q.Sys.Vars.Lookup(b.Var); !ok {
			return fmt.Errorf("query: retrieval variable %q not used in any constraint", b.Var)
		}
		if seen[b.Var] {
			return fmt.Errorf("query: variable %q retrieved twice", b.Var)
		}
		seen[b.Var] = true
		if !store.HasLayer(b.Layer) {
			return fmt.Errorf("query: layer %q does not exist", b.Layer)
		}
	}
	return nil
}

// paramIDs returns the variable ids of the system's parameters (variables
// not retrieved).
func paramIDs(q *Query) []int {
	retrieved := map[int]bool{}
	for _, b := range q.Retrieve {
		if v, ok := q.Sys.Vars.Lookup(b.Var); ok {
			retrieved[v] = true
		}
	}
	var out []int
	for v := 0; v < q.Sys.Vars.Len(); v++ {
		if !retrieved[v] {
			out = append(out, v)
		}
	}
	return out
}

// bindParams builds the evaluation environment with all parameters bound
// (clipped to the store universe, since the region algebra's complement is
// relative to it).
func bindParams(q *Query, alg *region.Algebra, params map[string]*region.Region) ([]boolalg.Element, error) {
	env := make([]boolalg.Element, q.Sys.Vars.Len())
	for _, v := range paramIDs(q) {
		name := q.Sys.Vars.Name(v)
		val, ok := params[name]
		if !ok {
			return nil, fmt.Errorf("query: parameter %q not bound", name)
		}
		env[v] = alg.Clip(val)
	}
	return env, nil
}
