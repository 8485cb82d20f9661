// Package boolq is a constraint-based query optimizer for spatial
// databases: a Go reproduction of Helm, Marriott & Odersky,
// "Constraint-Based Query Optimization for Spatial Databases" (PODS 1991).
//
// It converts systems of multivariate Boolean constraints over regions
// (containment, overlap, disjointness, equality and their negations) into
// sequences of univariate bounding-box range queries answered by a spatial
// index, pruning useless partial solution tuples as early as possible.
//
// The pipeline: Theorem-1 normalization → Algorithm-1 triangular solved
// form (projection/quantifier elimination) → Algorithm-2 bounding-box
// approximation via the Blake canonical form → incremental execution with
// per-step range queries.
//
// This root package re-exports the public API; the implementation lives in
// internal packages (see DESIGN.md for the module map):
//
//	store := boolq.NewStore(boolq.Rect(0, 0, 1000, 1000), boolq.RTree)
//	store.MustInsert("towns", "t1", boolq.RegionFromBox(boolq.Rect(95, 400, 105, 412)))
//	q, _ := boolq.ParseQuery(`find T in towns given C where T !<= C`)
//	plan, _ := boolq.Compile(q, store)
//	res, _ := plan.Run(store, map[string]*boolq.Region{"C": country}, boolq.DefaultOptions)
package boolq

import (
	"context"

	"repro/internal/bbox"
	"repro/internal/constraint"
	"repro/internal/formula"
	"repro/internal/lang"
	"repro/internal/query"
	"repro/internal/region"
	"repro/internal/spatialdb"
)

// Core spatial types.
type (
	// Box is an axis-parallel bounding box in k dimensions.
	Box = bbox.Box
	// RangeSpec is the univariate range query of §4 (containment plus
	// overlap constraints on bounding boxes).
	RangeSpec = bbox.RangeSpec
	// Region is a rectilinear region: the spatial value type.
	Region = region.Region
	// Store is the spatial database: named layers of regions.
	Store = spatialdb.Store
	// Object is a stored region with identity.
	Object = spatialdb.Object
	// IndexKind selects a layer index backend.
	IndexKind = spatialdb.IndexKind
)

// Query machinery.
type (
	// Query is a constraint system plus retrieval order.
	Query = query.Query
	// Plan is a compiled query (triangular form + box plans).
	Plan = query.Plan
	// Options selects executor filters.
	Options = query.Options
	// Result is an execution outcome.
	Result = query.Result
	// Solution is one tuple of objects.
	Solution = query.Solution
	// Stats counts executor work.
	Stats = query.Stats
	// System is a raw constraint system (for programmatic construction).
	System = constraint.System
	// Formula is a Boolean formula over region variables.
	Formula = formula.Formula
)

// Index backends.
const (
	Scan       = spatialdb.Scan
	RTree      = spatialdb.RTree
	PointRTree = spatialdb.PointRTree
	Grid       = spatialdb.Grid
	ZOrderIdx  = spatialdb.ZOrderIdx
)

// DefaultOptions enables the full optimization pipeline.
var DefaultOptions = query.DefaultOptions

// NewStore returns an empty spatial store over the universe box.
func NewStore(universe Box, kind IndexKind) *Store {
	return spatialdb.NewStore(universe, kind)
}

// Rect is the 2-D box constructor.
func Rect(x0, y0, x1, y1 float64) Box { return bbox.Rect(x0, y0, x1, y1) }

// RegionFromBox returns the region consisting of one box.
func RegionFromBox(b Box) *Region { return region.FromBox(b) }

// RegionFromBoxes returns the union of the given boxes as a region.
func RegionFromBoxes(k int, boxes ...Box) *Region {
	return region.FromBoxes(k, boxes...)
}

// NewQuery returns an empty query for programmatic construction.
func NewQuery() *Query { return query.New() }

// ParseQuery parses the textual query language (see internal/lang).
func ParseQuery(src string) (*Query, error) { return lang.Parse(src) }

// Compile runs the full optimization pipeline on a query.
func Compile(q *Query, store *Store) (*Plan, error) { return query.Compile(q, store) }

// CompileAndRun compiles and executes with DefaultOptions.
func CompileAndRun(q *Query, store *Store, params map[string]*Region) (*Result, error) {
	return query.CompileAndRun(q, store, params)
}

// RunNaive executes a query by brute force (the unoptimized baseline).
func RunNaive(q *Query, store *Store, params map[string]*Region) (*Result, error) {
	return query.RunNaive(q, store, params)
}

// RunNaiveCtx is RunNaive bounded by a context and Options.Limit: the
// search stops on cancellation or at the limit and returns the partial
// result flagged Stats.Cancelled/Stats.Truncated. The optimized
// executor is the Plan method RunStream, which lends each solution to a
// callback, serially or fanned out over workers; Plan.RunCtx and
// Plan.RunParallelCtx collect its solutions into a Result.
func RunNaiveCtx(ctx context.Context, q *Query, store *Store, params map[string]*Region, opts Options) (*Result, error) {
	return query.RunNaiveCtx(ctx, q, store, params, opts)
}

// Smuggler returns the paper's §2 example query.
func Smuggler() *Query { return query.Smuggler() }

// CompileAdaptive is Compile with the retrieval order chosen by the
// planner boolqd serves: every order of the retrieval variables is costed
// against the store's per-layer statistics with the given parameter
// values (which may be nil), and the cheapest is compiled. Solutions keep
// the query's own binding order (Plan.Bindings) whatever order executes.
func CompileAdaptive(q *Query, store *Store, params map[string]*Region) (*Plan, error) {
	return query.CompileAdaptive(q, store, query.AdaptiveOptions{Params: params})
}
