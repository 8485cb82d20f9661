package query

import (
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/bbox"
	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/triangular"
)

// Statistics-driven adaptive planning. Where SuggestOrder ranks retrieval
// orders by layer size alone, CompileAdaptive costs every order against
// the per-layer statistics maintained at ingest (internal/stats): each
// candidate order is compiled, its per-step range-query templates are
// evaluated over a representative environment, and the histograms turn
// each template into an expected fanout. The cost model is the expected
// number of candidates the executor visits,
//
//	cost(order) = f1 + f1·f2 + f1·f2·f3 + …
//
// and no index is touched: estimation is pure arithmetic over the
// histograms, so it is safe and cheap to run per query. Observed run
// costs, when a Tuner holds a fresh observation for an order, override the
// estimate, so repeated queries converge on measured rather than modeled
// behavior. The planner decides order only: every step's range query is
// answered by its layer's one index, so a plan cached by text stays right
// for whatever parameters later requests bind (DESIGN.md §7).

// maxAdaptivePermute bounds the permutation enumeration; above it the
// planner falls back to the static greedy order.
const maxAdaptivePermute = 5

// DefaultStaleEpochs is how many store epochs (mutations) a Tuner
// observation stays trustworthy. Past the bound the data may have shifted
// under the measured cost, and the planner reverts to the histogram
// estimate until a fresh run is observed.
const DefaultStaleEpochs = 512

// Observation is one measured execution cost for a (query, order) pair.
type Observation struct {
	Epoch      uint64 // store epoch when the run was observed
	Candidates int    // candidates the executor visited
	Solutions  int    // solutions it emitted
}

// Tuner accumulates observed run costs keyed by query and retrieval
// order, the feedback half of the adaptive planner. It is safe for
// concurrent use; the query-key population is bounded FIFO so a stream of
// distinct queries cannot grow it without bound.
type Tuner struct {
	mu    sync.Mutex
	cap   int
	keys  []string // insertion order, for FIFO eviction
	byKey map[string]map[string]Observation
}

// NewTuner returns a tuner tracking at most capacity distinct query keys
// (≤ 0 selects a default of 256).
func NewTuner(capacity int) *Tuner {
	if capacity <= 0 {
		capacity = 256
	}
	return &Tuner{cap: capacity, byKey: make(map[string]map[string]Observation)}
}

// Observe records one finished run's cost for the query key under the
// order it executed with, reporting whether it was recorded. Truncated,
// cancelled and ground-failed runs are skipped: their candidate counts
// measure the interruption, not the order.
func (t *Tuner) Observe(key, order string, epoch uint64, st Stats) bool {
	if key == "" || order == "" || st.Truncated || st.Cancelled || st.GroundFailed {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.byKey[key]
	if !ok {
		if len(t.keys) >= t.cap {
			delete(t.byKey, t.keys[0])
			t.keys = t.keys[1:]
		}
		m = make(map[string]Observation)
		t.byKey[key] = m
		t.keys = append(t.keys, key)
	}
	m[order] = Observation{Epoch: epoch, Candidates: st.Candidates, Solutions: st.Solutions}
	return true
}

// Lookup returns a copy of the observations recorded for the query key
// (nil when none).
func (t *Tuner) Lookup(key string) map[string]Observation {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.byKey[key]
	if !ok {
		return nil
	}
	out := make(map[string]Observation, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Len reports how many query keys currently hold observations.
func (t *Tuner) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byKey)
}

// AdaptiveOptions configures CompileAdaptive. The zero value is valid:
// orders are ranked by histogram estimate alone.
type AdaptiveOptions struct {
	// Params are the query's bound parameter regions, when the caller has
	// them at plan time. Estimation uses their bounding boxes; parameters
	// not present plan against the universe box (sound — the box operators
	// are monotone — just less selective).
	Params map[string]*region.Region

	// Tuner and TunerKey connect the feedback loop: orders with a fresh
	// observation under TunerKey are costed by their measured candidate
	// count instead of the estimate.
	Tuner    *Tuner
	TunerKey string

	// Epoch is the store epoch to judge observation freshness against
	// (0 reads the store's current epoch). StaleEpochs overrides
	// DefaultStaleEpochs when positive.
	Epoch       uint64
	StaleEpochs uint64
}

// AdaptiveInfo records how CompileAdaptive chose the plan it returned.
type AdaptiveInfo struct {
	Reordered    bool // the chosen order differs from the query's
	FeedbackUsed int  // orders costed from a fresh Tuner observation
}

// outPositions maps the reordered query's step index back to the
// original query's binding position (by variable name, which is unique
// per binding).
func outPositions(orig, reordered *Query) []int {
	pos := make(map[string]int, len(orig.Retrieve))
	for i, b := range orig.Retrieve {
		pos[b.Var] = i
	}
	out := make([]int, len(reordered.Retrieve))
	for j, b := range reordered.Retrieve {
		out[j] = pos[b.Var]
	}
	return out
}

// orderKey renders a query's retrieval order as "T→R→B".
func orderKey(q *Query) string {
	names := make([]string, len(q.Retrieve))
	for i, b := range q.Retrieve {
		names[i] = b.Var
	}
	return strings.Join(names, "→")
}

// CompileAdaptive compiles the query with the retrieval order the layer
// statistics favor. Results are identical to Compile for any order — only
// cost changes. Queries with more than maxAdaptivePermute retrieval
// variables fall back to the static SuggestOrder ranking; everything else
// costs all n! ≤ 120 orders (orders that fail to compile are skipped) and
// keeps the cheapest under the histogram estimate, with fresh Tuner
// observations overriding estimates where available. Ties go to the
// order enumerated earliest (permRank), so the query's own order wins
// when nothing separates the candidates. When every order fails, the
// error is the one Compile reports for the query's own order.
func CompileAdaptive(q *Query, store *spatialdb.Store, opts AdaptiveOptions) (*Plan, error) {
	n := len(q.Retrieve)
	if n > maxAdaptivePermute {
		plan, err := Compile(SuggestOrder(q, store), store)
		if err != nil {
			return nil, err
		}
		plan.outPos = outPositions(q, plan.Query)
		plan.Adaptive = &AdaptiveInfo{Reordered: plan.OrderKey() != orderKey(q)}
		return plan, nil
	}
	if err := validate(q, store); err != nil {
		return nil, err
	}

	epoch := opts.Epoch
	if epoch == 0 {
		epoch = store.Epoch()
	}
	stale := opts.StaleEpochs
	if stale == 0 {
		stale = DefaultStaleEpochs
	}
	var observed map[string]Observation
	if opts.Tuner != nil && opts.TunerKey != "" {
		observed = opts.Tuner.Lookup(opts.TunerKey)
	}
	paramBox := paramBoxes(q, store, opts.Params)
	ids := make([]int, n)
	for i, b := range q.Retrieve {
		ids[i], _ = q.Sys.Vars.Lookup(b.Var)
	}

	// One depth-first pass over order suffixes. Algorithm 1 eliminates
	// from the back of the order, so step i depends only on the order's
	// suffix from position i: place fills positions from the last to the
	// first, and every order below a node shares that node's elimination
	// and range-query template. Shared steps are never modified; the
	// winner keeps copies. Nothing here runs under the store's read guard:
	// estimation takes it per order, and a recursive RLock deadlocks
	// against a pending writer.
	var (
		perm, bestPerm   = make([]int, n), []int(nil)
		tri, bestTri     = make([]triangular.Step, n), []triangular.Step(nil)
		steps, bestSteps = make([]StepBoxPlan, n), []StepBoxPlan(nil)
		bestRest         triangular.Elim // the winner's residual: its ground constraint
		bestCost         = math.Inf(1)
		bestRank         int
		feedbackUsed     int
		used             uint // bit j: binding j is placed
	)
	var place func(i int, e triangular.Elim)
	place = func(i int, e triangular.Elim) {
		if i < 0 { // a complete order
			cost := estimatePlanCost(steps, store, paramBox)
			if len(observed) > 0 {
				if o, ok := observed[orderKey(permuted(q, perm))]; ok && epoch >= o.Epoch && epoch-o.Epoch <= stale {
					cost = float64(o.Candidates)
					feedbackUsed++
				}
			}
			rank := permRank(perm)
			if cost < bestCost || (bestPerm != nil && cost == bestCost && rank < bestRank) {
				bestCost, bestRank, bestRest = cost, rank, e
				bestPerm, bestTri, bestSteps = slices.Clone(perm), slices.Clone(tri), slices.Clone(steps)
			}
			return
		}
		for j, b := range q.Retrieve {
			if used&(1<<j) != 0 {
				continue
			}
			// A failure fails every order with this suffix, as compiling
			// each of them would.
			st, rest, err := e.Eliminate(ids[j])
			if err != nil {
				continue
			}
			sp, err := stepBoxPlan(st, b)
			if err != nil {
				continue
			}
			perm[i], tri[i], steps[i] = j, st, sp
			used |= 1 << j
			place(i-1, rest)
			used &^= 1 << j
		}
	}
	place(n-1, triangular.Start(q.Sys.Normalize()))
	if bestPerm == nil {
		return Compile(q, store) // every order failed: the query's own order's error
	}

	order := make([]int, n)
	for i, j := range bestPerm {
		order[i] = ids[j]
		bestSteps[i].Diseqs = slices.Clone(bestSteps[i].Diseqs) // compilePrograms writes into it
		bestSteps[i].compilePrograms()
	}
	cand := permuted(q, bestPerm)
	plan := &Plan{
		Query: cand,
		Form:  bestRest.Form(order, bestTri),
		Steps: bestSteps,
		// Step i retrieves the original query's binding bestPerm[i]; emit
		// solutions back in the caller's order.
		outPos:   bestPerm,
		orderKey: orderKey(cand),
	}
	plan.Adaptive = &AdaptiveInfo{
		Reordered:    plan.orderKey != orderKey(q),
		FeedbackUsed: feedbackUsed,
	}
	return plan, nil
}

// permuted returns q with its bindings reordered: binding perm[i] at
// position i.
func permuted(q *Query, perm []int) *Query {
	out := &Query{Sys: q.Sys, Retrieve: make([]Binding, len(perm))}
	for i, j := range perm {
		out.Retrieve[i] = q.Retrieve[j]
	}
	return out
}

// paramBoxes builds the representative environment estimation evaluates
// box programs over: every parameter is bound to its region's bounding
// box (clipped to the universe), or to the universe box when the caller
// did not supply it. Retrieval variables start unbound; estimatePlanCost
// fills them in step order with representative boxes.
func paramBoxes(q *Query, store *spatialdb.Store, params map[string]*region.Region) []bbox.Box {
	envBox := make([]bbox.Box, q.Sys.Vars.Len())
	uni := store.Universe()
	for _, v := range paramIDs(q) {
		envBox[v] = uni
		name := q.Sys.Vars.Name(v)
		if r, ok := params[name]; ok && r != nil && !r.IsEmpty() {
			if b := r.BoundingBox().Meet(uni); !b.IsEmpty() {
				envBox[v] = b
			}
		}
	}
	return envBox
}

// estimatePlanCost walks a plan's steps once under the store's read
// guard, instantiating each range template over the representative
// environment and asking the layer's histograms for the expected match
// count, and returns the cumulative-width cost. A missing layer costs
// +inf — it can only fail at run time, so no order that reaches it early
// should ever win.
func estimatePlanCost(steps []StepBoxPlan, store *spatialdb.Store, paramBox []bbox.Box) float64 {
	store.RLock()
	defer store.RUnlock()
	k := store.K()
	envBox := append([]bbox.Box(nil), paramBox...)
	cost, width := 0.0, 1.0
	for i := range steps {
		sp := &steps[i]
		l, ok := store.LayerIfExists(sp.Layer)
		if !ok {
			return math.Inf(1)
		}
		ds := l.DataStats()
		spec, satisfiable := sp.Spec(k, envBox)
		if !satisfiable {
			return cost // statically dead prefix: deeper steps never run
		}
		est := ds.EstimateSpec(spec)
		if est == 0 {
			return cost // estimated dead end: deeper steps cost ~nothing
		}
		width *= est
		cost += width

		// Representative box for this variable at deeper steps: the mean
		// stored box, narrowed to the step's upper bound when they meet
		// (survivors of the range query are contained in Upper).
		rep := ds.MeanBox()
		if !spec.Upper.IsEmpty() && !spec.Upper.IsUniv() {
			if m := rep.Meet(spec.Upper); !m.IsEmpty() {
				rep = m
			} else {
				rep = spec.Upper
			}
		}
		envBox[sp.Var] = rep
	}
	return cost
}
