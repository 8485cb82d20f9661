package query

import (
	"math"
	"strings"
	"sync"

	"repro/internal/bbox"
	"repro/internal/boolalg"
	"repro/internal/constraint"
	"repro/internal/formula"
	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/stats"
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
	// (0 reads the store's current epoch).
	Epoch uint64
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
// ranks every order that compiles and keeps the cheapest under the
// histogram estimate, with fresh Tuner observations overriding estimates
// where available. Ties go to the order enumerated earliest (permRank),
// so the query's own order wins when nothing separates the candidates.
// When every order fails, the error is the one Compile reports for the
// query's own order.
//
// The n! orders are searched as a dynamic program over subsets of the
// bindings (DESIGN.md §7). Algorithm 1 eliminates from the back of an
// order, and its residual after a set of eliminations does not depend on
// the order they went in (package triangular), so the step at position i
// depends only on the binding placed there and the set placed after it.
// Phase 1 runs each such elimination once: n·2ⁿ⁻¹ of them (32 at n = 4,
// 80 at n = 5) instead of one per order suffix (64 and 325). Phase 2
// costs the orders front to back, so orders sharing a prefix share its
// estimate, and drops a prefix that already costs more than the best
// complete order. Only the winner's box programs are lowered.
func CompileAdaptive(q *Query, store *spatialdb.Store, opts AdaptiveOptions) (*Plan, error) {
	n := len(q.Retrieve)
	if n > maxAdaptivePermute {
		plan, err := Compile(SuggestOrder(q, store, opts.Params), store)
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

	s := &orderSearch{
		q:        q,
		n:        n,
		full:     1<<n - 1,
		ids:      make([]int, n),
		epoch:    opts.Epoch,
		perm:     make([]int, n),
		bestCost: math.Inf(1),
	}
	if s.epoch == 0 {
		s.epoch = store.Epoch()
	}
	if opts.Tuner != nil && opts.TunerKey != "" {
		s.observed = opts.Tuner.Lookup(opts.TunerKey)
	}
	for i, b := range q.Retrieve {
		s.ids[i], _ = q.Sys.Vars.Lookup(b.Var)
	}
	ground := s.eliminate(q.Sys.Normalize())
	if ground.F != nil {
		s.rank(store, opts.Params)
	}
	if s.best == nil {
		return Compile(q, store) // every order failed: the query's own order's error
	}

	order := make([]int, n)
	tri := make([]triangular.Step, n)
	steps := make([]StepBoxPlan, n)
	placed := 0
	for i, j := range s.best {
		placed |= 1 << j
		es := s.step(placed, j)
		order[i], tri[i], steps[i] = s.ids[j], es.tri, es.box
		steps[i].compilePrograms()
	}
	cand := permuted(q, s.best)
	plan := &Plan{
		Query: cand,
		Form:  ground.Form(order, tri),
		Steps: steps,
		// Step i retrieves the original query's binding s.best[i]; emit
		// solutions back in the caller's order.
		outPos:   s.best,
		orderKey: orderKey(cand),
	}
	plan.Adaptive = &AdaptiveInfo{
		Reordered:    plan.orderKey != orderKey(q),
		FeedbackUsed: s.feedbackUsed,
	}
	return plan, nil
}

// elimStep is one elimination of phase 1: a binding's solved step and
// range-query template, given the set of bindings eliminated before it.
type elimStep struct {
	tri triangular.Step
	box StepBoxPlan
	ok  bool // false: Algorithm 1 or Algorithm 2 failed here
}

// orderSearch is CompileAdaptive's subset dynamic program. Sets of
// bindings are bitmasks over q.Retrieve.
type orderSearch struct {
	q     *Query
	n     int
	full  int   // the set of all bindings
	ids   []int // binding j's variable id
	steps []elimStep

	// Phase 2 state.
	costModel
	observed     map[string]Observation
	epoch        uint64
	prune        bool
	perm         []int // the current prefix: binding perm[i] at position i
	best         []int
	bestCost     float64
	bestRank     int
	feedbackUsed int
}

// step returns binding j's elimination when it is placed in front of
// every binding outside placed (placed includes j).
func (s *orderSearch) step(placed, j int) *elimStep {
	return &s.steps[(s.full&^placed)*s.n+j]
}

// eliminate is phase 1. It visits the eliminated sets in ascending order —
// every subset of a set before the set — and eliminates each remaining
// binding from the set's residual once. The first successful residual of
// a set is the set's residual: any other order into it yields the same
// one. It returns the residual of the full set (F nil when no order
// compiles): the ground constraint every plan shares.
func (s *orderSearch) eliminate(norm constraint.Normal) triangular.Elim {
	res := make([]triangular.Elim, s.full+1) // F nil: no order reaches the set
	res[0] = triangular.Start(norm)
	s.steps = make([]elimStep, (s.full+1)*s.n)
	for used := 0; used < s.full; used++ {
		if res[used].F == nil {
			continue
		}
		for j, b := range s.q.Retrieve {
			if used&(1<<j) != 0 {
				continue
			}
			// A failure fails every order that eliminates j right after
			// this set, as compiling each of them would.
			st, rest, err := res[used].Eliminate(s.ids[j])
			if err != nil {
				continue
			}
			sp, err := stepBoxPlan(st, b)
			if err != nil {
				continue
			}
			s.steps[used*s.n+j] = elimStep{tri: st, box: sp, ok: true}
			if next := used | 1<<j; res[next].F == nil {
				res[next] = rest
			}
		}
	}
	return res[s.full]
}

// rank is phase 2: one front-to-back walk over the orders phase 1
// compiled, under a single hold of the store's read guard (estimation
// only reads the layer statistics; nothing inside takes the guard again,
// which would deadlock against a pending writer). A subtree is pruned
// when its prefix alone costs more than the best complete order — never
// on a tie, which permRank must still break, and never when the Tuner
// holds observations, which replace a whole order's cost.
func (s *orderSearch) rank(store *spatialdb.Store, params map[string]*region.Region) {
	store.RLock()
	defer store.RUnlock()
	s.init(s.q, store, params)
	s.prune = len(s.observed) == 0
	s.place(0, 0, 0, 1, true)
}

// place fills position i of the order, the bindings in placed holding
// positions 0..i-1. cost and width are the prefix's estimate,
//
//	cost = f1 + f1·f2 + … + f1·…·fi,   width = f1·…·fi,
//
// summed in the order a per-order walk sums them. live turns false at the
// first step the estimate stops at: a statically dead step or a zero
// estimate (the prefix costs what it has so far: deeper steps never run)
// or a missing layer (+inf: it can only fail at run time).
func (s *orderSearch) place(i, placed int, cost, width float64, live bool) {
	if i == s.n {
		s.leaf(cost)
		return
	}
	for j := range s.n {
		if placed&(1<<j) != 0 {
			continue
		}
		es := s.step(placed|1<<j, j)
		if !es.ok {
			continue
		}
		c, w, l := cost, width, live
		v := es.box.Var
		saved := s.envBox[v]
		if l {
			c, w, l = s.estimate(es, j, c, w)
		}
		if s.prune && c > s.bestCost {
			s.bind(v, saved)
			continue
		}
		s.perm[i] = j
		s.place(i+1, placed|1<<j, c, w, l)
		s.bind(v, saved)
	}
}

// costModel is the cost model both planners rank retrieval orders by:
// the expected number of candidates the executor visits, estimated from
// the layer statistics over a representative environment.
type costModel struct {
	k         int
	stats     []*stats.Layer    // binding j's layer statistics; nil when the layer is missing
	envBox    []bbox.Box        // representative environment of the current prefix
	env       []boolalg.Element // envBox[v] as a region once a lower bound used it; else nil
	retrieved []bool            // retrieval variables: their boxes are layer representatives
	alg       region.Algebra    // the store's algebra bound to scr
	scr       region.Scratch
}

// init reads the layer statistics and binds every parameter to its
// representative box (paramBoxes). The caller holds the store's read
// guard for as long as it estimates.
func (m *costModel) init(q *Query, store *spatialdb.Store, params map[string]*region.Region) {
	m.k = store.K()
	m.stats = make([]*stats.Layer, len(q.Retrieve))
	for j, b := range q.Retrieve {
		if l, ok := store.LayerIfExists(b.Layer); ok {
			m.stats[j] = l.DataStats()
		}
	}
	m.envBox = paramBoxes(q, store, params)
	m.env = make([]boolalg.Element, len(m.envBox))
	m.retrieved = make([]bool, len(m.envBox))
	for _, b := range q.Retrieve {
		if v, ok := q.Sys.Vars.Lookup(b.Var); ok {
			m.retrieved[v] = true
		}
	}
	m.alg = region.NewAlgebra(store.Universe()).Bind(&m.scr)
}

// bind makes b variable v's representative box; its region is built
// when a lower bound first needs it.
func (m *costModel) bind(v int, b bbox.Box) {
	m.envBox[v], m.env[v] = b, nil
}

// estimate extends a live prefix's estimate by binding j's step es: it
// instantiates the step's range template over the representative
// environment, joins in the box of the solved lower bound as the executor
// does (lowerBox), asks the layer's histograms for the expected match
// count and, when the prefix stays live, binds the step's variable to a
// representative box for deeper steps: the mean stored box, narrowed to
// the step's upper bound when they meet (survivors of the range query are
// contained in Upper) and joined with the lower bound's box (they contain
// it).
func (m *costModel) estimate(es *elimStep, j int, cost, width float64) (float64, float64, bool) {
	ds := m.stats[j]
	if ds == nil {
		return math.Inf(1), width, false
	}
	sp := &es.box
	spec, satisfiable := sp.Spec(m.k, m.envBox)
	if !satisfiable {
		return cost, width, false
	}
	lower, bounded := m.lowerBox(es.tri.Lower)
	if bounded {
		spec.Lower = spec.Lower.Join(lower)
		if spec.Unsatisfiable() {
			return cost, width, false
		}
	}
	est := ds.EstimateSpec(spec)
	if est == 0 {
		return cost, width, false
	}
	width *= est
	cost += width
	rep := ds.MeanBox()
	if !spec.Upper.IsEmpty() && !spec.Upper.IsUniv() {
		if in := rep.Meet(spec.Upper); !in.IsEmpty() {
			rep = in
		} else {
			rep = spec.Upper
		}
	}
	if bounded {
		rep = rep.Join(lower)
	}
	m.bind(sp.Var, rep)
	return cost, width, true
}

// lowerBox is the planner's model of the executor's exact lower box: the
// solved lower bound evaluated over the representative environment (see
// repValue), each bound variable the region of its representative box,
// and clipped to the universe (region.Algebra.LowerBoxInto). It reports
// false when the bound is 0 or gives no box.
func (m *costModel) lowerBox(lower *formula.Formula) (bbox.Box, bool) {
	if lower.IsConst(false) {
		return bbox.Box{}, false
	}
	for v, r := range m.env {
		if r == nil && !m.envBox[v].IsEmpty() && lower.Uses(v) {
			m.env[v] = region.FromBox(m.envBox[v])
		}
	}
	m.scr.Reset()
	var b bbox.Box
	if !m.alg.LowerBoxInto(m.repValue(lower), &b) || b.IsEmpty() {
		return bbox.Box{}, false
	}
	return b, true
}

// repValue evaluates f over the representative environment, except that
// a complemented retrieval variable counts as 1. Every retrieval
// variable's representative box sits where its layer's mean box does, so
// two of them share roughly one centre and the larger covers the
// smaller: subtracting one from another measures the layers' mean sizes,
// not how two independently placed objects overlap. (On query_hot's
// smuggler-shaped template the mean zone covered the mean road, so the
// lower bound R ∧ ¬W ∧ ¬Z of P looked empty and the order that profits
// from it looked worst.) Taking ¬Z as 1 over-approximates the lower box
// instead. Parameters keep their complements: their boxes are the
// caller's.
func (m *costModel) repValue(f *formula.Formula) boolalg.Element {
	switch f.Kind() {
	case formula.KindConst:
		if f.Const() {
			return m.alg.Top()
		}
		return m.alg.Bottom()
	case formula.KindVar:
		return m.env[f.VarIndex()]
	case formula.KindNot:
		if x := f.Left(); x.Kind() == formula.KindVar && m.retrieved[x.VarIndex()] {
			return m.alg.Top()
		}
		return m.alg.Complement(m.repValue(f.Left()))
	case formula.KindAnd:
		return m.alg.Meet(m.repValue(f.Left()), m.repValue(f.Right()))
	default:
		return m.alg.Join(m.repValue(f.Left()), m.repValue(f.Right()))
	}
}

// leaf ranks one complete order: a fresh Tuner observation replaces its
// estimate, and the cheapest order wins, the earliest by permRank on a
// tie.
func (s *orderSearch) leaf(cost float64) {
	if len(s.observed) > 0 {
		if o, ok := s.observed[orderKey(permuted(s.q, s.perm))]; ok && s.epoch >= o.Epoch && s.epoch-o.Epoch <= DefaultStaleEpochs {
			cost = float64(o.Candidates)
			s.feedbackUsed++
		}
	}
	rank := permRank(s.perm)
	if cost < s.bestCost || (s.best != nil && cost == s.bestCost && rank < s.bestRank) {
		s.bestCost, s.bestRank = cost, rank
		s.best = append(s.best[:0], s.perm...)
	}
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
// did not supply it. Retrieval variables start unbound; CompileAdaptive's
// cost walk binds them in order with representative boxes.
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

// permRank is perm's position in the enumeration CompileAdaptive's tie
// rule follows: position 0 chooses first, and each position k chooses
// among the bindings not yet placed in the order a swap-based generator
// meets them — swap cur[k] with cur[k], cur[k+1], …, recurse, swap back.
// perm is a permutation of 0..len(perm)-1, len(perm) ≤ maxAdaptivePermute.
func permRank(perm []int) int {
	var cur [maxAdaptivePermute]int
	n := len(perm)
	for i := range n {
		cur[i] = i
	}
	rank := 0
	for k := range n {
		i := k
		for cur[i] != perm[k] {
			i++
		}
		rank = rank*(n-k) + i - k
		cur[k], cur[i] = cur[i], cur[k]
	}
	return rank
}
