package query

import (
	"math"
	"slices"
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

	work compileWork
}

// compileWork counts phase 1's work in one CompileAdaptive call. The
// counts are deterministic for a query, so tests pin them.
type compileWork struct {
	projections int // Eliminate calls: one per eliminated set that some order reaches
	templates   int // range templates lowered: one per distinct (binding, step)
	bcfs        int // Blake canonical forms computed: one per distinct formula
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
	const sep = "→"
	var b strings.Builder
	n := 0
	for _, bd := range q.Retrieve {
		n += len(sep) + len(bd.Var)
	}
	b.Grow(n)
	for i, bd := range q.Retrieve {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(bd.Var)
	}
	return b.String()
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
// Phase 1 solves each of the n·2ⁿ⁻¹ (set, binding) pairs once (32 at
// n = 4, 80 at n = 5), but projects only once per eliminated set: 2ⁿ−1
// projections (15 and 31); a pair into a set whose residual is known
// solves the step alone. It lowers one range template per distinct
// (binding, step) and computes each Blake canonical form once, all within
// this call. Phase 2 costs the orders front to back, so orders sharing a
// prefix share its estimate, and drops a prefix that already costs more
// than the best complete order; costing allocates nothing once warm.
// Only the winner's box programs are lowered.
//
// Everything the search builds lives in one pooled scratch (searchPool)
// and dies with the call, except the plan: at return the winning order's
// steps, disequation lists and residual are copied out of the scratch
// into memory the plan owns (export), so no cached plan points into
// pooled storage (DESIGN.md §7, "compile memory").
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

	epoch := opts.Epoch
	if epoch == 0 {
		epoch = store.Epoch()
	}
	s := acquireSearch(q, epoch)
	defer s.release()
	if opts.Tuner != nil && opts.TunerKey != "" {
		s.observed = opts.Tuner.Lookup(opts.TunerKey)
	}
	ground := s.eliminate(q.Sys.Normalize())
	if ground.F != nil {
		s.rank(store, opts.Params)
	}
	if len(s.best) == 0 {
		return Compile(q, store) // every order failed: the query's own order's error
	}
	return s.export(ground), nil
}

// export builds the winning order's plan in memory the plan owns. Phase
// 1's step disequation lists, range templates' disequation lists and
// residual disequations are cut from the pooled scratch's slabs, so each
// is copied into one slab of the plan's; the winner's box programs are
// lowered into one block (compilePrograms). Formula and box-function
// nodes are immutable and heap-allocated, so they are shared, not copied.
func (s *orderSearch) export(ground triangular.Elim) *Plan {
	n := s.n
	ints := make([]int, 2*n)
	order, outPos := ints[:n:n], ints[n:]
	copy(outPos, s.best)
	tri := make([]triangular.Step, n)
	steps := make([]StepBoxPlan, n)
	ndiseqs := 0
	placed := 0
	for i, j := range s.best {
		placed |= 1 << j
		es := s.step(placed, j)
		order[i], tri[i], steps[i] = s.ids[j], es.tri, es.box
		ndiseqs += len(es.tri.Diseqs)
	}
	diseqs := make([]triangular.Diseq, 0, ndiseqs)
	boxDiseqs := make([]DiseqBoxPlan, 0, ndiseqs) // one template per solved disequation
	for i := range tri {
		tri[i].Diseqs = own(&diseqs, tri[i].Diseqs)
		steps[i].Diseqs = own(&boxDiseqs, steps[i].Diseqs)
	}
	ground.G = slices.Clone(ground.G)
	compilePrograms(steps)
	cand := permuted(s.q, outPos)
	reordered := false
	for i, j := range outPos {
		reordered = reordered || i != j
	}
	plan := &Plan{
		Query: cand,
		Form:  ground.Form(order, tri),
		Steps: steps,
		// Step i retrieves the original query's binding outPos[i]; emit
		// solutions back in the caller's order.
		outPos:   outPos,
		orderKey: orderKey(cand),
	}
	plan.Adaptive = &AdaptiveInfo{
		Reordered:    reordered,
		FeedbackUsed: s.feedbackUsed,
		work:         s.work,
	}
	return plan
}

// own appends src to *dst, whose capacity already holds it, and returns
// the appended part, capped; nil when src is empty.
func own[T any](dst *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	lo := len(*dst)
	*dst = append(*dst, src...)
	return (*dst)[lo:len(*dst):len(*dst)]
}

// searchPool keeps CompileAdaptive's scratch between compiles: phase 1's
// residual, step and template arrays, the canonical-form memo and its
// term buffer, the cofactor table and the disequation slabs
// (triangular.Scratch, boxDiseqs), and the cost model's buffers.
var searchPool = sync.Pool{New: func() any { return new(orderSearch) }}

// maxPooledSearch caps what a pooled search retains, in elements summed
// over its arrays, slabs, memo and cofactor table: a 5-variable compile
// of the query_cold shape (coldShapeQuery plus a fifth binding) holds
// about 2,200, a 4-variable one about 1,100. One that an unusual query
// grew past the cap is dropped on release instead of being kept alive
// by the pool.
const maxPooledSearch = 1 << 14

// acquireSearch takes a search from the pool and readies it for q, whose
// n ≤ maxAdaptivePermute bindings passed validate. Every array it sizes
// comes back zeroed from release.
//
//boolq:noalloc
func acquireSearch(q *Query, epoch uint64) *orderSearch {
	s := searchPool.Get().(*orderSearch) //boolq:allowalloc a new search only when the pool is empty
	n := len(q.Retrieve)
	s.q, s.n, s.full, s.epoch = q, n, 1<<n-1, epoch
	s.ids, s.perm = resized(s.ids, n), resized(s.perm, n)
	for i, b := range q.Retrieve {
		s.ids[i], _ = q.Sys.Vars.Lookup(b.Var)
	}
	s.res = resized(s.res, s.full+1)
	s.steps = resized(s.steps, (s.full+1)*n)
	s.bestCost = math.Inf(1)
	return s
}

// release clears everything the search holds of the query, the store
// and the compile — so the pool keeps no formula, statistic or region
// alive — and returns it to the pool unless it outgrew maxPooledSearch.
//
//boolq:noalloc
func (s *orderSearch) release() {
	s.scr.Reset()
	clear(s.res)
	clear(s.steps)
	clear(s.templates)
	s.templates = s.templates[:0]
	retained := cap(s.res) + cap(s.steps) + cap(s.templates) + cap(s.boxDiseqs) + s.scr.Cap()
	clear(s.boxDiseqs)
	s.boxDiseqs = s.boxDiseqs[:0]
	s.costModel.reset()
	s.q, s.observed, s.best = nil, nil, s.best[:0]
	s.work = compileWork{} //boolq:allowalloc zero value assigned in place
	s.prune, s.bestRank, s.feedbackUsed = false, 0, 0
	if retained > maxPooledSearch {
		return
	}
	searchPool.Put(s) //boolq:allowalloc the pool's per-P list grows once
}

// resized returns x with length n, reusing its array when it is large
// enough.
//
//boolq:noalloc
func resized[T any](x []T, n int) []T {
	return slices.Grow(x[:0], n)[:n] //boolq:allowalloc grow-once: a warm array is large enough
}

// elimStep is one elimination of phase 1: a binding's solved step and
// range-query template, given the set of bindings eliminated before it.
type elimStep struct {
	tri triangular.Step
	box StepBoxPlan
	ok  bool // false: Algorithm 1 or Algorithm 2 failed here
}

// orderSearch is CompileAdaptive's subset dynamic program. Sets of
// bindings are bitmasks over q.Retrieve. Searches are pooled
// (acquireSearch, release): every slice here is reused by the next
// compile.
type orderSearch struct {
	q     *Query
	n     int
	full  int   // the set of all bindings
	ids   []int // binding j's variable id
	res   []triangular.Elim
	steps []int32 // per (set, binding): 1 + its step's index in templates; 0 when none

	// Phase 1 state: the compilation's canonical-form memo, cofactor
	// table and step slabs, the distinct steps solved with their range
	// templates, and the slab the templates' disequation lists are cut
	// from.
	scr       triangular.Scratch
	templates []elimStep
	boxDiseqs []DiseqBoxPlan
	work      compileWork

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
// every binding outside placed (placed includes j), or nil when no order
// reaches that step or solving it failed.
func (s *orderSearch) step(placed, j int) *elimStep {
	if i := s.steps[(s.full&^placed)*s.n+j]; i > 0 {
		return &s.templates[i-1]
	}
	return nil
}

// eliminate is phase 1. It visits the eliminated sets in ascending order —
// every subset of a set before the set — and solves each remaining
// binding against the set's residual once. The first successful residual
// of a set is the set's residual: any other order into it yields the same
// one, so a binding whose target set already has its residual is only
// solved (triangular.Scratch.Solve), not projected. Each distinct step
// gets one range template (template). It returns the residual of the full
// set (F nil when no order compiles): the ground constraint every plan
// shares.
func (s *orderSearch) eliminate(norm constraint.Normal) triangular.Elim {
	res := s.res // F nil: no order reaches the set
	res[0] = triangular.Start(norm)
	for used := 0; used < s.full; used++ {
		if res[used].F == nil {
			continue
		}
		for j := range s.q.Retrieve {
			if used&(1<<j) != 0 {
				continue
			}
			// A failure fails every order that eliminates j right after
			// this set, as compiling each of them would.
			var st triangular.Step
			var err error
			if next := used | 1<<j; res[next].F != nil {
				st, err = s.scr.Solve(res[used], s.ids[j])
			} else {
				var rest triangular.Elim
				st, rest, err = s.scr.Eliminate(res[used], s.ids[j])
				s.work.projections++
				if err == nil {
					res[next] = rest
				}
			}
			if err == nil {
				s.steps[used*s.n+j] = s.template(j, st)
			}
		}
	}
	s.work.bcfs = s.scr.Memo.Computed()
	return res[s.full]
}

// template returns 1 + the index in s.templates of binding j's step st
// with its range template, lowered (Algorithm 2) the first time the
// search meets a step Same as st.
func (s *orderSearch) template(j int, st triangular.Step) int32 {
	for i := range s.templates {
		if s.templates[i].tri.Same(st) { // Same steps solve the same variable: binding j's
			return int32(i + 1)
		}
	}
	sp, err := stepBoxPlan(st, s.q.Retrieve[j], &s.scr.Memo, &s.boxDiseqs)
	s.templates = append(s.templates, elimStep{tri: st, box: sp, ok: err == nil})
	s.work.templates++
	return int32(len(s.templates))
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
		if es == nil || !es.ok {
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
	mean      []bbox.Box        // binding j's mean stored box
	envBox    []bbox.Box        // representative environment of the current prefix
	env       []boolalg.Element // envBox[v] as a region once a lower bound used it; else nil
	envReg    []region.Region   // the regions env points into, one per variable
	retrieved []bool            // retrieval variables: their boxes are layer representatives
	alg       region.Algebra    // the store's algebra bound to scr
	scr       region.Scratch

	// Scratch boxes, so estimating allocates nothing once warm: the
	// step's range spec, the box of its lower bound, and binding j's
	// representative box, which envBox holds while j is placed (a
	// prefix places each binding once).
	spec  specScratch
	lower bbox.Box
	reps  []bbox.Box
}

// init reads the layer statistics and binds every parameter to its
// representative box (paramBoxes). The caller holds the store's read
// guard for as long as it estimates.
//
// A model kept between calls (CompileAdaptive's pooled search) reuses its
// arrays and boxes: reset clears what refers to the query and the store.
func (m *costModel) init(q *Query, store *spatialdb.Store, params map[string]*region.Region) {
	m.k = store.K()
	n := len(q.Retrieve)
	m.stats, m.mean, m.reps = resized(m.stats, n), resized(m.mean, n), resized(m.reps, n)
	for j, b := range q.Retrieve {
		m.stats[j] = nil
		if l, ok := store.LayerIfExists(b.Layer); ok {
			m.stats[j] = l.DataStats()
			m.stats[j].MeanBoxInto(&m.mean[j])
		}
	}
	m.envBox = paramBoxes(m.envBox, q, store, params)
	m.env = resized(m.env, len(m.envBox))
	m.envReg = resized(m.envReg, len(m.envBox))
	m.retrieved = resized(m.retrieved, len(m.envBox))
	clear(m.retrieved)
	for _, b := range q.Retrieve {
		if v, ok := q.Sys.Vars.Lookup(b.Var); ok {
			m.retrieved[v] = true
		}
	}
	m.alg = region.NewAlgebra(store.Universe()).Bind(&m.scr)
}

// reset drops what the model holds of the query and the store, keeping
// its arrays and boxes.
//
//boolq:noalloc
func (m *costModel) reset() {
	clear(m.stats)
	clear(m.envBox)
	clear(m.env)
	for i := range m.envReg {
		m.envReg[i].SetBox(bbox.Box{}) //boolq:allowalloc zero value passed by value
	}
	m.scr.Reset()
	m.alg = region.Algebra{} //boolq:allowalloc zero value assigned in place
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
	spec, satisfiable := sp.SpecInto(m.k, m.envBox, &m.spec)
	if !satisfiable {
		return cost, width, false
	}
	bounded := m.lowerBox(es.tri.Lower)
	if bounded {
		spec.Lower.JoinInto(m.lower, &m.spec.lower)
		spec.Lower = m.spec.lower
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
	rep := &m.reps[j]
	m.mean[j].CopyInto(rep)
	if !spec.Upper.IsEmpty() && !spec.Upper.IsUniv() {
		if rep.MeetInto(spec.Upper, rep); rep.IsEmpty() {
			spec.Upper.CopyInto(rep)
		}
	}
	if bounded {
		rep.JoinInto(m.lower, rep)
	}
	m.bind(sp.Var, *rep)
	return cost, width, true
}

// lowerBox is the planner's model of the executor's exact lower box: the
// solved lower bound evaluated over the representative environment (see
// repValue), each bound variable the region of its representative box,
// and clipped to the universe (region.Algebra.LowerBoxInto). It leaves
// the box in m.lower, reporting false when the bound is 0 or gives no
// box.
func (m *costModel) lowerBox(lower *formula.Formula) bool {
	if lower.IsConst(false) {
		return false
	}
	for v, r := range m.env {
		if r == nil && !m.envBox[v].IsEmpty() && lower.Uses(v) {
			m.envReg[v].SetBox(m.envBox[v])
			m.env[v] = &m.envReg[v]
		}
	}
	m.scr.Reset()
	return m.alg.LowerBoxInto(m.repValue(lower), &m.lower) && !m.lower.IsEmpty()
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
	if cost < s.bestCost || (len(s.best) > 0 && cost == s.bestCost && rank < s.bestRank) {
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
// cost walk binds them in order with representative boxes. The
// environment reuses envBox's array when it is large enough.
func paramBoxes(envBox []bbox.Box, q *Query, store *spatialdb.Store, params map[string]*region.Region) []bbox.Box {
	envBox = resized(envBox, q.Sys.Vars.Len())
	clear(envBox)
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
