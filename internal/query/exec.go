package query

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bbox"
	"repro/internal/boolalg"
	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/triangular"
)

// resolveLayers looks the step layers up without creating them. The
// caller must hold the store's read guard. Per-run DB statistics are
// accumulated from each SearchInto return value, so a run reports
// exactly the index work it caused even when concurrent runs share a
// layer (a shared-counter delta would mix their costs).
func resolveLayers(store *spatialdb.Store, names []string) ([]*spatialdb.Layer, error) {
	layers := make([]*spatialdb.Layer, len(names))
	for i, name := range names {
		l, ok := store.LayerIfExists(name)
		if !ok {
			return nil, fmt.Errorf("query: layer %q does not exist", name)
		}
		layers[i] = l
	}
	return layers, nil
}

func stepLayerNames(p *Plan) []string {
	names := make([]string, len(p.Steps))
	for i, sp := range p.Steps {
		names[i] = sp.Layer
	}
	return names
}

// execFrame is the per-goroutine state of one bounded execution: the
// serial executor owns a single frame, each parallel worker owns its
// own, and all frames of a run share one execCtl (cancellation, the
// consumer's stop and the solution limit are run-wide, statistics and
// buffers are frame-local).
//
// The frame owns all hot-path scratch — per step the compiled box
// programs' specScratch, the exact filter's region.Scratch and values,
// the probe's id buffer and the candidate callback; per frame the
// environment, the tuple buffers and the final check's region.Scratch —
// so a warm frame allocates nothing per candidate, per prefix or per
// solution. Frames are pooled (acquireFrame/release) and never shared;
// DESIGN.md §"Execution cost model" spells the ownership out.
type execFrame struct {
	p       *Plan
	ctl     *execCtl
	opts    Options
	layers  []*spatialdb.Layer
	k       int
	env     []boolalg.Element
	envBox  []bbox.Box
	tuple   []spatialdb.Object // in step order
	out     []spatialdb.Object // in output order, when the plan reorders
	steps   []stepFrame
	check   region.Scratch // the final check's intermediate values
	checkIn region.Algebra // the run's algebra bound to check
	stats   Stats
	emit    func(Solution) bool // false stops the whole run
	gather  bool                // keep step 0's survivors in firsts instead of extending them
	firsts  []spatialdb.Object  // what a parallel run's workers drain
}

// stepFrame is one step's share of the frame. Step i's state must
// outlive the recursion below it — its search is still iterating ids, and
// its candidates are still filtered against exact, while deeper steps
// probe and evaluate — which is why every buffer here is per step.
type stepFrame struct {
	spec  specScratch
	scr   region.Scratch              // owns exact's elements; reset once per prefix
	alg   region.Algebra              // the run's algebra bound to scr
	exact triangular.StepValues       // the solved constraint's values for the current prefix
	slots []int64                     // the index probe's slot buffer
	db    spatialdb.Stats             // the run's index cost on this step's layer
	visit func(spatialdb.Object) bool // consider(i, ·), built once per frame
}

// Retention caps for pooled frames: a buffer that one unusually wide
// request grew past these is dropped on release instead of being kept
// alive by the pool.
const (
	maxPooledSlots   = 1 << 15 // slots per step (256 KiB)
	maxPooledScratch = 1 << 14 // boxes + coordinates per region.Scratch
	maxPooledFirsts  = 1 << 12 // first-step survivors (320 KiB)
)

var framePool = sync.Pool{New: func() any { return new(execFrame) }}

// acquireFrame takes a frame from the pool and readies it for one run (or
// one parallel worker) of p. env and envBox are copied: the frame binds
// and unbinds retrieval variables in its own copies.
func acquireFrame(p *Plan, ctl *execCtl, opts Options, alg *region.Algebra, layers []*spatialdb.Layer, k int, env []boolalg.Element, envBox []bbox.Box, emit func(Solution) bool) *execFrame {
	f := framePool.Get().(*execFrame)
	f.p, f.ctl, f.opts, f.layers, f.k, f.emit = p, ctl, opts, layers, k, emit
	f.env = append(f.env[:0], env...)
	f.envBox = append(f.envBox[:0], envBox...)
	n := len(p.Steps)
	f.tuple = slices.Grow(f.tuple[:0], n)[:n]
	f.out = slices.Grow(f.out[:0], n)[:n]
	for len(f.steps) < n {
		i := len(f.steps)
		f.steps = append(f.steps, stepFrame{})
		f.steps[i].visit = func(o spatialdb.Object) bool { return f.consider(i, o) }
	}
	for i := range f.steps[:n] {
		f.steps[i].alg = alg.Bind(&f.steps[i].scr)
	}
	f.checkIn = alg.Bind(&f.check)
	return f
}

// release returns the frame's statistics and puts the frame back in the
// pool with everything that references the store, the plan or the caller
// cleared. The run's index cost is folded into the layer counters here —
// once per run, not once per probe.
func (f *execFrame) release() Stats {
	for i := range f.steps[:len(f.p.Steps)] {
		sf := &f.steps[i]
		if sf.db.Queries > 0 {
			f.layers[i].AddStats(sf.db)
			f.stats.DB.Add(sf.db)
			sf.db = spatialdb.Stats{}
		}
		clear(sf.exact.P)
		clear(sf.exact.Q)
		sf.exact.Lower, sf.exact.Upper = nil, nil
		if cap(sf.slots) > maxPooledSlots {
			sf.slots = nil
		}
		if sf.scr.Cap() > maxPooledScratch {
			sf.scr = region.Scratch{}
		}
	}
	if f.check.Cap() > maxPooledScratch {
		f.check = region.Scratch{}
	}
	clear(f.env)
	clear(f.envBox)
	clear(f.tuple)
	clear(f.out)
	clear(f.firsts)
	if f.firsts = f.firsts[:0]; cap(f.firsts) > maxPooledFirsts {
		f.firsts = nil
	}
	stats := f.stats
	f.p, f.ctl, f.layers, f.emit = nil, nil, nil, nil
	f.stats, f.gather = Stats{}, false
	framePool.Put(f)
	return stats
}

// run is the incremental recursion from step i: evaluate the step's box
// functions against the bound prefix, issue ONE range query, filter and
// extend. The exact filter's formula values depend only on the prefix, so
// they are evaluated once here and each candidate pays only the
// containment/overlap predicates. Cancellation is polled every
// cancelCheckEvery candidates and unwinds the whole recursion via the
// visit callbacks' return value.
func (f *execFrame) run(i int) {
	if i == len(f.p.Steps) {
		f.final()
		return
	}
	sp := &f.p.Steps[i]
	sf := &f.steps[i]
	if f.opts.UseIndex {
		// The spec prune comes first: a statically unsatisfiable prefix must
		// not pay the formula evaluation.
		spec, ok := sp.SpecInto(f.k, f.envBox, &sf.spec)
		if !ok {
			return // this prefix admits no extension
		}
		f.bindExact(i)
		if !f.joinExactLower(i, &spec) {
			return // the exact lower bound lies outside the box bounds
		}
		sf.db.Add(f.layers[i].SearchInto(spec, &sf.slots, sf.visit))
	} else {
		f.bindExact(i)
		f.layers[i].All(sf.visit)
	}
}

// bindExact evaluates step i's solved constraint against the bound prefix
// into the step's scratch, replacing the previous prefix's values.
func (f *execFrame) bindExact(i int) {
	if !f.opts.UseExact {
		return
	}
	sf := &f.steps[i]
	sf.scr.Reset()
	f.p.Form.Steps[i].ValuesInto(&sf.alg, f.env, &sf.exact)
}

// joinExactLower tightens step i's range query with the exact lower
// bound bindExact just evaluated: every candidate x must satisfy
// Lower ⊑ x, so ⌈Lower ∧ u⌉ ⊑ ⌈x⌉ (region.Algebra.LowerBoxInto). Algorithm
// 2 approximates a lower bound with a complemented term by ∅; the exact
// value has no such gap. It reports false when the joined spec can match
// no box, and the prefix is pruned without a probe.
//
//boolq:noalloc
func (f *execFrame) joinExactLower(i int, spec *bbox.RangeSpec) bool {
	sf := &f.steps[i]
	if !f.opts.UseExact || !sf.alg.LowerBoxInto(sf.exact.Lower, &sf.spec.exact) || sf.spec.exact.IsEmpty() {
		return true
	}
	spec.Lower.JoinInto(sf.spec.exact, &sf.spec.lower)
	spec.Lower = sf.spec.lower
	return !spec.Unsatisfiable()
}

// consider is step i's candidate callback: exact-filter o against the
// step's values and, if it passes, extend the tuple and recurse (or
// gather it).
func (f *execFrame) consider(i int, o spatialdb.Object) bool {
	f.stats.Candidates++
	if f.stats.Candidates%cancelCheckEvery == 0 {
		f.ctl.poll()
	}
	if f.ctl.halted() {
		return false
	}
	sf := &f.steps[i]
	if f.opts.UseExact && !f.p.Form.Steps[i].SatisfiedWith(&sf.alg, sf.exact, o.Reg) {
		f.stats.ExactRejects++
		return true
	}
	f.stats.Extended++
	if f.gather {
		f.firsts = append(f.firsts, o)
		return true
	}
	f.extend(i, o)
	return !f.ctl.halted()
}

// extend binds o to step i, runs the steps below it and unbinds it.
func (f *execFrame) extend(i int, o spatialdb.Object) {
	v := f.p.Steps[i].Var
	f.tuple[i] = o
	f.env[v] = o.Reg
	f.envBox[v] = o.Box
	f.run(i + 1)
	f.env[v] = nil
	f.envBox[v] = bbox.Box{}
}

// final verifies a complete tuple against the original system and emits
// it if a solution slot is still available under the limit. It polls
// cancellation unconditionally — the poll is free next to the exact
// verification, and it guarantees a context cancelled from inside a
// RunStream yield is honored before the next solution is emitted.
func (f *execFrame) final() {
	if f.ctl.poll() {
		return
	}
	f.stats.FinalChecked++
	f.check.Reset()
	if !f.p.Query.Sys.Satisfied(&f.checkIn, f.env) {
		f.stats.FinalRejected++
		return
	}
	if !f.ctl.reserve() {
		return
	}
	f.stats.Solutions++
	objs := f.tuple
	if f.p.outPos != nil {
		for i, o := range f.tuple {
			f.out[f.p.outPos[i]] = o
		}
		objs = f.out
	}
	if !f.emit(Solution{Objects: objs}) {
		f.ctl.stopped.Store(true)
	}
}

// Run executes the compiled plan: parameters are bound, the ground
// (parameter-only) residual is checked once, then solution tuples are
// built incrementally with per-step range queries and filters per opts.
// Every complete tuple is verified against the original system in the
// exact region algebra regardless of opts, so all configurations return
// the same solutions.
//
// Run holds the store's read guard for the whole execution, so it is safe
// to call from many goroutines while writers mutate the store through
// Insert/Remove; a plan is immutable after Compile and may be reused (and
// cached) across any number of concurrent Runs.
func (p *Plan) Run(store *spatialdb.Store, params map[string]*region.Region, opts Options) (*Result, error) {
	return p.RunCtx(context.Background(), store, params, opts)
}

// RunCtx is Run bounded by a context and Options.Limit: RunStream's
// solutions collected in depth-first order, a cancelled or capped run's
// partial result flagged Stats.Cancelled/Stats.Truncated, not an error.
func (p *Plan) RunCtx(ctx context.Context, store *spatialdb.Store, params map[string]*region.Region, opts Options) (*Result, error) {
	return p.collect(ctx, store, params, opts, 1)
}

// collect runs RunStream and keeps a clone of every solution it lends.
func (p *Plan) collect(ctx context.Context, store *spatialdb.Store, params map[string]*region.Region, opts Options, workers int) (*Result, error) {
	res := &Result{}
	stats, err := p.RunStream(ctx, store, params, opts, workers, func(s Solution) bool {
		res.Solutions = append(res.Solutions, s.Clone())
		return true
	})
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}

// RunStream is the plan executor RunCtx and RunParallelCtx collect from.
// It hands each solution to yield as it is found instead of buffering the
// result set — the executor needs O(steps) memory regardless of how many
// tuples match, and allocates nothing per solution: the Solution passed to
// yield borrows the executor's tuple buffer and is valid only until yield
// returns (Clone it to keep it). Returning false from yield stops the
// search early (without flagging the run truncated or cancelled). The
// callback is invoked while the store's read guard is held, so a yield
// that blocks indefinitely pins the store against writers; bound it with
// the context. workers > 1 splits the first step's survivors across that
// many goroutines (fanOut); yield still sees one solution at a time.
func (p *Plan) RunStream(ctx context.Context, store *spatialdb.Store, params map[string]*region.Region, opts Options, workers int, yield func(Solution) bool) (Stats, error) {
	alg := region.NewAlgebra(store.Universe())
	env, err := bindParams(p.Query, alg, params)
	if err != nil {
		return Stats{}, err
	}
	var stats Stats
	ctl := newExecCtl(ctx, opts.Limit)
	if ctl.poll() { // already cancelled: don't touch the read guard
		ctl.finish(&stats)
		return stats, nil
	}
	store.RLock()
	defer store.RUnlock()
	layers, err := resolveLayers(store, stepLayerNames(p))
	if err != nil {
		ctl.finish(&stats)
		return stats, err
	}

	if p.Form.Unsat || !p.Form.Ground.Satisfied(alg, env) {
		stats.GroundFailed = true
		ctl.finish(&stats)
		return stats, nil
	}

	f := acquireFrame(p, ctl, opts, alg, layers, store.K(), env, envBoxes(alg, env), yield)
	if workers > 1 && len(p.Steps) > 0 {
		stats = f.fanOut(workers, alg)
	} else {
		f.run(0)
		stats = f.release()
	}
	ctl.finish(&stats)
	return stats, nil
}

// envBoxes returns the bounding box of every bound variable of env.
func envBoxes(alg *region.Algebra, env []boolalg.Element) []bbox.Box {
	out := make([]bbox.Box, len(env))
	for v, e := range env {
		if e != nil {
			out[v] = alg.Region(e).BoundingBox()
		}
	}
	return out
}

// CompileAndRun is the one-call convenience: compile with Compile, execute
// with DefaultOptions.
func CompileAndRun(q *Query, store *spatialdb.Store, params map[string]*region.Region) (*Result, error) {
	plan, err := Compile(q, store)
	if err != nil {
		return nil, err
	}
	return plan.Run(store, params, DefaultOptions)
}
