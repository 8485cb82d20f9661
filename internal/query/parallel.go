package query

import (
	"context"
	"sort"
	"sync"

	"repro/internal/bbox"
	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/triangular"
)

// RunParallel executes the plan like Run but fans the first retrieval
// step's candidates out over the given number of worker goroutines, each
// continuing the remaining steps independently. Results and statistics are
// identical to the serial executor (solutions are returned in a canonical
// order sorted by object ids); only wall-clock time changes. Workers ≤ 1
// falls back to Run.
//
// Safe because all shared state is read-only during execution: the plan,
// the store's layers (Search is concurrency-safe) and the parameter
// regions. Each worker owns its environment and tuple buffers. Like Run,
// RunParallel holds the store's read guard for the whole execution, so
// concurrent writers cannot interleave with its range queries.
func (p *Plan) RunParallel(store *spatialdb.Store, params map[string]*region.Region, opts Options, workers int) (*Result, error) {
	return p.RunParallelCtx(context.Background(), store, params, opts, workers)
}

// RunParallelCtx is RunParallel bounded by a context and Options.Limit.
// Cancellation latches a run-wide flag that every worker observes within
// cancelCheckEvery of its own candidates; the limit is enforced with a
// shared reservation counter, so at most Limit solutions are returned in
// total (which Limit of the full solution set is scheduling-dependent,
// unlike the serial executor's first-in-DFS-order prefix — the count and
// the Truncated/Cancelled flags agree across executors). Partial results
// are returned with the flags set, not an error.
func (p *Plan) RunParallelCtx(ctx context.Context, store *spatialdb.Store, params map[string]*region.Region, opts Options, workers int) (*Result, error) {
	if workers <= 1 || len(p.Steps) == 0 {
		res, err := p.RunCtx(ctx, store, params, opts)
		if err != nil {
			return nil, err
		}
		sortSolutions(res.Solutions)
		return res, nil
	}
	alg := region.NewAlgebra(store.Universe())
	env, err := bindParams(p.Query, alg, params)
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
	layers, err := resolveLayers(store, stepLayerNames(p))
	if err != nil {
		return nil, err
	}

	if p.Form.Unsat || !p.Form.Ground.Satisfied(alg, env) {
		res.Stats.GroundFailed = true
		ctl.finish(&res.Stats)
		return res, nil
	}

	k := store.K()
	envBox := envBoxes(alg, env)

	// Stage 1: gather the first step's candidates serially (one range
	// query), applying the same filters the serial executor would — with
	// the exact filter's prefix-constant values hoisted out of the scan.
	sp := p.Steps[0]
	step := p.Form.Steps[0]
	var exact triangular.StepValues // assigned after the spec prune below
	var scr region.Scratch          // owns exact's elements, as a frame's step scratch does
	first := alg.Bind(&scr)
	var firsts []spatialdb.Object
	firstStats := Stats{}
	gather := func(o spatialdb.Object) bool {
		firstStats.Candidates++
		if firstStats.Candidates%cancelCheckEvery == 0 {
			ctl.poll()
		}
		if ctl.halted() {
			return false
		}
		if opts.UseExact && !step.SatisfiedWith(&first, exact, o.Reg) {
			firstStats.ExactRejects++
			return true
		}
		firstStats.Extended++
		firsts = append(firsts, o)
		return true
	}
	if opts.UseIndex {
		spec, ok := sp.Spec(k, envBox)
		if !ok {
			ctl.finish(&res.Stats)
			return res, nil
		}
		if opts.UseExact {
			exact = step.Values(&first, env)
		}
		var ids []int64
		db := layers[0].SearchInto(spec, &ids, gather)
		layers[0].AddStats(db)
		firstStats.DB.Add(db)
	} else {
		if opts.UseExact {
			exact = step.Values(&first, env)
		}
		layers[0].All(gather)
	}

	// Stage 2: workers drain the candidate list, each with a private
	// execFrame over the shared execCtl.
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next int
	)
	res.Stats = firstStats
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var wsols []Solution
			f := acquireFrame(p, ctl, opts, alg, layers, k, env, envBox,
				func(s Solution) bool { wsols = append(wsols, s.Clone()); return true })
			for {
				if ctl.poll() || f.halted() {
					break
				}
				mu.Lock()
				if next >= len(firsts) {
					mu.Unlock()
					break
				}
				o := firsts[next]
				next++
				mu.Unlock()

				f.tuple[0] = o
				f.env[sp.Var] = o.Reg
				f.envBox[sp.Var] = o.Box
				f.run(1)
				f.env[sp.Var] = nil
				f.envBox[sp.Var] = bbox.Box{}
			}
			wstats := f.release()
			mu.Lock()
			mergeStats(&res.Stats, wstats)
			res.Solutions = append(res.Solutions, wsols...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ctl.finish(&res.Stats)
	sortSolutions(res.Solutions)
	return res, nil
}

func mergeStats(dst *Stats, src Stats) {
	dst.Candidates += src.Candidates
	dst.ExactRejects += src.ExactRejects
	dst.Extended += src.Extended
	dst.FinalChecked += src.FinalChecked
	dst.FinalRejected += src.FinalRejected
	dst.Solutions += src.Solutions
	dst.DB.Add(src.DB)
}

// sortSolutions orders tuples by their object ids, a canonical order
// independent of worker scheduling.
func sortSolutions(sols []Solution) {
	sort.Slice(sols, func(i, j int) bool {
		a, b := sols[i].Objects, sols[j].Objects
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k].ID != b[k].ID {
				return a[k].ID < b[k].ID
			}
		}
		return len(a) < len(b)
	})
}
