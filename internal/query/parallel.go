package query

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/region"
	"repro/internal/spatialdb"
)

// RunParallel is Run with the first step's survivors split across the
// given number of worker goroutines (RunStream's workers). Solutions and
// statistics are the serial executor's, solutions sorted by object ids;
// only wall-clock time changes.
func (p *Plan) RunParallel(store *spatialdb.Store, params map[string]*region.Region, opts Options, workers int) (*Result, error) {
	return p.RunParallelCtx(context.Background(), store, params, opts, workers)
}

// RunParallelCtx is RunParallel bounded by a context and Options.Limit,
// flagging partial results as RunCtx does. Which Limit solutions a capped
// run returns depends on scheduling; their count and the flags do not.
func (p *Plan) RunParallelCtx(ctx context.Context, store *spatialdb.Store, params map[string]*region.Region, opts Options, workers int) (*Result, error) {
	res, err := p.collect(ctx, store, params, opts, workers)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(res.Solutions, func(a, b Solution) int {
		return slices.CompareFunc(a.Objects, b.Objects, func(x, y spatialdb.Object) int { return cmp.Compare(x.ID, y.ID) })
	})
	return res, nil
}

// fan is the state the workers of one parallel run share.
type fan struct {
	mu      sync.Mutex
	yield   func(Solution) bool
	stopped bool         //boolq:guardedby mu
	stats   Stats        //boolq:guardedby mu
	next    atomic.Int64 // the next unclaimed first-step survivor
	wg      sync.WaitGroup
}

// fanOut is RunStream with workers > 1. The frame gathers the first
// step's survivors through its own run/consider, then it and up to
// workers-1 more frames, one goroutine each, claim them one at a time and
// extend them through the remaining steps. It returns the summed
// statistics with every frame released.
func (f *execFrame) fanOut(workers int, alg *region.Algebra) Stats {
	f.gather = true
	f.run(0)
	f.gather = false
	fo := &fan{yield: f.emit}
	f.emit = fo.lend
	for range min(workers, len(f.firsts)) - 1 {
		w := acquireFrame(f.p, f.ctl, f.opts, alg, f.layers, f.k, f.env, f.envBox, f.emit)
		fo.wg.Add(1)
		go func() {
			defer fo.wg.Done()
			fo.drain(w, f.firsts)
			st := w.release()
			fo.mu.Lock()
			fo.stats.add(st)
			fo.mu.Unlock()
		}()
	}
	fo.drain(f, f.firsts)
	fo.wg.Wait() // the workers read f.firsts until here
	stats := f.release()
	fo.mu.Lock()
	defer fo.mu.Unlock()
	stats.add(fo.stats)
	return stats
}

func (fo *fan) drain(w *execFrame, firsts []spatialdb.Object) {
	for !w.ctl.poll() && !w.ctl.halted() {
		i := int(fo.next.Add(1)) - 1
		if i >= len(firsts) {
			return
		}
		w.extend(0, firsts[i])
	}
}

// lend is every worker's emit: the consumer's yield sees one lent tuple
// at a time, as from a serial run, and is not called again once it has
// returned false.
func (fo *fan) lend(s Solution) bool {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	fo.stopped = fo.stopped || !fo.yield(s)
	return !fo.stopped
}
