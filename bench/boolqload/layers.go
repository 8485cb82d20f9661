package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/bench/gen"
	"repro/bench/harness"
	"repro/bench/trace"
	"repro/internal/bbox"
	"repro/internal/lang"
	"repro/internal/query"
	"repro/internal/region"
	"repro/internal/server"
	"repro/internal/spatialdb"
	"repro/internal/wal"
)

// The traced run measures the layers in-process, in one goroutine, after
// the servers of the wire run have been killed: it builds the same store
// from the same generator, replays the first requests of the same stream
// against it, and times each call into a layer's public functions.

const (
	// replayed is how many requests of the stream the in-process passes
	// replay; variantRuns is how many of them the executor variants
	// (no exact filter, two workers, allocation counts) re-run.
	replayed    = 1000
	variantRuns = 300
	// compileProbes bounds how many distinct texts the compile probe
	// compiles.
	compileProbes = 256
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// p50us and p99us return percentiles of a duration list in microseconds.
func p50us(ds []time.Duration) float64 { return pctUS(ds, 0.50) }
func p99us(ds []time.Duration) float64 { return pctUS(ds, 0.99) }

func pctUS(ds []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return us(harness.Percentile(s, q))
}

// allocsDuring runs f and returns how many heap objects and bytes it
// allocated.
func allocsDuring(f func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// serve sends one request to the handler in-process and returns how long
// ServeHTTP took and the status it answered.
func serve(h http.Handler, method, path string, body []byte) (time.Duration, int) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	return time.Since(start), rec.Code
}

// httpFloor adds the median round trip of the server's cheapest request
// (GET /healthz, one client, no other load): the cost of the client, the
// loopback and net/http on both sides with no handler work. Whatever
// server.http_us shows above this floor is waiting — for a core, for the
// store's lock, or for the admission gate — which cannot be seen from
// outside the program.
func httpFloor(rep *report, p *harness.Proc) {
	c := harness.NewClient(requestTimeout)
	defer c.Close()
	var took []time.Duration
	for i := 0; i < 300; i++ {
		t := time.Now()
		if status, _, err := c.Do(http.MethodGet, p.URL()+"/healthz", nil); err != nil || status != http.StatusOK {
			return
		}
		took = append(took, time.Since(t))
	}
	rep.add("server.http_floor_us", p50us(took), "us")
}

// pipeline re-enacts what the server's query handler does between
// decoding a request and encoding the reply, one public call per layer,
// with the same plan cache and tuner the server uses.
type pipeline struct {
	store *spatialdb.Store
	cache *server.PlanCache
	tuner *query.Tuner
}

func newPipeline(store *spatialdb.Store) *pipeline {
	return &pipeline{store: store, cache: server.NewPlanCache(0), tuner: query.NewTuner(0)}
}

// stages are one request's stage times; parse and compile are zero on a
// plan-cache hit.
type stages struct {
	normalize, parse, compile, run time.Duration
}

func (s stages) total() time.Duration { return s.normalize + s.parse + s.compile + s.run }

func (p *pipeline) plan(rec *trace.Recorder, root, i int, q gen.Query, st *stages) (*query.Plan, string, error) {
	id := rec.Begin("lang.Normalize", root, i)
	t := time.Now()
	norm, err := lang.Normalize(q.Text)
	st.normalize = time.Since(t)
	rec.End(id)
	if err != nil {
		return nil, "", err
	}
	epoch := p.store.Epoch()
	if plan, ok := p.cache.Get(norm, 0, epoch); ok {
		return plan, norm, nil
	}
	id = rec.Begin("lang.Parse", root, i)
	t = time.Now()
	parsed, err := lang.Parse(norm)
	st.parse = time.Since(t)
	rec.End(id)
	if err != nil {
		return nil, "", err
	}
	id = rec.Begin("query.CompileAdaptive", root, i)
	t = time.Now()
	plan, err := query.CompileAdaptive(parsed, p.store, query.AdaptiveOptions{
		Params: q.Params(), Tuner: p.tuner, TunerKey: norm, Epoch: epoch,
	})
	st.compile = time.Since(t)
	rec.End(id)
	if err != nil {
		return nil, "", err
	}
	p.cache.Put(norm, 0, epoch, plan)
	return plan, norm, nil
}

// do runs one request through the pipeline. rec may be nil.
func (p *pipeline) do(rec *trace.Recorder, i int, q gen.Query) (stages, *query.Result, error) {
	var st stages
	root := rec.Begin("request", 0, i)
	defer rec.End(root)
	plan, norm, err := p.plan(rec, root, i, q, &st)
	if err != nil {
		return st, nil, err
	}
	opts := query.DefaultOptions
	opts.Limit = q.Limit
	id := rec.Begin("query.Plan.RunCtx", root, i)
	t := time.Now()
	res, err := plan.RunCtx(context.Background(), p.store, q.Params(), opts)
	st.run = time.Since(t)
	rec.End(id)
	if err != nil {
		return st, nil, err
	}
	p.tuner.Observe(norm, plan.OrderKey(), p.store.Epoch(), res.Stats)
	return st, res, nil
}

// replicate applies one shipped insert to the store, as the replica's
// fetch loop does, and returns how long ApplyReplicated took.
func replicate(store *spatialdb.Store, w gen.Write) (time.Duration, error) {
	m := &spatialdb.Mutation{Op: spatialdb.OpUpsert, Layer: w.Layer, Objects: []spatialdb.MutObject{
		{ID: store.NextID() + 1, Name: w.Name, Boxes: []bbox.Box{w.Box}},
	}}
	t := time.Now()
	err := store.ApplyReplicated(m)
	return time.Since(t), err
}

// traceQueries measures the read path's layers. wireP50 is the wire run's
// median latency in milliseconds, httpLoadPerObj the wire run's bulk-load
// time per object in microseconds. With readsPerWrite > 0 a replicated
// insert is applied after every that many reads, as on the replica.
func traceQueries(cfg *config, rep *report, d *gen.Dataset, stream func(int) gen.Query,
	wireP50, httpLoadPerObj float64, readsPerWrite int) error {

	t := time.Now()
	store, err := d.NewStore(spatialdb.RTree)
	if err != nil {
		return err
	}
	bulkPerObj := us(time.Since(t)) / float64(d.Objects())
	rep.add("spatialdb.bulk_us_per_obj", bulkPerObj, "us")
	rep.add("server.bulk_decode_us_per_obj", httpLoadPerObj-bulkPerObj, "us")

	reqs := make([]gen.Query, replayed)
	for i := range reqs {
		reqs[i] = stream(i)
	}
	// Every pass interleaves replicated inserts the same way; each uses
	// its own names, because re-inserting a name replaces the object and
	// rebuilds the layer's index.
	writes := 0
	var applied []time.Duration
	afterRead := func(i int) error {
		if readsPerWrite == 0 || (i+1)%readsPerWrite != 0 {
			return nil
		}
		w := gen.PacedWrite(cfg.seed, writes)
		w.Name = "t" + w.Name
		writes++
		took, err := replicate(store, w)
		applied = append(applied, took)
		return err
	}

	// Pass 1: the whole handler, in-process.
	srv := server.New(store, server.Options{})
	served := make([]time.Duration, len(reqs))
	for i, q := range reqs {
		took, status := serve(srv, http.MethodPost, "/query", q.Body())
		if status != http.StatusOK {
			return fmt.Errorf("in-process /query %d answered %d", i, status)
		}
		served[i] = took
		if err := afterRead(i); err != nil {
			return err
		}
	}

	// Pass 2: the pipeline without spans; pass 3: with them.
	var untraced time.Duration
	pipe := newPipeline(store)
	for i, q := range reqs {
		st, _, err := pipe.do(nil, i, q)
		if err != nil {
			return err
		}
		untraced += st.total()
		if err := afterRead(i); err != nil {
			return err
		}
	}
	rec := trace.New(len(reqs) * 5)
	pipe = newPipeline(store)
	per := make([]stages, len(reqs))
	var traced time.Duration
	var work query.Stats
	for i, q := range reqs {
		st, res, err := pipe.do(rec, i, q)
		if err != nil {
			return err
		}
		per[i] = st
		traced += st.total()
		work.Candidates += res.Stats.Candidates
		work.ExactRejects += res.Stats.ExactRejects
		work.FinalChecked += res.Stats.FinalChecked
		work.FinalRejected += res.Stats.FinalRejected
		work.Solutions += res.Stats.Solutions
		work.DB.Add(res.Stats.DB)
		if err := afterRead(i); err != nil {
			return err
		}
	}
	if err := rec.WriteFile(filepath.Join(cfg.outDir, rep.workload+".trace.json")); err != nil {
		return err
	}

	column := func(f func(stages) time.Duration) []time.Duration {
		out := make([]time.Duration, len(per))
		for i, st := range per {
			out[i] = f(st)
		}
		return out
	}
	codec := make([]time.Duration, len(per))
	for i, st := range per {
		codec[i] = served[i] - st.total()
	}
	serveP50, runP50, codecP50 := p50us(served), p50us(column(func(s stages) time.Duration { return s.run })), p50us(codec)
	normP50 := p50us(column(func(s stages) time.Duration { return s.normalize }))
	planP50 := p50us(column(func(s stages) time.Duration { return s.parse + s.compile }))
	httpUS := wireP50*1000 - serveP50
	rep.add("server.http_us", httpUS, "us")
	rep.add("server.codec_us", codecP50, "us")
	rep.add("lang.normalize_us", normP50, "us")
	rep.add("query.run_us", runP50, "us")
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rep.add("query.candidates_per_solution", ratio(work.Candidates, work.Solutions), "ratio")
	rep.add("query.exact_reject_ratio", ratio(work.ExactRejects, work.Candidates), "ratio")
	rep.add("query.final_reject_ratio", ratio(work.FinalRejected, work.FinalChecked), "ratio")
	rep.add("spatialdb.touched_per_returned", ratio(work.DB.Touched, work.DB.Returned), "ratio")
	rep.add("trace.overhead_ratio", float64(traced)/float64(untraced), "ratio")
	// Stage medians over every replayed request (a skipped stage counts
	// as zero) against the wire median: do the parts add up to the whole?
	rep.add("trace.sum_check_ratio", (httpUS+codecP50+normP50+planP50+runP50)/(wireP50*1000), "ratio")
	rep.add("trace.plan_share", planP50/serveP50, "ratio")
	rep.add("trace.exec_share", (runP50+codecP50)/serveP50, "ratio")
	if len(applied) > 0 {
		rep.add("repl.apply_us", p50us(applied), "us")
	}

	probeCompile(rep, store, reqs)
	return probeExecutor(rep, store, d, pipe, reqs[:min(variantRuns, len(reqs))])
}

// probeCompile times normalize, parse and adaptive compile once per
// distinct text among the replayed requests.
func probeCompile(rep *report, store *spatialdb.Store, reqs []gen.Query) {
	seen := map[string]bool{}
	var parse, compile []time.Duration
	var objects float64
	for _, q := range reqs {
		if seen[q.Text] || len(seen) >= compileProbes {
			continue
		}
		seen[q.Text] = true
		norm, err := lang.Normalize(q.Text)
		if err != nil {
			continue
		}
		t := time.Now()
		parsed, err := lang.Parse(norm)
		parse = append(parse, time.Since(t))
		if err != nil {
			continue
		}
		n, _ := allocsDuring(func() {
			t = time.Now()
			_, err = query.CompileAdaptive(parsed, store, query.AdaptiveOptions{Params: q.Params()})
			compile = append(compile, time.Since(t))
		})
		objects += n
	}
	rep.add("lang.parse_us", p50us(parse), "us")
	rep.add("query.compile_us", p50us(compile), "us")
	rep.add("query.compile_allocs", objects/float64(len(compile)), "count")
}

// probeExecutor re-runs the requests' cached plans with the executor's
// variants and probes the index directly.
func probeExecutor(rep *report, store *spatialdb.Store, d *gen.Dataset, pipe *pipeline, reqs []gen.Query) error {
	type job struct {
		plan   *query.Plan
		params map[string]*region.Region
		opts   query.Options
		window bbox.Box
	}
	jobs := make([]job, 0, len(reqs))
	for i, q := range reqs {
		var st stages
		plan, _, err := pipe.plan(nil, 0, i, q, &st)
		if err != nil {
			return err
		}
		opts := query.DefaultOptions
		opts.Limit = q.Limit
		jobs = append(jobs, job{plan, q.Params(), opts, q.Window})
	}
	ctx := context.Background()
	timeAll := func(run func(job) error) ([]time.Duration, error) {
		out := make([]time.Duration, len(jobs))
		for i, j := range jobs {
			t := time.Now()
			if err := run(j); err != nil {
				return nil, err
			}
			out[i] = time.Since(t)
		}
		return out, nil
	}
	full, err := timeAll(func(j job) error {
		_, err := j.plan.RunCtx(ctx, store, j.params, j.opts)
		return err
	})
	if err != nil {
		return err
	}
	// Without the exact filter a few joins run a hundred times longer;
	// only the median is reported, so those runs are cut short.
	noExact, err := timeAll(func(j job) error {
		o := j.opts
		o.UseExact = false
		cut, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
		defer cancel()
		_, err := j.plan.RunCtx(cut, store, j.params, o)
		return err
	})
	if err != nil {
		return err
	}
	two, err := timeAll(func(j job) error {
		_, err := j.plan.RunParallelCtx(ctx, store, j.params, j.opts, 2)
		return err
	})
	if err != nil {
		return err
	}
	objects, bytes := allocsDuring(func() {
		for _, j := range jobs {
			_, _ = j.plan.RunCtx(ctx, store, j.params, j.opts) // timed and checked above
		}
	})
	rep.add("region.exact_us", p50us(full)-p50us(noExact), "us")
	rep.add("query.parallel2_us", p50us(two), "us")
	rep.add("query.run_allocs_per_op", objects/float64(len(jobs)), "count")
	rep.add("query.run_bytes_per_op", bytes/float64(len(jobs)), "B")

	// One index probe per layer per request: everything whose bounding
	// box overlaps the request's window.
	var probes []time.Duration
	for _, j := range jobs {
		spec := bbox.AllSpec(2)
		spec.Overlaps = []bbox.Box{j.window}
		for _, l := range d.Layers {
			layer := store.Layer(l.Name)
			t := time.Now()
			layer.SearchStats(spec, func(spatialdb.Object) bool { return true })
			probes = append(probes, time.Since(t))
		}
	}
	rep.add("spatialdb.search_us_per_probe", p50us(probes), "us")
	return nil
}

// traceReplication derives the replication link's share of the
// visibility delay: what is left of the median once the replica's apply
// and the expected half poll step are taken out.
func traceReplication(rep *report, visibleP50ms float64) {
	rep.add("repl.wire_us", visibleP50ms*1000-rep.get("repl.apply_us")-us(pollEvery)/2, "us")
}

// traceWrites measures the write path's layers. killedDir is the data
// dir the wire run's server was killed on.
func traceWrites(cfg *config, rep *report, d *gen.Dataset, killedDir string, wireP50, httpLoadPerObj float64) error {
	// Recovery first: the directory is exactly as SIGKILL left it.
	dbOpts := func(policy wal.Policy) wal.DBOptions {
		return wal.DBOptions{
			Log: wal.Options{Policy: policy}, Kind: spatialdb.RTree, Universe: d.Universe,
			CheckpointInterval: -1, CheckpointBytes: -1, // checkpoints only when asked
		}
	}
	t := time.Now()
	killed, err := wal.OpenDB(killedDir, dbOpts(wal.SyncAlways))
	if err != nil {
		return fmt.Errorf("reopening the killed dir: %w", err)
	}
	if n := killed.Replayed(); n > 0 {
		rep.add("wal.replay_us_per_rec", us(time.Since(t))/float64(n), "us")
	}
	if err := killed.Close(); err != nil {
		return err
	}

	t = time.Now()
	store, err := d.NewStore(spatialdb.RTree)
	if err != nil {
		return err
	}
	bulkPerObj := us(time.Since(t)) / float64(d.Objects())
	rep.add("spatialdb.bulk_us_per_obj", bulkPerObj, "us")
	rep.add("server.bulk_decode_us_per_obj", httpLoadPerObj-bulkPerObj, "us")

	dir := func(name string) (string, error) { return cfg.dataDir("trace-" + name) }
	openLog := func(name string, policy wal.Policy) (*wal.Log, error) {
		path, err := dir(name)
		if err != nil {
			return nil, err
		}
		return wal.Open(path, wal.Options{Policy: policy})
	}
	always, err := openLog("always", wal.SyncAlways)
	if err != nil {
		return err
	}
	defer always.Close()
	never, err := openLog("never", wal.SyncNever)
	if err != nil {
		return err
	}
	defer never.Close()

	// The write path re-enacted: apply to the store (no sink), encode the
	// mutation, append it to a log that fsyncs every record. Pass 0 runs
	// without spans, pass 1 with them; each pass inserts its own names.
	var untraced, traced time.Duration
	var apply, encode, appendSync, appendOnly []time.Duration
	var bytes int
	rec := trace.New(replayed * 4)
	for pass, r := range []*trace.Recorder{nil, rec} {
		for i := 0; i < replayed; i++ {
			w := gen.IngestOp(cfg.seed, 10+pass, i)
			root := r.Begin("write", 0, i)
			t0 := time.Now()

			id := r.Begin("spatialdb.Store.Upsert", root, i)
			t := time.Now()
			o, _, err := store.Upsert(w.Layer, w.Name, region.FromBox(w.Box))
			dApply := time.Since(t)
			r.End(id)
			if err != nil {
				return err
			}

			id = r.Begin("spatialdb.AppendMutation", root, i)
			t = time.Now()
			payload := spatialdb.AppendMutation(nil, &spatialdb.Mutation{
				Op: spatialdb.OpUpsert, Layer: w.Layer,
				Objects: []spatialdb.MutObject{{ID: o.ID, Name: o.Name, Boxes: o.Reg.Boxes()}},
			})
			dEncode := time.Since(t)
			r.End(id)

			id = r.Begin("wal.Log.Append", root, i)
			t = time.Now()
			_, err = always.Append(payload)
			dSync := time.Since(t)
			r.End(id)
			if err != nil {
				return err
			}
			r.End(root)
			if pass == 0 {
				untraced += time.Since(t0)
				continue
			}
			traced += time.Since(t0)
			apply, encode, appendSync = append(apply, dApply), append(encode, dEncode), append(appendSync, dSync)
			bytes += len(payload)
			t = time.Now()
			if _, err := never.Append(payload); err != nil {
				return err
			}
			appendOnly = append(appendOnly, time.Since(t))
		}
	}
	if err := rec.WriteFile(filepath.Join(cfg.outDir, rep.workload+".trace.json")); err != nil {
		return err
	}
	applyUS, encodeUS, appendUS := p50us(apply), p50us(encode), p50us(appendOnly)
	fsyncUS := p50us(appendSync) - appendUS
	rep.add("spatialdb.apply_us", applyUS, "us")
	rep.add("spatialdb.mutation_encode_us", encodeUS, "us")
	rep.add("spatialdb.mutation_bytes", float64(bytes)/float64(len(apply)), "B")
	rep.add("wal.append_us", appendUS, "us")
	rep.add("wal.fsync_us", fsyncUS, "us")
	rep.add("wal.fsync_p99_us", p99us(appendSync)-p99us(appendOnly), "us")
	rep.add("trace.overhead_ratio", float64(traced)/float64(untraced), "ratio")

	// The same write through the real durable store, then through the
	// whole handler over it.
	dbDir, err := dir("db")
	if err != nil {
		return err
	}
	db, err := wal.OpenDB(dbDir, dbOpts(wal.SyncAlways))
	if err != nil {
		return err
	}
	defer db.Close()
	if err := d.Populate(db.Store(), gen.BulkBatch); err != nil {
		return err
	}
	var durable, served []time.Duration
	for i := 0; i < replayed; i++ {
		w := gen.IngestOp(cfg.seed, 20, i)
		t := time.Now()
		if _, _, err := db.Store().Upsert(w.Layer, w.Name, region.FromBox(w.Box)); err != nil {
			return err
		}
		durable = append(durable, time.Since(t))
	}
	// The handler over the durable store gives the in-process whole; the
	// handler over the plain store, whose median the fsync does not
	// swamp, gives the handler's own share once apply is taken out.
	var servedPlain []time.Duration
	srv, plain := server.New(db.Store(), server.Options{Durable: db}), server.New(store, server.Options{})
	for i := 0; i < replayed; i++ {
		w := gen.IngestOp(cfg.seed, 21, i)
		took, status := serve(srv, http.MethodPut, w.Path(), w.Body())
		tookPlain, statusPlain := serve(plain, http.MethodPut, w.Path(), w.Body())
		if status != http.StatusCreated || statusPlain != http.StatusCreated {
			return fmt.Errorf("in-process PUT %d answered %d and %d", i, status, statusPlain)
		}
		served, servedPlain = append(served, took), append(servedPlain, tookPlain)
	}
	durableUS, serveUS := p50us(durable), p50us(served)
	httpUS, codecUS := wireP50*1000-serveUS, p50us(servedPlain)-applyUS
	rep.add("wal.durable_upsert_us", durableUS, "us")
	rep.add("server.http_us", httpUS, "us")
	rep.add("server.codec_us", codecUS, "us")
	rep.add("trace.sum_check_ratio", (httpUS+codecUS+applyUS+encodeUS+appendUS+fsyncUS)/(wireP50*1000), "ratio")

	t = time.Now()
	lsn, err := db.Checkpoint()
	if err != nil {
		return err
	}
	rep.add("wal.checkpoint_ms", float64(time.Since(t))/float64(time.Millisecond), "ms")
	if snaps, _ := filepath.Glob(filepath.Join(dbDir, "snap-*.bqs")); len(snaps) > 0 {
		sort.Strings(snaps)
		newest := snaps[len(snaps)-1]
		if info, err := os.Stat(newest); err == nil && strings.Contains(newest, fmt.Sprint(lsn)) {
			rep.add("wal.checkpoint_bytes", float64(info.Size()), "B")
		}
	}
	return nil
}
