package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/bench/gen"
	"repro/bench/harness"
	"repro/internal/spatialdb"
)

// workloads maps each workload name to its runner. BENCHMARK.json lists
// the same names with the reason each exists.
var workloads = map[string]func(*config) (*report, error){
	"query_hot":      runQueryHot,
	"query_cold":     runQueryCold,
	"ingest_durable": runIngestDurable,
	"mixed_replica":  runMixedReplica,
}

// workloadOrder is the order a full set runs in.
var workloadOrder = []string{"query_hot", "query_cold", "ingest_durable", "mixed_replica"}

// setupRepeats is how many times a run sets the system up to report the
// median set-up time. Loading the city takes seconds; starting a server
// on the town takes milliseconds, most of them the operating system's,
// so its median needs many more set-ups to hold still, and can afford
// them. A traced run reports no set-up time and sets up once.
func (cfg *config) setupRepeats(d *gen.Dataset) int {
	switch {
	case cfg.trace:
		return 1
	case d.Objects() > 100000:
		return 3
	case d.Objects() > 1000:
		return 9
	default:
		return 41
	}
}

// endToEnd adds the metrics every workload reports: set-up time,
// throughput of all successful operations (allOK[i] of them in segment
// i), latency of the workload's closed-loop operation, server CPU per
// 1,000 operations and the servers' peak memory.
func endToEnd(rep *report, setupS float64, w *window, closedLoop harness.Summary, allOK []int, rssMB float64) {
	seg := w.dur.Seconds() / segments
	var ops []float64
	total := 0
	for _, n := range allOK {
		ops = append(ops, float64(n)/seg)
		total += n
	}
	rep.add("setup_s", setupS, "s")
	rep.addSpread("ops_per_s", harness.SpreadOf(ops, total), "1/s")
	rep.addSpread("lat_p50_ms", closedLoop.P50ms, "ms")
	rep.addSpread("cpu_s_per_kop", w.cpuPerKop(allOK), "s")
	rep.add("rss_peak_mb", rssMB, "MB")
	// Recorded, not gated: between runs on this machine the tail moves by
	// more than any bound the contract allows.
	rep.addSpread("server.lat_p99_ms", closedLoop.P99ms, "ms")
	// The generator may use a large share of a mostly idle machine (the
	// durable-ingest server waits on fsync, not on the CPU); it spoils a
	// run only when it takes cores the servers would otherwise have had.
	share, busy := w.genCPUShare()
	note := fmt.Sprintf("machine %.0f%% busy", busy*100)
	if share > 0.3 && busy > 0.9 {
		note = "INVALID: the generator used more than 0.3 of a saturated machine"
		rep.problems = append(rep.problems, "gen.cpu_share above 0.3 with no idle CPU")
	}
	rep.addNote("gen.cpu_share", share, "ratio", note)
}

// serverCounters adds the per-layer counts that come from /stats deltas
// across the window, for the server the reads went to.
func serverCounters(rep *report, w *window, p *harness.Proc, logs []*readerLog) {
	b, a := w.before[p], w.after[p]
	hits, misses := a.Cache.Hits-b.Cache.Hits, a.Cache.Misses-b.Cache.Misses
	if hits+misses > 0 {
		rep.add("server.plancache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	}
	var bytes, n int64
	for _, l := range logs {
		bytes += l.respBytes
		n += l.responses
	}
	if n > 0 {
		rep.add("server.resp_bytes", float64(bytes)/float64(n), "B")
	}
	shed := 0.0
	if a.Shed != nil {
		shed = float64(a.Shed.Total)
	}
	rep.add("server.shed_count", shed, "count")
}

// runQueries is the shape query_hot and query_cold share: an in-memory
// server, closed-loop readers walking one stream, and an answer check
// against an independent in-process reference: one response in keepEvery
// is compared with a store of kind refKind and, as far as naiveBudget
// reaches, with brute force. keepEvery shares no factor with the length
// of the stream's cycle of texts, or only some of the texts would ever
// be checked.
func runQueries(cfg *config, name string, d *gen.Dataset, stream func(int) gen.Query,
	keepEvery int, refKind spatialdb.IndexKind, naiveBudget time.Duration) (*report, error) {

	rep := &report{workload: name, seed: cfg.seed}
	bodies := d.BulkBodies()
	e, setupS, err := setUp(cfg.setupRepeats(d), func() (*env, error) { return cfg.memoryEnv(d, bodies) })
	if err != nil {
		return nil, err
	}
	defer e.close()

	if cfg.trace {
		httpFloor(rep, e.reader)
	}
	var next atomic.Int64
	logs := make([]*readerLog, readers)
	loops := make([]loop, readers)
	for i := range loops {
		logs[i] = &readerLog{keepEvery: keepEvery}
		loops[i] = queryLoop(e.reader, &next, stream, logs[i])
	}
	w, err := measure(e.servers, cfg.window, loops, nil)
	if err != nil {
		return nil, err
	}
	var all []harness.Sample
	for _, l := range logs {
		all = append(all, l.samples...)
	}
	sum := harness.Summarize(all, w.dur, segments)
	rep.attempted += sum.OK + sum.Failed
	if sum.Failed > 0 {
		rep.fail(sum.Failed, "%d of %d queries did not return 200", sum.Failed, sum.OK+sum.Failed)
	}
	rssMB, err := e.peakRSSMB()
	if err != nil {
		return nil, err
	}
	endToEnd(rep, setupS, w, sum, okPerSegment(w.dur, all), rssMB)
	serverCounters(rep, w, e.reader, logs)
	loadPerObj := e.loadUSPerObject()
	e.close() // the checks below must not share the CPU with a server

	ref, err := newReference(d, refKind)
	if err != nil {
		return nil, err
	}
	checkKept(rep, ref, stream, logs, naiveBudget)
	if cfg.trace {
		if err := traceQueries(cfg, rep, d, stream, sum.P50ms.Median, loadPerObj, 0); err != nil {
			return nil, fmt.Errorf("%s trace: %w", name, err)
		}
	}
	return rep, nil
}

// runQueryHot: the working set (8 texts) fits the plan cache, so the
// executor and response encoding do nearly all the work.
func runQueryHot(cfg *config) (*report, error) {
	d := gen.City(cfg.seed)
	stream := func(i int) gen.Query { return gen.Hot(cfg.seed, i) }
	// The grid file takes 14 s to load the city on this machine and a
	// scan makes every probe a pass over 200,000 objects; the z-order
	// index is the remaining backend that shares no code with the
	// server's R-tree. It takes 30 ms per answer, hence 1 response in 101
	// (the stream repeats its texts and widths every 40 requests).
	return runQueries(cfg, "query_hot", d, stream, 101, spatialdb.ZOrderIdx, 0)
}

// runQueryCold: 2,048 texts round-robin against a 128-entry cache, so
// every request pays normalize + parse + adaptive compile.
func runQueryCold(cfg *config) (*report, error) {
	d := gen.Town(cfg.seed)
	texts := gen.ColdTexts(cfg.seed)
	stream := func(i int) gen.Query { return gen.Cold(cfg.seed, texts, i) }
	return runQueries(cfg, "query_cold", d, stream, 51, spatialdb.Grid, 1500*time.Millisecond)
}
