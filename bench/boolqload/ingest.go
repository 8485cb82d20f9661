package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/gen"
	"repro/bench/harness"
	"repro/internal/bbox"
)

// writers is how many closed-loop clients the ingest workload runs.
const writers = 2

// ingestFlags are the durable server's fixed flags. Checkpoints are
// considered every 3 s and taken once 64 KiB of log accumulated, so five
// or six complete inside the 16 s window.
var ingestFlags = []string{"-fsync", "always", "-checkpoint-interval", "3s", "-checkpoint-bytes", "65536"}

// rssAtWrites is the number of acknowledged writes, warm-up included, at
// which the server's peak memory is read. The writers never pause, so
// the store a run ends with grows with the write rate; read at a fixed
// store size (the preload plus this many objects), rss_peak_mb does not.
// The count is reached about ten seconds after the first write on this
// machine, and by any server that sustains 2,300 writes a second.
const rssAtWrites = 40000

// afterCheckpoint is how many acknowledged PUTs follow the forced
// checkpoint before the server is killed: the records recovery replays.
const afterCheckpoint = 5000

// writerLog is what one ingest client recorded. state is the box each
// acknowledged name should hold.
type writerLog struct {
	samples []harness.Sample
	state   map[string]bbox.Box
	next    int // index of the client's next write
}

// put sends one PUT and reports whether it was acknowledged.
func put(c *harness.Client, base string, w gen.Write) bool {
	status, _, err := c.Do(http.MethodPut, base+w.Path(), w.Body())
	return err == nil && (status == http.StatusOK || status == http.StatusCreated)
}

// ingestLoop sends one client's writes. acked counts the acknowledged
// writes of all clients; the client whose write makes it rssAtWrites
// calls atCount.
func ingestLoop(target *harness.Proc, seed uint64, client int, log *writerLog, acked *atomic.Int64, atCount func()) loop {
	return func(c *harness.Client, t0 time.Time, stop *atomic.Bool) {
		for !stop.Load() {
			w := gen.IngestOp(seed, client, log.next)
			log.next++
			start := time.Now()
			ok := put(c, target.URL(), w)
			end := time.Now()
			log.samples = append(log.samples, harness.Sample{End: end.Sub(t0), Lat: end.Sub(start), OK: ok})
			if ok {
				log.state[w.Name] = w.Box
				if acked.Add(1) == rssAtWrites {
					atCount()
				}
			} else {
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// runIngestDurable: two writers insert parcels into a boolqd that fsyncs
// before every acknowledgement; afterwards the server is killed and must
// come back with every acknowledged write.
func runIngestDurable(cfg *config) (*report, error) {
	rep := &report{workload: "ingest_durable", seed: cfg.seed}
	d := gen.Ingest(cfg.seed)
	bodies := d.BulkBodies()
	e, setupS, err := setUp(cfg.setupRepeats(d), func() (*env, error) { return cfg.durableEnv(d, bodies, ingestFlags...) })
	if err != nil {
		return nil, err
	}
	defer e.close()

	if cfg.trace {
		httpFloor(rep, e.target)
	}
	var acked atomic.Int64
	var rssMB float64 // written by one writer, read after measure has waited for both
	var rssErr error
	readRSS := func() { rssMB, rssErr = e.peakRSSMB() }
	logs := make([]*writerLog, writers)
	loops := make([]loop, writers)
	for i := range loops {
		logs[i] = &writerLog{state: map[string]bbox.Box{}}
		loops[i] = ingestLoop(e.target, cfg.seed, i, logs[i], &acked, readRSS)
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
		rep.fail(sum.Failed, "%d of %d writes were not acknowledged", sum.Failed, sum.OK+sum.Failed)
	}
	if acked.Load() < rssAtWrites {
		// A server this slow holds a smaller store than the metric is
		// defined on; the throughput bound has long tripped.
		readRSS()
	}
	if rssErr != nil {
		return nil, rssErr
	}
	endToEnd(rep, setupS, w, sum, okPerSegment(w.dur, all), rssMB)
	walCounters(rep, w, e.target, sum.OK)

	if err := killAndRecover(cfg, rep, d, e, logs); err != nil {
		return nil, err
	}
	if cfg.trace {
		loadPerObj := e.loadUSPerObject()
		e.stopServers() // the data dir stays: the trace replays it
		if err := traceWrites(cfg, rep, d, e.dir, sum.P50ms.Median, loadPerObj); err != nil {
			return nil, fmt.Errorf("ingest_durable trace: %w", err)
		}
	}
	return rep, nil
}

// walCounters adds the write-path counts from the durable server's
// /stats deltas across the window.
func walCounters(rep *report, w *window, p *harness.Proc, acked int) {
	b, a := w.before[p].WAL, w.after[p].WAL
	if b == nil || a == nil || acked == 0 {
		return
	}
	n := float64(acked)
	rep.add("wal.bytes_per_op", float64(a.Log.Bytes-b.Log.Bytes)/n, "B")
	rep.add("wal.fsyncs_per_op", float64(a.Log.Fsyncs-b.Log.Fsyncs)/n, "ratio")
	rep.add("wal.appends_per_op", float64(a.Log.Appends-b.Log.Appends)/n, "ratio")
	rep.add("wal.checkpoints", float64(a.Checkpoints-b.Checkpoints), "count")
	rep.add("wal.retries", float64(a.Retries-b.Retries+a.AppendErrs-b.AppendErrs), "count")
}

// killAndRecover forces a checkpoint, writes afterCheckpoint more
// acknowledged PUTs, kills the server with SIGKILL, restarts it on the
// same directory, times the recovery, and reads back every name written
// since the checkpoint plus a sample of the older ones. Under
// fsync=always nothing acknowledged is unflushed, so SIGKILL (which
// leaves the page cache intact) is an honest test for this policy.
func killAndRecover(cfg *config, rep *report, d *gen.Dataset, e *env, logs []*writerLog) error {
	c := harness.NewClient(requestTimeout)
	defer c.Close()
	if err := checkpoint(c, e.target); err != nil {
		return err
	}

	// The tail: acknowledged after the checkpoint, so only the log holds it.
	tail := make([]map[string]bbox.Box, writers)
	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := range logs {
		tail[i] = map[string]bbox.Box{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := harness.NewClient(requestTimeout)
			defer wc.Close()
			for n := 0; n < afterCheckpoint/writers; n++ {
				w := gen.IngestOp(cfg.seed, i, logs[i].next)
				logs[i].next++
				if put(wc, e.target.URL(), w) {
					logs[i].state[w.Name], tail[i][w.Name] = w.Box, w.Box
				} else {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	rep.attempted += afterCheckpoint
	if n := int(failed.Load()); n > 0 {
		rep.fail(n, "%d of the %d writes after the checkpoint were not acknowledged", n, afterCheckpoint)
	}

	e.target.Kill() // SIGKILL
	start := time.Now()
	p, err := cfg.spawn("recovered", append([]string{"-data-dir", e.dir, "-universe", d.UniverseFlag()}, ingestFlags...)...)
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	rep.add("wal.recovery_s", time.Since(start).Seconds(), "s")
	e.servers, e.target = []*harness.Proc{p}, p
	if st, err := p.Stats(c); err == nil && st.WAL != nil {
		rep.add("wal.replayed_records", float64(st.WAL.Replayed), "count")
	}

	// Read back: every name of the tail, and 500 names last written
	// before the checkpoint (they come from the snapshot).
	want := map[string]bbox.Box{}
	for i := range logs {
		for name, box := range tail[i] {
			want[name] = box
		}
		older := make([]string, 0, len(logs[i].state))
		for name := range logs[i].state {
			if _, inTail := tail[i][name]; !inTail {
				older = append(older, name)
			}
		}
		sort.Strings(older)
		for _, name := range older[:min(len(older), 250)] {
			want[name] = logs[i].state[name]
		}
	}
	lost := 0
	for name, box := range want {
		var got struct {
			Boxes []struct {
				Lo, Hi []float64
			} `json:"boxes"`
		}
		status, body, err := c.Do(http.MethodGet, p.URL()+"/layers/parcels/objects/"+name, nil)
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &got) != nil || len(got.Boxes) != 1 {
			lost++
			continue
		}
		if b, err := bbox.Make(got.Boxes[0].Lo, got.Boxes[0].Hi); err != nil || !b.Equal(box) {
			lost++
		}
	}
	rep.attempted += len(want)
	rep.add("check.recovered_names", float64(len(want)-lost), "count")
	if lost > 0 {
		rep.fail(lost, "%d of %d acknowledged writes were wrong or missing after SIGKILL and recovery", lost, len(want))
	}
	return nil
}
