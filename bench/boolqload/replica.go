package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/bench/gen"
	"repro/bench/harness"
)

const (
	// writeEvery is the paced writer's period: 100 writes per second,
	// sent on schedule whether or not the previous one has finished
	// being observed (an open loop of one client).
	writeEvery = 10 * time.Millisecond
	// pollEvery is how often the writer looks for its write on the
	// replica once the primary has acknowledged it.
	pollEvery = 200 * time.Microsecond
	// visibleTimeout is when a write that never shows up on the replica
	// is given up as failed.
	visibleTimeout = 2 * time.Second
	// convergenceQueries is how many queries primary and replica must
	// answer identically after the window.
	convergenceQueries = 200
)

// primaryFlags: the log is fsynced on a timer, so fsync is off the
// acknowledgement path.
var primaryFlags = []string{"-fsync", "interval"}

// replicaEnv is a durable primary loaded with the dataset plus one
// replica that bootstrapped from the primary's checkpoint and caught up.
func (cfg *config) replicaEnv(d *gen.Dataset, bodies []gen.BulkBody) (*env, error) {
	e, err := cfg.durableEnv(d, bodies, primaryFlags...)
	if err != nil {
		return nil, err
	}
	c := harness.NewClient(requestTimeout)
	defer c.Close()
	if err := checkpoint(c, e.target); err != nil {
		e.close()
		return nil, err
	}
	r, err := cfg.spawn("replica", "-replica-of", e.target.URL(), "-universe", d.UniverseFlag())
	if err != nil {
		e.close()
		return nil, err
	}
	e.servers, e.reader = append(e.servers, r), r
	if err := waitCaughtUp(c, r, d.Objects()); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// waitCaughtUp waits until the replica reports lag 0 and holds at least
// objects objects.
func waitCaughtUp(c *harness.Client, r *harness.Proc, objects int) error {
	deadline := time.Now().Add(setupTimeout)
	for {
		var st struct {
			Layers      map[string]int `json:"layers"`
			Replication struct {
				Lag uint64 `json:"lag"`
			} `json:"replication"`
		}
		if err := c.GetJSON(r.URL()+"/stats", &st); err == nil && st.Replication.Lag == 0 {
			n := 0
			for _, v := range st.Layers {
				n += v
			}
			if n >= objects {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica did not catch up within %v; stderr tail:\n%s", setupTimeout, r.StderrTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pacedLog is what the paced writer recorded.
type pacedLog struct {
	writes  []harness.Sample // PUT latency, timed from the due time
	visible []harness.Sample // ack on the primary → readable on the replica
	late    []harness.Sample // how late each PUT left, as its latency
}

// pacedLoop sends one PUT to the primary every writeEvery, each timed
// from when it was due, then polls the replica until the object can be
// read there.
func pacedLoop(primary, replica *harness.Proc, seed uint64, log *pacedLog) loop {
	return func(c *harness.Client, t0 time.Time, stop *atomic.Bool) {
		rc := harness.NewClient(requestTimeout)
		defer rc.Close()
		first := time.Now()
		for i := 0; !stop.Load(); i++ {
			due := first.Add(time.Duration(i) * writeEvery)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			w := gen.PacedWrite(seed, i)
			sent := time.Now()
			status, _, err := c.Do(http.MethodPut, primary.URL()+w.Path(), w.Body())
			acked := time.Now()
			ok := err == nil && (status == http.StatusOK || status == http.StatusCreated)
			log.writes = append(log.writes, harness.Sample{End: acked.Sub(t0), Lat: acked.Sub(due), OK: ok})
			log.late = append(log.late, harness.Sample{End: acked.Sub(t0), Lat: sent.Sub(due), OK: true})
			if !ok {
				continue
			}
			seen := false
			for time.Since(acked) < visibleTimeout {
				status, _, err := rc.Do(http.MethodGet, replica.URL()+w.Path(), nil)
				if err == nil && status == http.StatusOK {
					seen = true
					break
				}
				time.Sleep(pollEvery)
			}
			now := time.Now()
			log.visible = append(log.visible, harness.Sample{End: now.Sub(t0), Lat: now.Sub(acked), OK: seen})
		}
	}
}

// runMixedReplica: a paced writer on the primary and a closed-loop
// reader running the query_hot mix on the replica. Every replicated
// record takes the replica's write lock and bumps its epoch, which
// invalidates every cached plan, so these reads pay lock waits and
// recompiles that query_hot never sees.
func runMixedReplica(cfg *config) (*report, error) {
	rep := &report{workload: "mixed_replica", seed: cfg.seed}
	d := gen.City(cfg.seed)
	bodies := d.BulkBodies()
	e, setupS, err := setUp(cfg.setupRepeats(d), func() (*env, error) { return cfg.replicaEnv(d, bodies) })
	if err != nil {
		return nil, err
	}
	defer e.close()

	if cfg.trace {
		httpFloor(rep, e.reader)
	}
	stream := func(i int) gen.Query { return gen.Hot(cfg.seed, i) }
	var next atomic.Int64
	rlog, plog := &readerLog{}, &pacedLog{}
	loops := []loop{
		queryLoop(e.reader, &next, stream, rlog),
		pacedLoop(e.target, e.reader, cfg.seed, plog),
	}
	w, err := measure(e.servers, cfg.window, loops, e.reader)
	if err != nil {
		return nil, err
	}
	reads := harness.Summarize(rlog.samples, w.dur, segments)
	writes := harness.Summarize(plog.writes, w.dur, segments)
	visible := harness.Summarize(plog.visible, w.dur, segments)
	rep.attempted += reads.OK + reads.Failed + writes.OK + writes.Failed
	if n := reads.Failed + writes.Failed; n > 0 {
		rep.fail(n, "%d reads and %d writes failed", reads.Failed, writes.Failed)
	}
	if visible.Failed > 0 {
		rep.fail(visible.Failed, "%d acknowledged writes never became readable on the replica", visible.Failed)
	}
	rssMB, err := e.peakRSSMB()
	if err != nil {
		return nil, err
	}
	endToEnd(rep, setupS, w, reads, okPerSegment(w.dur, rlog.samples, plog.writes), rssMB)
	serverCounters(rep, w, e.reader, []*readerLog{rlog})
	rep.addSpread("server.write_lat_p50_ms", writes.P50ms, "ms")
	rep.addSpread("server.write_lat_p99_ms", writes.P99ms, "ms")
	rep.addSpread("repl.visible_p50_ms", visible.P50ms, "ms")
	rep.addSpread("repl.visible_p99_ms", visible.P99ms, "ms")
	rep.add("repl.lag_records_max", float64(w.lagMax), "count")
	if a := w.after[e.reader].Replication; a != nil {
		b := w.before[e.reader].Replication
		rep.add("repl.stream_errors", float64(a.StreamErrors-b.StreamErrors), "count")
		rep.add("repl.retries", float64(a.Retries-b.Retries), "count")
	}
	rep.addSpread("gen.late_p99_ms", harness.Summarize(plog.late, w.dur, segments).P99ms, "ms")

	if err := converged(rep, e, stream, int(next.Load())); err != nil {
		return nil, err
	}
	if cfg.trace {
		loadPerObj := e.loadUSPerObject()
		readsPerWrite := max(1, int(reads.OpsPerS.Median/writes.OpsPerS.Median+0.5))
		e.close()
		if err := traceQueries(cfg, rep, d, stream, reads.P50ms.Median, loadPerObj, readsPerWrite); err != nil {
			return nil, fmt.Errorf("mixed_replica trace: %w", err)
		}
		traceReplication(rep, visible.P50ms.Median)
	}
	return rep, nil
}

// converged waits for the replica to reach lag 0 and then requires
// primary and replica to answer the same queries with the same sets.
// During the window answers legitimately move with the writer, so reads
// are only status-checked there; this is the answer check.
func converged(rep *report, e *env, stream func(int) gen.Query, from int) error {
	c := harness.NewClient(requestTimeout)
	defer c.Close()
	if err := waitCaughtUp(c, e.reader, 0); err != nil {
		return err
	}
	ask := func(p *harness.Proc, body []byte) (string, error) {
		status, resp, err := c.Do(http.MethodPost, p.URL()+"/query", body)
		if err != nil || status != http.StatusOK {
			return "", fmt.Errorf("%s: status %d, %v", p.Name, status, err)
		}
		var qr queryResponse
		if err := json.Unmarshal(resp, &qr); err != nil {
			return "", err
		}
		return strings.Join(qr.tuples(), ";"), nil
	}
	differ := 0
	for i := from; i < from+convergenceQueries; i++ {
		body := stream(i).Body()
		a, err1 := ask(e.target, body)
		b, err2 := ask(e.reader, body)
		if err1 != nil || err2 != nil || a != b {
			differ++
		}
	}
	rep.attempted += convergenceQueries
	rep.add("check.replica_answers_equal", float64(convergenceQueries-differ), "count")
	if differ > 0 {
		rep.fail(differ, "primary and replica disagreed on %d of %d queries at lag 0", differ, convergenceQueries)
	}
	return nil
}
