// Server-level chaos tests: disk faults and overload, observed through
// the HTTP surface. The WAL-level properties live in internal/wal's
// chaos tests; here the assertions are about what clients and operators
// see — status codes, Retry-After hints, /healthz vs /readyz, and the
// degraded/shed sections of /stats. `make chaos` runs these under -race.
package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/bbox"
	"repro/internal/spatialdb"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// newFaultyServer is newDurableServer over a fault-injecting filesystem,
// with millisecond retry/probe timings so degraded episodes start and
// end inside a test.
func newFaultyServer(t *testing.T, dir string) (*Server, *wal.DB, *vfs.Injector) {
	t.Helper()
	inj := vfs.NewInjector(nil)
	db, err := wal.OpenDB(dir, wal.DBOptions{
		Kind:               spatialdb.RTree,
		Universe:           bbox.Rect(0, 0, 1000, 1000),
		Log:                wal.Options{Policy: wal.SyncAlways, FS: inj},
		CheckpointInterval: -1, CheckpointBytes: -1,
		RetryMax: 1, RetryBackoff: time.Millisecond,
		ProbeInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inj.Clear(); db.Close() })
	return New(db.Store(), Options{Durable: db}), db, inj
}

// degradedQuery is a valid query against the towns layer, used to prove
// plan execution keeps working while mutations are rejected.
var degradedQuery = queryRequest{
	Query: "find T in towns given C where T !<= C",
	Params: map[string]jsonRegion{
		"C": {Boxes: []jsonBox{{Lo: []float64{500, 500}, Hi: []float64{600, 600}}}},
	},
}

func TestServerTransientFsyncIsAbsorbedInline(t *testing.T) {
	s, db, inj := newFaultyServer(t, t.TempDir())
	putTestObject(t, s, "towns", "a")

	// One fsync fails; the in-line rearm+retry must absorb it: the client
	// sees its write acknowledged, never a 500, and no degraded episode.
	inj.Add(vfs.Fault{Op: vfs.OpSync, Path: "wal-", Count: 1, Err: syscall.EIO})
	putTestObject(t, s, "towns", "b")

	if db.Degraded() {
		t.Fatal("transient fsync fault degraded the store")
	}
	var health map[string]any
	if w := do(t, s, http.MethodGet, "/healthz", nil, &health); w.Code != http.StatusOK {
		t.Fatalf("/healthz: %d", w.Code)
	}
	if health["state"] != "healthy" {
		t.Fatalf("/healthz state = %v, want healthy", health["state"])
	}
	var stats statsResponse
	do(t, s, http.MethodGet, "/stats", nil, &stats)
	if stats.Degraded == nil || stats.Degraded.Degraded {
		t.Fatalf("degraded stats = %+v", stats.Degraded)
	}
	if stats.Degraded.WALRetries == 0 || stats.Degraded.Rearms == 0 {
		t.Fatalf("retry counters missing from /stats: %+v", stats.Degraded)
	}
	if inj.FaultStats().Injected == 0 {
		t.Fatal("the fsync fault was never injected")
	}
}

func TestServerDegradedModeLifecycle(t *testing.T) {
	s, db, inj := newFaultyServer(t, t.TempDir())
	putTestObject(t, s, "towns", "a")

	// Total write outage: the next mutation exhausts its retries, the
	// store degrades, and the client gets a retryable 503 — not a 500.
	inj.Add(vfs.Fault{Op: vfs.OpWrite, Path: "wal-", Err: syscall.EIO})
	body := jsonRegion{Boxes: []jsonBox{{Lo: []float64{10, 10}, Hi: []float64{20, 20}}}}
	w := do(t, s, http.MethodPut, "/layers/towns/objects/b", body, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("PUT during outage: %d %s, want 503", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if !db.Degraded() {
		t.Fatal("store not degraded after exhausted retries")
	}

	// Subsequent mutations are rejected the same way, across every verb.
	if w := do(t, s, http.MethodPut, "/layers/towns/objects/c", body, nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("second PUT: %d, want 503", w.Code)
	}
	if w := do(t, s, http.MethodDelete, "/layers/towns/objects/a", nil, nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("DELETE: %d, want 503", w.Code)
	}
	if w := do(t, s, http.MethodPut, "/layers/fresh", nil, nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("create layer: %d, want 503", w.Code)
	}
	wb := rawRequest(s, http.MethodPost, "/layers/towns/objects:bulk", "application/json",
		`[{"name": "bk", "boxes": [{"lo": [1, 1], "hi": [2, 2]}]}]`)
	if wb.Code != http.StatusServiceUnavailable || wb.Header().Get("Retry-After") == "" {
		t.Fatalf("bulk insert: %d (Retry-After %q), want 503 with Retry-After",
			wb.Code, wb.Header().Get("Retry-After"))
	}

	// Reads keep serving: point gets and plan execution.
	if w := do(t, s, http.MethodGet, "/layers/towns/objects/a", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("GET while degraded: %d", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/query", degradedQuery, nil); w.Code != http.StatusOK {
		t.Fatalf("query while degraded: %d %s", w.Code, w.Body.String())
	}

	// /healthz: alive (200) but reporting the state, with Retry-After so
	// both probes steer pollers the same way. /readyz: not ready.
	var health map[string]any
	wh := do(t, s, http.MethodGet, "/healthz", nil, &health)
	if wh.Code != http.StatusOK {
		t.Fatalf("/healthz while degraded: %d, want 200", wh.Code)
	}
	if health["state"] != "degraded" || health["degraded"] != true || health["cause"] == "" {
		t.Fatalf("/healthz = %v", health)
	}
	if wh.Header().Get("Retry-After") == "" {
		t.Fatal("degraded /healthz carries no Retry-After")
	}
	wr := do(t, s, http.MethodGet, "/readyz", nil, nil)
	if wr.Code != http.StatusServiceUnavailable || wr.Header().Get("Retry-After") == "" {
		t.Fatalf("/readyz while degraded: %d (Retry-After %q), want 503 with Retry-After",
			wr.Code, wr.Header().Get("Retry-After"))
	}
	var ready map[string]any
	if err := json.Unmarshal(wr.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready["ready"] != false || ready["state"] != "degraded" {
		t.Fatalf("/readyz body = %v", ready)
	}
	var stats statsResponse
	do(t, s, http.MethodGet, "/stats", nil, &stats)
	if stats.Degraded == nil || !stats.Degraded.Degraded || stats.Degraded.Cause == "" ||
		stats.Degraded.Transitions != 1 {
		t.Fatalf("degraded /stats section = %+v", stats.Degraded)
	}

	// The disk heals; the probe recovers the store with no restart.
	inj.Clear()
	deadline := time.Now().Add(5 * time.Second)
	for db.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("store never exited degraded mode after the fault cleared")
		}
		time.Sleep(time.Millisecond)
	}
	if w := do(t, s, http.MethodGet, "/readyz", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("/readyz after heal: %d %s", w.Code, w.Body.String())
	}
	// The PUT that triggered degradation was applied in memory and the
	// probe's exit checkpoint made it durable, so the client's retry is a
	// replace (200), not a create — retrying a 503'd upsert is idempotent.
	if w := do(t, s, http.MethodPut, "/layers/towns/objects/b", body, nil); w.Code != http.StatusOK {
		t.Fatalf("retried PUT after heal: %d %s", w.Code, w.Body.String())
	}
	do(t, s, http.MethodGet, "/healthz", nil, &health)
	if health["state"] != "healthy" {
		t.Fatalf("/healthz after heal = %v", health)
	}
}

// newShedServer is a demo-map server with admission control enabled:
// one slot per pool, no queue, and a tiny queue-wait cap.
func newShedServer(t *testing.T) *Server {
	t.Helper()
	s, _ := newTestServer(t)
	// Rebuild with admission options over the same store shape.
	srv := New(s.Store(), Options{MaxInflight: 1, ShedQueue: 0, MaxQueueWait: 5 * time.Millisecond})
	return srv
}

func TestServerShedsReadsWith429(t *testing.T) {
	s := newShedServer(t)
	m := map[string]jsonRegion{}
	_ = m

	// Occupy the only read slot; every arriving query must shed.
	release, err := s.readGate.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	req := queryRequest{Query: "find T in towns given C where T !<= C",
		Params: map[string]jsonRegion{"C": {Boxes: []jsonBox{{Lo: []float64{0, 0}, Hi: []float64{1, 1}}}}}}
	w := do(t, s, http.MethodPost, "/query", req, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("query with pool full: %d %s, want 429", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// A shed request must not have touched the store: its write lock is
	// immediately available, so a mutation (separate pool) sails through.
	putTestObject(t, s, "towns", "shed-proof")

	release()
	if w := do(t, s, http.MethodPost, "/query", req, nil); w.Code != http.StatusOK {
		t.Fatalf("query after release: %d %s", w.Code, w.Body.String())
	}

	var stats statsResponse
	do(t, s, http.MethodGet, "/stats", nil, &stats)
	if stats.Shed == nil || stats.Shed.Reads == nil {
		t.Fatalf("shed /stats section missing: %+v", stats.Shed)
	}
	if stats.Shed.Reads.ShedFull == 0 || stats.Shed.Total == 0 {
		t.Fatalf("shed counters = %+v", stats.Shed)
	}
	if stats.Shed.Reads.MaxInflight != 1 {
		t.Fatalf("reads pool = %+v", stats.Shed.Reads)
	}
}

func TestServerShedsMutationsWith429(t *testing.T) {
	s := newShedServer(t)
	release, err := s.mutGate.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	body := jsonRegion{Boxes: []jsonBox{{Lo: []float64{10, 10}, Hi: []float64{20, 20}}}}
	w := do(t, s, http.MethodPut, "/layers/towns/objects/x", body, nil)
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") == "" {
		t.Fatalf("PUT with pool full: %d (Retry-After %q), want 429", w.Code, w.Header().Get("Retry-After"))
	}
	// Reads are a separate pool: queries still run.
	req := queryRequest{Query: "find T in towns given C where T !<= C",
		Params: map[string]jsonRegion{"C": {Boxes: []jsonBox{{Lo: []float64{0, 0}, Hi: []float64{1, 1}}}}}}
	if w := do(t, s, http.MethodPost, "/query", req, nil); w.Code != http.StatusOK {
		t.Fatalf("query while mutations shed: %d", w.Code)
	}
	release()
	putTestObject(t, s, "towns", "x2")
}

func TestServerBatchShedsPerQuery(t *testing.T) {
	s := newShedServer(t)
	release, err := s.readGate.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	q := queryRequest{Query: "find T in towns given C where T !<= C",
		Params: map[string]jsonRegion{"C": {Boxes: []jsonBox{{Lo: []float64{0, 0}, Hi: []float64{1, 1}}}}}}
	body, _ := json.Marshal(batchQueryRequest{Queries: []queryRequest{q, q, q}, Concurrency: 2})
	w := rawRequest(s, http.MethodPost, "/query/batch", "application/json", string(body))
	if w.Code != http.StatusOK { // the stream itself is fine; sheds are per line
		t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
	}
	lines := ndjsonLines(t, w.Body.String())
	var shedLines int
	var summary map[string]any
	for _, l := range lines {
		if l["done"] == true {
			summary = l
			continue
		}
		if l["shed"] == true {
			if errmsg, _ := l["error"].(string); !strings.Contains(errmsg, "overloaded") {
				t.Fatalf("shed line error = %v", l["error"])
			}
			shedLines++
		}
	}
	if shedLines != 3 {
		t.Fatalf("%d shed lines, want 3: %s", shedLines, w.Body.String())
	}
	if summary == nil || summary["shed"] != float64(3) || summary["errors"] != float64(3) {
		t.Fatalf("batch summary = %v", summary)
	}
	// shed.total is the pools' own count: every shed once, none twice.
	var stats statsResponse
	do(t, s, http.MethodGet, "/stats", nil, &stats)
	var pools int64
	for _, p := range []*shedPool{stats.Shed.Reads, stats.Shed.Mutations} {
		pools += p.ShedFull + p.ShedWait
	}
	if stats.Shed.Total != pools || pools != 3 {
		t.Fatalf("shed.total = %d, pools = %d, want both 3: %+v", stats.Shed.Total, pools, stats.Shed)
	}
}

// TestAdmissionPoolSemantics unit-tests the pool itself: fast-path
// admit, queue-full shed, deadline shed, release reuse, and the nil
// (disabled) pool.
func TestAdmissionPoolSemantics(t *testing.T) {
	a := newAdmission(1, 1, 20*time.Millisecond)
	r1, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// One waiter fits in the queue and sheds on its deadline.
	waiter := make(chan error, 1)
	entered := make(chan struct{})
	go func() {
		close(entered)
		_, err := a.acquire(context.Background())
		waiter <- err
	}()
	<-entered
	time.Sleep(2 * time.Millisecond) // let the waiter claim the queue token

	// The queue is now full: the next arrival sheds immediately.
	if _, err := a.acquire(context.Background()); !errIsShed(err) {
		t.Fatalf("queue-full acquire: %v, want shed", err)
	}
	if err := <-waiter; !errIsShed(err) {
		t.Fatalf("queued acquire after deadline: %v, want shed", err)
	}

	// Releasing frees the slot for the next acquire.
	r1()
	r2, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2()

	// A cancelled context sheds a queued request promptly.
	r3, _ := a.acquire(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.acquire(ctx); !errIsShed(err) {
		t.Fatalf("cancelled-context acquire: %v, want shed", err)
	}
	r3()

	st := a.poolStats()
	if st.Admitted != 3 || st.ShedFull == 0 || st.ShedWait == 0 {
		t.Fatalf("pool stats = %+v", st)
	}

	// nil pool: admission control off, everything admitted.
	var off *admission
	rel, err := off.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if off.poolStats() != nil || off.shedTotal() != 0 {
		t.Fatal("nil pool must report no stats")
	}
}
