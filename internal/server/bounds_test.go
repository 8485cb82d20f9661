package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/workload"
)

// heavyTestServer serves a map whose unfiltered cross product takes far
// longer than the query timeouts the tests use.
func heavyTestServer(t *testing.T, opts Options) (*Server, *workload.Map) {
	t.Helper()
	m := workload.GenMap(workload.MapConfig{Seed: 7, Towns: 60, Interior: 40, Roads: 150})
	store := spatialdb.NewStore(m.Config.Universe, spatialdb.RTree)
	m.Populate(store)
	return New(store, opts), m
}

// slowRequest disables both filters: the pathological workload the
// execution bounds exist for.
func slowRequest(m *workload.Map) queryRequest {
	req := smugglerRequest(m)
	req.NoIndex = true
	req.NoExact = true
	return req
}

func TestWorkersClamped(t *testing.T) {
	s, m := newTestServer(t)
	for requested, want := range map[int]int{
		-1:                  s.workers,
		0:                   s.workers,
		4:                   4,
		MaxQueryWorkers + 1: MaxQueryWorkers,
		100000000:           MaxQueryWorkers,
	} {
		if got := s.clampWorkers(requested); got != want {
			t.Errorf("clampWorkers(%d) = %d, want %d", requested, got, want)
		}
	}
	// The regression itself: a request demanding 100M goroutines is
	// served normally instead of spawning them.
	req := smugglerRequest(m)
	req.Workers = 100000000
	var resp queryResponse
	w := do(t, s, http.MethodPost, "/query", req, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("workers=1e8 query: status %d: %s", w.Code, w.Body.String())
	}
	if resp.Count == 0 {
		t.Fatal("workers=1e8 query returned no solutions")
	}
}

func TestQueryLimitTruncates(t *testing.T) {
	s, m := newTestServer(t)
	full := smugglerRequest(m)
	var unbounded queryResponse
	do(t, s, http.MethodPost, "/query", full, &unbounded)
	if unbounded.Count < 2 {
		t.Fatalf("fixture has %d solutions, need ≥ 2", unbounded.Count)
	}

	limited := full
	limited.Limit = 1
	var resp queryResponse
	w := do(t, s, http.MethodPost, "/query", limited, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("limited query: status %d: %s", w.Code, w.Body.String())
	}
	if resp.Count != 1 || len(resp.Solutions) != 1 {
		t.Errorf("limit 1 returned count %d (%d solutions)", resp.Count, len(resp.Solutions))
	}
	if !resp.Truncated || !resp.Stats.Truncated {
		t.Errorf("truncated flag not set: %+v", resp)
	}
	if resp.Cancelled {
		t.Errorf("cancelled flag set on a limit-capped run")
	}
	if s.metrics.QueryTruncated.Value() != 1 {
		t.Errorf("QueryTruncated = %d, want 1", s.metrics.QueryTruncated.Value())
	}

	// Naive executor honors the same per-request limit.
	naive := limited
	naive.Naive = true
	var nresp queryResponse
	do(t, s, http.MethodPost, "/query", naive, &nresp)
	if nresp.Count != 1 || !nresp.Truncated {
		t.Errorf("naive limit 1 → count %d, truncated=%v", nresp.Count, nresp.Truncated)
	}
}

func TestQueryTimeoutReturns408(t *testing.T) {
	s, m := heavyTestServer(t, Options{QueryTimeout: 20 * time.Millisecond})
	req := slowRequest(m)
	start := time.Now()
	var resp queryResponse
	w := do(t, s, http.MethodPost, "/query", req, nil)
	elapsed := time.Since(start)
	if w.Code != http.StatusRequestTimeout {
		t.Fatalf("status %d, want 408: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("408 body is not a query response: %v", err)
	}
	if !resp.Cancelled || !resp.Stats.Cancelled {
		t.Errorf("cancelled flag not set on 408 body: %+v", resp)
	}
	if elapsed > 5*time.Second {
		t.Errorf("timeout-bounded query took %v", elapsed)
	}
	if s.metrics.QueryTimeouts.Value() != 1 {
		t.Errorf("QueryTimeouts = %d, want 1", s.metrics.QueryTimeouts.Value())
	}

	// The store is not wedged: a write right after the timeout succeeds
	// promptly.
	done := make(chan struct{})
	go func() {
		s.Store().MustInsert("towns", "after-timeout", region.FromBox(s.Store().Universe()))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("writer blocked after query timeout: read guard not freed")
	}

	// timeout_ms can tighten the server bound per request too.
	s2, m2 := heavyTestServer(t, Options{}) // default 30s server bound
	req2 := slowRequest(m2)
	req2.TimeoutMS = 20
	w = do(t, s2, http.MethodPost, "/query", req2, nil)
	if w.Code != http.StatusRequestTimeout {
		t.Fatalf("timeout_ms query: status %d, want 408", w.Code)
	}
}

// TestQueryTimeoutFreesGuardForConcurrentWriter drives the acceptance
// scenario over HTTP: a writer blocked mid-flight behind a pathological
// query proceeds once the query's deadline expires.
func TestQueryTimeoutFreesGuardForConcurrentWriter(t *testing.T) {
	s, m := heavyTestServer(t, Options{QueryTimeout: 30 * time.Millisecond})
	var wg sync.WaitGroup
	wg.Add(1)
	var code int
	go func() {
		defer wg.Done()
		w := do(t, s, http.MethodPost, "/query", slowRequest(m), nil)
		code = w.Code
	}()
	time.Sleep(5 * time.Millisecond) // let the query take the read guard
	writerDone := make(chan int, 1)
	go func() {
		body := jsonRegion{Boxes: []jsonBox{{Lo: []float64{1, 1}, Hi: []float64{2, 2}}}}
		w := do(t, s, http.MethodPut, "/layers/towns/objects/blocked-writer", body, nil)
		writerDone <- w.Code
	}()
	select {
	case c := <-writerDone:
		if c != http.StatusCreated {
			t.Errorf("writer status %d", c)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writer still blocked 10s after the query deadline")
	}
	wg.Wait()
	if code != http.StatusRequestTimeout {
		t.Errorf("pathological query status %d, want 408", code)
	}
}

func TestQueryStreamNDJSON(t *testing.T) {
	s, m := newTestServer(t)
	req := smugglerRequest(m)
	var buffered queryResponse
	do(t, s, http.MethodPost, "/query", req, &buffered)
	if buffered.Count == 0 {
		t.Fatal("fixture has no solutions")
	}

	body, _ := json.Marshal(req)
	hr := httptest.NewRequest(http.MethodPost, "/query?stream=1", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, hr)
	if w.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type %q", ct)
	}
	var sols []solutionJSON
	var summary streamSummary
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, `"done"`) {
			if err := json.Unmarshal([]byte(line), &summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var sl streamSolutionLine
		if err := json.Unmarshal([]byte(line), &sl); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		sols = append(sols, sl.Solution)
	}
	if !summary.Done {
		t.Fatal("stream did not end with a summary line")
	}
	if len(sols) != buffered.Count || summary.Count != buffered.Count {
		t.Errorf("stream yielded %d solutions (summary %d), buffered %d",
			len(sols), summary.Count, buffered.Count)
	}
	got := solutionKeys(sols)
	want := solutionKeys(buffered.Solutions)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("stream solution set differs: %v vs %v", got, want)
		}
	}

	// Limit rides along and flags the summary.
	req.Limit = 1
	body, _ = json.Marshal(req)
	hr = httptest.NewRequest(http.MethodPost, "/query?stream=1", bytes.NewReader(body))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, hr)
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("limit 1 stream wrote %d lines, want solution + summary", len(lines))
	}
	if err := json.Unmarshal([]byte(lines[1]), &summary); err != nil {
		t.Fatal(err)
	}
	if !summary.Truncated || summary.Count != 1 {
		t.Errorf("limit 1 stream summary: %+v", summary)
	}

	// Pre-execution errors still get a clean 400, not a broken stream.
	bad := queryRequest{Query: "find T in towns given C where T !<= C"} // C unbound
	body, _ = json.Marshal(bad)
	hr = httptest.NewRequest(http.MethodPost, "/query?stream=1", bytes.NewReader(body))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, hr)
	if w.Code != http.StatusBadRequest {
		t.Errorf("unbound-parameter stream: status %d, want 400", w.Code)
	}

	// naive+stream is rejected up front.
	nv := smugglerRequest(m)
	nv.Naive = true
	body, _ = json.Marshal(nv)
	hr = httptest.NewRequest(http.MethodPost, "/query?stream=1", bytes.NewReader(body))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, hr)
	if w.Code != http.StatusBadRequest {
		t.Errorf("naive stream: status %d, want 400", w.Code)
	}
}

// TestBatchNaivePinnedEpoch is the pinned-epoch regression: a naive
// query executed against a pinned batch snapshot must report the pinned
// epoch even when the store has mutated since the pin was taken, so all
// queries of one batch agree on the state they ran at.
func TestBatchNaivePinnedEpoch(t *testing.T) {
	s, m := newTestServer(t)
	store, gen := s.storeAndGen()
	pinned := store.Epoch()

	// Mutate after pinning: the live epoch moves past the pin.
	store.MustInsert("towns", "mid-batch", region.FromBox(store.Universe()))
	if store.Epoch() == pinned {
		t.Fatal("mutation did not bump the epoch")
	}

	req := smugglerRequest(m)
	req.Naive = true
	enc := acquireEncoder(true)
	defer enc.release()
	enc.begin(-1)
	sum, err := s.execQuery(context.Background(), store, gen, pinned, &req, enc.add)
	if err != nil {
		t.Fatal(err)
	}
	if sum.stats.Cancelled {
		t.Fatalf("cancelled: %+v", sum.stats)
	}
	enc.finish(&sum, sum.naive)
	var resp queryResponse
	if err := json.Unmarshal(enc.buf, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != pinned {
		t.Errorf("naive batch query reported epoch %d, want pinned %d (live %d)",
			resp.Epoch, pinned, store.Epoch())
	}
}

// TestBatchEpochStableUnderConcurrentMutation runs a batch (naive and
// optimized queries) over HTTP while writers mutate the store
// mid-stream: every result line must report the same pinned epoch.
func TestBatchEpochStableUnderConcurrentMutation(t *testing.T) {
	s, m := newTestServer(t)
	base := smugglerRequest(m)
	naive := base
	naive.Naive = true
	queries := []queryRequest{base, naive, base, naive, base, naive}
	batch := batchQueryRequest{Queries: queries, Concurrency: 3}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			body := jsonRegion{Boxes: []jsonBox{{Lo: []float64{1, 1}, Hi: []float64{2, 2}}}}
			do(t, s, http.MethodPut, "/layers/towns/objects/churn", body, nil)
			time.Sleep(time.Millisecond)
		}
	}()

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(batch); err != nil {
		t.Fatal(err)
	}
	hr := httptest.NewRequest(http.MethodPost, "/query/batch", &buf)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, hr)
	close(stop)
	wg.Wait()
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
	}

	var epochs []uint64
	var summaryEpoch uint64
	sc := bufio.NewScanner(w.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Done  bool   `json:"done"`
			Error string `json:"error"`
			Epoch uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad batch line %q: %v", sc.Text(), err)
		}
		if line.Error != "" {
			t.Fatalf("batch query error: %s", line.Error)
		}
		if line.Done {
			summaryEpoch = line.Epoch
			continue
		}
		epochs = append(epochs, line.Epoch)
	}
	if len(epochs) != len(queries) {
		t.Fatalf("got %d result lines, want %d", len(epochs), len(queries))
	}
	for i, e := range epochs {
		if e != summaryEpoch {
			t.Errorf("result %d reports epoch %d, summary (pinned) %d — batch not pinned", i, e, summaryEpoch)
		}
	}
}

// TestStatsExposesBoundCounters: the /stats and /debug/vars surfaces
// carry the new outcome counters.
func TestStatsExposesBoundCounters(t *testing.T) {
	s, m := heavyTestServer(t, Options{QueryTimeout: 20 * time.Millisecond})
	req := smugglerRequest(m)
	req.Limit = 1
	do(t, s, http.MethodPost, "/query", req, nil)            // truncated
	do(t, s, http.MethodPost, "/query", slowRequest(m), nil) // timeout

	var stats statsResponse
	do(t, s, http.MethodGet, "/stats", nil, &stats)
	if stats.Queries.Truncated != 1 {
		t.Errorf("stats truncated = %d, want 1", stats.Queries.Truncated)
	}
	if stats.Queries.Timeouts != 1 {
		t.Errorf("stats timeouts = %d, want 1", stats.Queries.Timeouts)
	}
	if stats.Queries.Cancelled != 0 {
		t.Errorf("stats cancelled = %d, want 0", stats.Queries.Cancelled)
	}

	w := do(t, s, http.MethodGet, "/debug/vars", nil, nil)
	for _, key := range []string{"query_timeouts", "query_cancelled", "query_truncated"} {
		if !strings.Contains(w.Body.String(), key) {
			t.Errorf("expvar missing %q", key)
		}
	}
}
