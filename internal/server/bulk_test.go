package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bbox"
	"repro/internal/spatialdb"
	"repro/internal/workload"
)

// rawRequest sends a request with an arbitrary body/content type and
// returns the recorder.
func rawRequest(s *Server, method, path, contentType, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// bulkBodyJSON renders n disjoint objects as a JSON array.
func bulkBodyJSON(n int) string {
	var objs []bulkObject
	for i := 0; i < n; i++ {
		x := float64(i%30) * 10
		y := float64(i/30) * 10
		objs = append(objs, bulkObject{
			Name:  fmt.Sprintf("b%d", i),
			Boxes: []jsonBox{{Lo: []float64{x, y}, Hi: []float64{x + 5, y + 5}}},
		})
	}
	b, _ := json.Marshal(objs)
	return string(b)
}

func TestBulkInsertJSONArray(t *testing.T) {
	store := spatialdb.NewStore(workload.GenMap(workload.MapConfig{Seed: 1}).Config.Universe, spatialdb.RTree)
	s := New(store, Options{})
	w := rawRequest(s, http.MethodPost, "/layers/towns/objects:bulk", "application/json", bulkBodyJSON(90))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp bulkResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Inserted != 90 || resp.Failed != 0 || resp.Received != 90 {
		t.Fatalf("response %+v", resp)
	}
	if store.Layer("towns").Len() != 90 {
		t.Fatalf("layer has %d objects", store.Layer("towns").Len())
	}
	// Objects are reachable through the single-object API.
	var obj objectResponse
	if w := do(t, s, http.MethodGet, "/layers/towns/objects/b42", nil, &obj); w.Code != http.StatusOK {
		t.Fatalf("GET after bulk: status %d", w.Code)
	}
	// One epoch bump for the whole batch (plus one for layer creation —
	// the demo store starts without the layer).
	if resp.Epoch == 0 {
		t.Error("epoch missing from response")
	}
}

func TestBulkInsertNDJSON(t *testing.T) {
	store := spatialdb.NewStore(workload.GenMap(workload.MapConfig{Seed: 1}).Config.Universe, spatialdb.RTree)
	s := New(store, Options{})
	var sb strings.Builder
	for i := 0; i < 25; i++ {
		line, _ := json.Marshal(bulkObject{
			Name:  fmt.Sprintf("n%d", i),
			Boxes: []jsonBox{{Lo: []float64{float64(i) * 10, 0}, Hi: []float64{float64(i)*10 + 5, 5}}},
		})
		_, _ = sb.Write(line) // strings.Builder never returns an error
		sb.WriteByte('\n')
	}
	w := rawRequest(s, http.MethodPost, "/layers/pts/objects:bulk", "application/x-ndjson", sb.String())
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp bulkResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Inserted != 25 {
		t.Fatalf("inserted %d, want 25: %+v", resp.Inserted, resp)
	}
}

func TestBulkInsertAtomicFailure(t *testing.T) {
	s, _ := newTestServer(t)
	before := s.Store().Layer("towns").Len()
	// Object 1 is outside the generated map's universe.
	body := `[
	  {"name": "ok", "boxes": [{"lo": [10, 10], "hi": [20, 20]}]},
	  {"name": "outside", "boxes": [{"lo": [10, 10], "hi": [99999, 99999]}]}
	]`
	w := rawRequest(s, http.MethodPost, "/layers/towns/objects:bulk", "application/json", body)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
	}
	var resp bulkResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Inserted != 0 || len(resp.Errors) != 1 || resp.Errors[0].Index != 1 || resp.Errors[0].Name != "outside" {
		t.Fatalf("response %+v", resp)
	}
	if got := s.Store().Layer("towns").Len(); got != before {
		t.Fatalf("atomic failure inserted objects: %d -> %d", before, got)
	}
}

func TestBulkInsertBestEffort(t *testing.T) {
	s, _ := newTestServer(t)
	before := s.Store().Layer("towns").Len()
	body := `[
	  {"name": "ok1", "boxes": [{"lo": [10, 10], "hi": [20, 20]}]},
	  {"name": "outside", "boxes": [{"lo": [10, 10], "hi": [99999, 99999]}]},
	  {"name": "empty", "boxes": []},
	  {"name": "ok2", "boxes": [{"lo": [30, 30], "hi": [40, 40]}]}
	]`
	w := rawRequest(s, http.MethodPost, "/layers/towns/objects:bulk?mode=best_effort", "application/json", body)
	if w.Code != http.StatusMultiStatus {
		t.Fatalf("status %d, want 207: %s", w.Code, w.Body.String())
	}
	var resp bulkResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Inserted != 2 || resp.Failed != 2 || len(resp.Errors) != 2 {
		t.Fatalf("response %+v", resp)
	}
	if got := s.Store().Layer("towns").Len(); got != before+2 {
		t.Fatalf("layer grew by %d, want 2", got-before)
	}
}

func TestBulkInsertBadMode(t *testing.T) {
	s, _ := newTestServer(t)
	w := rawRequest(s, http.MethodPost, "/layers/towns/objects:bulk?mode=yolo", "application/json", "[]")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
}

func TestBulkInsertMalformedBody(t *testing.T) {
	s, _ := newTestServer(t)
	w := rawRequest(s, http.MethodPost, "/layers/towns/objects:bulk", "application/json", `[{"name": "x", `)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
}

// ndjsonLines decodes every line of an NDJSON body into maps.
func ndjsonLines(t *testing.T, body string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestQueryBatchStreamsNDJSON(t *testing.T) {
	s, m := newTestServer(t)
	good := smugglerRequest(m)
	req := batchQueryRequest{
		// Two identical queries plus a malformed one: with a single worker
		// the queries run in input order, so the second must hit the plan
		// cache compiled by the first, and the parse error must not stop
		// the batch.
		Queries:     []queryRequest{good, good, {Query: "find ??? wat"}},
		Concurrency: 1,
	}
	body, _ := json.Marshal(req)
	w := rawRequest(s, http.MethodPost, "/query/batch", "application/json", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("Content-Type %q", ct)
	}
	lines := ndjsonLines(t, w.Body.String())
	if len(lines) != 4 { // 3 results + summary
		t.Fatalf("got %d lines, want 4: %s", len(lines), w.Body.String())
	}
	byIndex := map[int]map[string]any{}
	var summary map[string]any
	for _, l := range lines {
		if done, ok := l["done"]; ok && done == true {
			summary = l
			continue
		}
		byIndex[int(l["index"].(float64))] = l
	}
	if summary == nil {
		t.Fatal("no summary line")
	}
	if summary["queries"].(float64) != 3 || summary["errors"].(float64) != 1 {
		t.Errorf("summary %+v", summary)
	}
	if byIndex[0]["count"].(float64) == 0 {
		t.Errorf("query 0 found no solutions: %+v", byIndex[0])
	}
	if byIndex[0]["cached"].(bool) {
		t.Errorf("first run reported cached")
	}
	if !byIndex[1]["cached"].(bool) {
		t.Errorf("second identical query missed the plan cache: %+v", byIndex[1])
	}
	if _, hasErr := byIndex[2]["error"]; !hasErr {
		t.Errorf("malformed query did not produce an error line: %+v", byIndex[2])
	}
	if _, hasCount := byIndex[2]["count"]; hasCount {
		t.Errorf("error line carries result fields: %+v", byIndex[2])
	}
}

func TestQueryBatchConcurrent(t *testing.T) {
	s, m := newTestServer(t)
	good := smugglerRequest(m)
	var queries []queryRequest
	for i := 0; i < 12; i++ {
		queries = append(queries, good)
	}
	body, _ := json.Marshal(batchQueryRequest{Queries: queries, Concurrency: 4})
	w := rawRequest(s, http.MethodPost, "/query/batch", "application/json", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	lines := ndjsonLines(t, w.Body.String())
	if len(lines) != 13 {
		t.Fatalf("got %d lines, want 13", len(lines))
	}
	seen := map[int]bool{}
	var count float64 = -1
	for _, l := range lines {
		if _, ok := l["done"]; ok {
			continue
		}
		i := int(l["index"].(float64))
		if seen[i] {
			t.Fatalf("index %d reported twice", i)
		}
		seen[i] = true
		if count < 0 {
			count = l["count"].(float64)
		} else if l["count"].(float64) != count {
			t.Fatalf("inconsistent counts across identical queries")
		}
	}
	if len(seen) != 12 {
		t.Fatalf("saw %d result lines, want 12", len(seen))
	}
}

func TestBatchAndBulkStats(t *testing.T) {
	s, m := newTestServer(t)
	rawRequest(s, http.MethodPost, "/layers/towns/objects:bulk", "application/json",
		`[{"name": "s1", "boxes": [{"lo": [5, 5], "hi": [6, 6]}]}]`)
	body, _ := json.Marshal(batchQueryRequest{Queries: []queryRequest{smugglerRequest(m)}})
	rawRequest(s, http.MethodPost, "/query/batch", "application/json", string(body))
	var stats statsResponse
	do(t, s, http.MethodGet, "/stats", nil, &stats)
	if stats.Bulk.Batches != 1 || stats.Bulk.Objects != 1 {
		t.Errorf("bulk stats %+v", stats.Bulk)
	}
	if stats.Batch.Requests != 1 || stats.Batch.QueriesRun != 1 {
		t.Errorf("batch stats %+v", stats.Batch)
	}
}

// FuzzBulkObjects feeds arbitrary bytes as the body of a best-effort bulk
// insert into an R-tree store. The decoder and the per-object validation
// must answer every body with a 2xx or 4xx status and never panic, and
// every object the store then holds must lie inside the universe and be
// found by a probe of its own bounding box.
func FuzzBulkObjects(f *testing.F) {
	var ndjson strings.Builder
	for i := 0; i < 3; i++ {
		line, _ := json.Marshal(bulkObject{
			Name:  fmt.Sprintf("p%d", i),
			Boxes: []jsonBox{{Lo: []float64{float64(i) * 10, 0}, Hi: []float64{float64(i)*10 + 5, 5}}},
		})
		_, _ = ndjson.Write(line) // strings.Builder never returns an error
		_ = ndjson.WriteByte('\n')
	}
	for _, seed := range []string{
		ndjson.String(),
		bulkBodyJSON(4),
		ndjson.String()[:ndjson.Len()/2],
		bulkBodyJSON(2)[:20],
		`[{"name":"a","boxes":[{"lo":[1,1],"hi":[2,2]}]},`,
		`{"name":"inverted","boxes":[{"lo":[5,5],"hi":[1,1]}]}` + "\n" + `{"name":"outside","boxes":[{"lo":[2000,1],"hi":[2001,2]}]}`,
		`{"name":"flat","boxes":[{"lo":[1,1],"hi":[1,5]}]} {"name":"3d","boxes":[{"lo":[1,1,1],"hi":[2,2,2]}]}`,
		`{"name":"x","boxes":[],"extra":1}`,
		"garbage\x00\xff",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		u := bbox.Rect(0, 0, 1000, 1000)
		store := spatialdb.NewStore(u, spatialdb.RTree)
		s := New(store, Options{})
		w := rawRequest(s, http.MethodPost, "/layers/parcels/objects:bulk?mode=best_effort", "application/x-ndjson", string(body))
		if w.Code < 200 || w.Code >= 500 {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		store.RLock()
		defer store.RUnlock()
		l, ok := store.LayerIfExists("parcels")
		if !ok {
			return
		}
		l.All(func(o spatialdb.Object) bool {
			if !u.Contains(o.Box) {
				t.Fatalf("object %d %q with box %v lies outside the universe %v", o.ID, o.Name, o.Box, u)
			}
			found := false
			l.Search(bbox.RangeSpec{K: 2, Lower: o.Box, Upper: o.Box}, func(m spatialdb.Object) bool {
				found = found || m.ID == o.ID
				return !found
			})
			if !found {
				t.Fatalf("object %d %q with box %v is not found by a probe of its box", o.ID, o.Name, o.Box)
			}
			return true
		})
	})
}
