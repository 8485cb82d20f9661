package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/workload"
)

const smugglerText = `
find T in towns, R in roads, B in states
given C, A
where A <= C; B <= C; R <= A | B | T;
      R & A != 0; R & T != 0; T !<= C
`

// newTestServer serves the generated §2 map.
func newTestServer(t *testing.T) (*Server, *workload.Map) {
	t.Helper()
	m := workload.GenMap(workload.MapConfig{Seed: 1991})
	store := spatialdb.NewStore(m.Config.Universe, spatialdb.RTree)
	m.Populate(store)
	return New(store, Options{}), m
}

// do runs one request through the handler and decodes the JSON reply.
func do(t *testing.T, s *Server, method, path string, body, out any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if out != nil && w.Code/100 == 2 {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w
}

func smugglerRequest(m *workload.Map) queryRequest {
	return queryRequest{
		Query: smugglerText,
		Params: map[string]jsonRegion{
			"C": toJSONRegion(m.Country),
			"A": toJSONRegion(m.Area),
		},
	}
}

func solutionKeys(sols []solutionJSON) []string {
	keys := make([]string, len(sols))
	for i, s := range sols {
		keys[i] = strings.Join(s.Names, "/")
	}
	sort.Strings(keys)
	return keys
}

func TestLayerCRUDRoundTrip(t *testing.T) {
	s, _ := newTestServer(t)
	obj := jsonRegion{Boxes: []jsonBox{
		{Lo: []float64{10, 10}, Hi: []float64{20, 20}},
		{Lo: []float64{20, 10}, Hi: []float64{30, 15}},
	}}

	if w := do(t, s, http.MethodPut, "/layers/harbors/objects/h1", obj, nil); w.Code != http.StatusCreated {
		t.Fatalf("PUT: status %d: %s", w.Code, w.Body.String())
	}
	var got objectResponse
	if w := do(t, s, http.MethodGet, "/layers/harbors/objects/h1", nil, &got); w.Code != http.StatusOK {
		t.Fatalf("GET: status %d: %s", w.Code, w.Body.String())
	}
	if got.Name != "h1" || got.Layer != "harbors" {
		t.Errorf("GET returned %+v", got)
	}
	// The stored region is the normalized union of the uploaded boxes;
	// its bounding box must cover both.
	if got.Box.Lo[0] != 10 || got.Box.Hi[0] != 30 || got.Box.Hi[1] != 20 {
		t.Errorf("bounding box %+v", got.Box)
	}
	if len(got.Boxes) == 0 {
		t.Error("GET returned no boxes")
	}

	// Upsert replaces: the new region should be returned afterwards.
	obj2 := jsonRegion{Boxes: []jsonBox{{Lo: []float64{50, 50}, Hi: []float64{60, 60}}}}
	if w := do(t, s, http.MethodPut, "/layers/harbors/objects/h1", obj2, nil); w.Code != http.StatusOK {
		t.Fatalf("re-PUT: status %d: %s", w.Code, w.Body.String())
	}
	if do(t, s, http.MethodGet, "/layers/harbors/objects/h1", nil, &got); got.Box.Lo[0] != 50 {
		t.Errorf("upsert did not replace: %+v", got.Box)
	}

	var listing struct {
		Layers []layerInfo `json:"layers"`
	}
	do(t, s, http.MethodGet, "/layers", nil, &listing)
	found := false
	for _, li := range listing.Layers {
		if li.Name == "harbors" && li.Objects == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("layer listing missing harbors: %+v", listing.Layers)
	}

	if w := do(t, s, http.MethodDelete, "/layers/harbors/objects/h1", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("DELETE: status %d: %s", w.Code, w.Body.String())
	}
	if w := do(t, s, http.MethodGet, "/layers/harbors/objects/h1", nil, nil); w.Code != http.StatusNotFound {
		t.Errorf("GET after DELETE: status %d", w.Code)
	}
	if w := do(t, s, http.MethodDelete, "/layers/harbors/objects/h1", nil, nil); w.Code != http.StatusNotFound {
		t.Errorf("double DELETE: status %d", w.Code)
	}
}

func TestFailedUpsertKeepsOldObject(t *testing.T) {
	s, _ := newTestServer(t)
	obj := jsonRegion{Boxes: []jsonBox{{Lo: []float64{10, 10}, Hi: []float64{20, 20}}}}
	do(t, s, http.MethodPut, "/layers/harbors/objects/h1", obj, nil)
	// An empty region (and a degenerate zero-volume one) must be rejected
	// without touching the stored object.
	for _, bad := range []jsonRegion{
		{Boxes: []jsonBox{}},
		{Boxes: []jsonBox{{Lo: []float64{5, 5}, Hi: []float64{5, 9}}}},
		// Outside the universe: rejected uniformly, whatever the backend.
		{Boxes: []jsonBox{{Lo: []float64{900, 900}, Hi: []float64{2000, 2000}}}},
	} {
		if w := do(t, s, http.MethodPut, "/layers/harbors/objects/h1", bad, nil); w.Code != http.StatusBadRequest {
			t.Fatalf("bad upsert: status %d: %s", w.Code, w.Body.String())
		}
		var got objectResponse
		if w := do(t, s, http.MethodGet, "/layers/harbors/objects/h1", nil, &got); w.Code != http.StatusOK {
			t.Fatalf("failed upsert destroyed the object: %d", w.Code)
		}
		if got.Box.Lo[0] != 10 {
			t.Errorf("object mutated by failed upsert: %+v", got.Box)
		}
	}
}

func TestSmugglerQueryOverHTTP(t *testing.T) {
	s, m := newTestServer(t)

	// Reference answer straight from the library.
	q := query.Smuggler()
	params := map[string]*region.Region{"C": m.Country, "A": m.Area}
	want, err := query.CompileAndRun(q, s.Store(), params)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := make([]string, 0, len(want.Solutions))
	for _, sol := range want.Solutions {
		wantKeys = append(wantKeys, strings.Join(sol.Names(), "/"))
	}
	sort.Strings(wantKeys)
	if len(wantKeys) == 0 {
		t.Fatal("reference run found no solutions; broken fixture")
	}

	var resp queryResponse
	if w := do(t, s, http.MethodPost, "/query", smugglerRequest(m), &resp); w.Code != http.StatusOK {
		t.Fatalf("POST /query: status %d: %s", w.Code, w.Body.String())
	}
	if resp.Cached {
		t.Error("first query claims a cache hit")
	}
	gotKeys := solutionKeys(resp.Solutions)
	if fmt.Sprint(gotKeys) != fmt.Sprint(wantKeys) {
		t.Errorf("HTTP solutions %v, library %v", gotKeys, wantKeys)
	}
	if resp.Stats.Solutions != len(wantKeys) {
		t.Errorf("stats.Solutions = %d, want %d", resp.Stats.Solutions, len(wantKeys))
	}

	// The naive baseline over HTTP agrees too.
	naiveReq := smugglerRequest(m)
	naiveReq.Naive = true
	var naive queryResponse
	do(t, s, http.MethodPost, "/query", naiveReq, &naive)
	if fmt.Sprint(solutionKeys(naive.Solutions)) != fmt.Sprint(wantKeys) {
		t.Errorf("naive solutions %v, want %v", solutionKeys(naive.Solutions), wantKeys)
	}
}

func TestPlanCacheHitAndEpochInvalidation(t *testing.T) {
	s, m := newTestServer(t)
	req := smugglerRequest(m)

	var first, second, third queryResponse
	do(t, s, http.MethodPost, "/query", req, &first)
	if first.Cached {
		t.Error("first query: cached = true")
	}
	do(t, s, http.MethodPost, "/query", req, &second)
	if !second.Cached {
		t.Error("second identical query missed the plan cache")
	}
	if fmt.Sprint(solutionKeys(second.Solutions)) != fmt.Sprint(solutionKeys(first.Solutions)) {
		t.Error("cached run returned different solutions")
	}

	// Whitespace/comment variations normalize to the same cache key.
	variant := req
	variant.Query = "find T in towns,R in roads,B in states given C,A where A<=C;B<=C;R<=A|B|T;R&A!=0;R&T!=0;T!<=C # v"
	var varResp queryResponse
	do(t, s, http.MethodPost, "/query", variant, &varResp)
	if !varResp.Cached {
		t.Error("normalized variant missed the plan cache")
	}

	var st statsResponse
	do(t, s, http.MethodGet, "/stats", nil, &st)
	if st.Cache.Hits < 2 {
		t.Errorf("stats: cache hits = %d, want ≥ 2", st.Cache.Hits)
	}

	// A mutation bumps the epoch; the cached plan must not be served.
	epochBefore := st.Epoch
	town := jsonRegion{Boxes: []jsonBox{{Lo: []float64{95, 495}, Hi: []float64{105, 505}}}}
	do(t, s, http.MethodPut, "/layers/towns/objects/epoch-town", town, nil)
	do(t, s, http.MethodPost, "/query", req, &third)
	if third.Cached {
		t.Error("query after insert still served from cache")
	}
	if third.Epoch <= epochBefore {
		t.Errorf("epoch did not advance: %d -> %d", epochBefore, third.Epoch)
	}
}

func TestSnapshotRoundTripOverHTTP(t *testing.T) {
	s, m := newTestServer(t)
	req := httptest.NewRequest(http.MethodGet, "/snapshot", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /snapshot: %d", w.Code)
	}

	// A second, empty server restores the snapshot and answers the same.
	s2 := New(spatialdb.NewStore(m.Config.Universe, spatialdb.Grid), Options{})
	load := httptest.NewRequest(http.MethodPost, "/snapshot", bytes.NewReader(w.Body.Bytes()))
	lw := httptest.NewRecorder()
	s2.ServeHTTP(lw, load)
	if lw.Code != http.StatusOK {
		t.Fatalf("POST /snapshot: %d: %s", lw.Code, lw.Body.String())
	}
	var a, b queryResponse
	do(t, s, http.MethodPost, "/query", smugglerRequest(m), &a)
	do(t, s2, http.MethodPost, "/query", smugglerRequest(m), &b)
	if fmt.Sprint(solutionKeys(a.Solutions)) != fmt.Sprint(solutionKeys(b.Solutions)) {
		t.Errorf("restored server answers differ: %v vs %v",
			solutionKeys(a.Solutions), solutionKeys(b.Solutions))
	}
}

// TestSnapshotLoadRefusesOutOfUniverse: POST /snapshot of a document
// holding an object that reaches outside the universe answers 400 and
// keeps the current store.
func TestSnapshotLoadRefusesOutOfUniverse(t *testing.T) {
	s, _ := newTestServer(t)
	before := s.Store()
	doc := `{"version": 2, "next_id": 1, "universe": {"lo": [0, 0], "hi": [100, 100]},
	  "layers": [{"name": "ys", "objects": [{"id": 1, "name": "y", "boxes": [{"lo": [-10, 10], "hi": [10, 20]}]}]}]}`
	w := rawRequest(s, http.MethodPost, "/snapshot", "application/json", doc)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("POST /snapshot: %d, want 400: %s", w.Code, w.Body.String())
	}
	if s.Store() != before {
		t.Error("a refused snapshot replaced the store")
	}
}

func TestQueryErrors(t *testing.T) {
	s, m := newTestServer(t)
	cases := []struct {
		name string
		req  queryRequest
	}{
		{"lex error", queryRequest{Query: "find T in towns where T $ C"}},
		{"parse error", queryRequest{Query: "find T where"}},
		{"unknown layer", queryRequest{Query: "find T in nowhere given C where T <= C"}},
		{"unbound parameter", smugglerRequestWithoutParams(m)},
		{"bad box dims", queryRequest{
			Query:  smugglerText,
			Params: map[string]jsonRegion{"C": {Boxes: []jsonBox{{Lo: []float64{1}, Hi: []float64{2}}}}},
		}},
	}
	for _, tc := range cases {
		if w := do(t, s, http.MethodPost, "/query", tc.req, nil); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, w.Code, w.Body.String())
		}
	}
	var st statsResponse
	do(t, s, http.MethodGet, "/stats", nil, &st)
	if st.Queries.Errors != int64(len(cases)) {
		t.Errorf("error counter = %d, want %d", st.Queries.Errors, len(cases))
	}
}

func smugglerRequestWithoutParams(m *workload.Map) queryRequest {
	req := smugglerRequest(m)
	req.Params = map[string]jsonRegion{"C": toJSONRegion(m.Country)}
	return req
}

// TestExpvarEndpoint: GET /debug/vars serves the /stats document, on a
// plain server, a durable one and one with admission control on, after
// traffic that moves their counters.
func TestExpvarEndpoint(t *testing.T) {
	plain, m := newTestServer(t)
	do(t, plain, http.MethodPost, "/query", smugglerRequest(m), nil)
	do(t, plain, http.MethodPost, "/query", smugglerRequest(m), nil)

	durable, db := newDurableServer(t, t.TempDir())
	t.Cleanup(func() { db.Close() })
	putTestObject(t, durable, "towns", "a")
	do(t, durable, http.MethodPost, "/query", degradedQuery, nil)

	shed := newShedServer(t)
	release, err := shed.readGate.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	do(t, shed, http.MethodPost, "/query", degradedQuery, nil) // shed
	release()
	do(t, shed, http.MethodPost, "/query", degradedQuery, nil)

	for _, tc := range []struct {
		name    string
		s       *Server
		queries float64
	}{{"plain", plain, 2}, {"durable", durable, 1}, {"admission", shed, 1}} {
		name, s := tc.name, tc.s
		var stats, vars map[string]any
		if w := do(t, s, http.MethodGet, "/stats", nil, &stats); w.Code != http.StatusOK {
			t.Fatalf("%s: GET /stats: %d", name, w.Code)
		}
		if w := do(t, s, http.MethodGet, "/debug/vars", nil, &vars); w.Code != http.StatusOK {
			t.Fatalf("%s: GET /debug/vars: %d", name, w.Code)
		}
		if !reflect.DeepEqual(vars, stats) {
			t.Errorf("%s: /debug/vars differs from /stats:\n%v\n%v", name, vars, stats)
		}
		if q, _ := stats["queries"].(map[string]any); q["total"] != tc.queries {
			t.Errorf("%s: queries = %v, want total %v", name, stats["queries"], tc.queries)
		}
	}
}

func TestPlanCacheLRUAndStaleEviction(t *testing.T) {
	c := NewPlanCache(2)
	mkPlan := func() *query.Plan { return &query.Plan{} }
	pa, pb, pc := mkPlan(), mkPlan(), mkPlan()

	c.Put("a", 0, 1, pa)
	c.Put("b", 0, 1, pb)
	if got, ok := c.Get("a", 0, 1); !ok || got != pa {
		t.Fatal("miss on fresh entry a")
	}
	// Capacity 2: inserting c evicts the LRU entry, which is now b.
	c.Put("c", 0, 1, pc)
	if _, ok := c.Get("b", 0, 1); ok {
		t.Error("b survived past capacity")
	}
	if _, ok := c.Get("a", 0, 1); !ok {
		t.Error("recently used a was evicted")
	}
	// Stale epoch: the entry is dropped, not served.
	if _, ok := c.Get("a", 0, 2); ok {
		t.Error("stale entry served")
	}
	if _, ok := c.Get("a", 0, 1); ok {
		t.Error("stale entry not evicted")
	}
	if c.Hits() != 2 || c.Misses() != 3 {
		t.Errorf("hits/misses = %d/%d, want 2/3", c.Hits(), c.Misses())
	}
	// Stale store generation: same epoch, older generation — a Put racing
	// a store swap must never be served against the successor store.
	c.Put("d", 0, 7, pa)
	if _, ok := c.Get("d", 1, 7); ok {
		t.Error("entry from an old store generation served")
	}
}
