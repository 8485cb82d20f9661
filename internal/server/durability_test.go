package server

import (
	"errors"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/bbox"
	"repro/internal/region"
	"repro/internal/repl"
	"repro/internal/spatialdb"
	"repro/internal/wal"
)

// newDurableServer builds a server over a wal.DB rooted at dir, the way
// cmd/boolqd does for -data-dir.
func newDurableServer(t *testing.T, dir string) (*Server, *wal.DB) {
	t.Helper()
	db, err := wal.OpenDB(dir, wal.DBOptions{
		Kind:     spatialdb.RTree,
		Universe: bbox.Rect(0, 0, 1000, 1000),
		Log:      wal.Options{Policy: wal.SyncNever},
		// The tests drive Checkpoint through the endpoint.
		CheckpointInterval: -1, CheckpointBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(db.Store(), Options{Durable: db}), db
}

func putTestObject(t *testing.T, s *Server, layer, name string) {
	t.Helper()
	body := jsonRegion{Boxes: []jsonBox{{Lo: []float64{10, 10}, Hi: []float64{20, 20}}}}
	if w := do(t, s, http.MethodPut, "/layers/"+layer+"/objects/"+name, body, nil); w.Code != http.StatusCreated {
		t.Fatalf("PUT object: %d %s", w.Code, w.Body.String())
	}
}

func TestDurableMutationsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s, db := newDurableServer(t, dir)
	putTestObject(t, s, "towns", "a")
	putTestObject(t, s, "towns", "b")
	if w := do(t, s, http.MethodDelete, "/layers/towns/objects/a", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("DELETE: %d %s", w.Code, w.Body.String())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	s2, db2 := newDurableServer(t, dir)
	defer db2.Close()
	var listing struct {
		Layers []layerInfo `json:"layers"`
	}
	do(t, s2, http.MethodGet, "/layers", nil, &listing)
	if len(listing.Layers) != 1 || listing.Layers[0].Name != "towns" || listing.Layers[0].Objects != 1 {
		t.Fatalf("recovered layers = %+v", listing.Layers)
	}
	if w := do(t, s2, http.MethodGet, "/layers/towns/objects/b", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("recovered object b: %d", w.Code)
	}
	if w := do(t, s2, http.MethodGet, "/layers/towns/objects/a", nil, nil); w.Code != http.StatusNotFound {
		t.Fatalf("deleted object a resurrected: %d", w.Code)
	}
}

func TestDurableEndpoints(t *testing.T) {
	s, db := newDurableServer(t, t.TempDir())
	defer db.Close()
	putTestObject(t, s, "towns", "a")

	var ready struct {
		Ready    bool  `json:"ready"`
		Durable  bool  `json:"durable"`
		Replayed int64 `json:"replayed"`
	}
	if w := do(t, s, http.MethodGet, "/readyz", nil, &ready); w.Code != http.StatusOK {
		t.Fatalf("/readyz: %d", w.Code)
	}
	if !ready.Ready || !ready.Durable {
		t.Fatalf("/readyz = %+v", ready)
	}

	// Snapshot replacement would bypass the WAL: refused.
	if w := do(t, s, http.MethodPost, "/snapshot", map[string]any{"version": 2}, nil); w.Code != http.StatusConflict {
		t.Fatalf("POST /snapshot in durable mode: %d, want 409", w.Code)
	}
	// Saving (a read) still works.
	if w := do(t, s, http.MethodGet, "/snapshot", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("GET /snapshot in durable mode: %d", w.Code)
	}

	var ck struct {
		Checkpointed bool   `json:"checkpointed"`
		LSN          uint64 `json:"lsn"`
	}
	if w := do(t, s, http.MethodPost, "/checkpoint", nil, &ck); w.Code != http.StatusOK {
		t.Fatalf("POST /checkpoint: %d %s", w.Code, w.Body.String())
	}
	if !ck.Checkpointed || ck.LSN == 0 {
		t.Fatalf("/checkpoint = %+v", ck)
	}

	var stats statsResponse
	do(t, s, http.MethodGet, "/stats", nil, &stats)
	if stats.WAL == nil {
		t.Fatal("/stats lacks the wal section in durable mode")
	}
	if stats.WAL.AppliedLSN == 0 || stats.WAL.Checkpoints != 1 {
		t.Fatalf("/stats wal = %+v", stats.WAL)
	}
}

func TestNonDurableServerBehaviour(t *testing.T) {
	s, _ := newTestServer(t)
	var ready struct {
		Ready   bool `json:"ready"`
		Durable bool `json:"durable"`
	}
	if w := do(t, s, http.MethodGet, "/readyz", nil, &ready); w.Code != http.StatusOK {
		t.Fatalf("/readyz: %d", w.Code)
	}
	if !ready.Ready || ready.Durable {
		t.Fatalf("/readyz = %+v", ready)
	}
	if w := do(t, s, http.MethodPost, "/checkpoint", nil, nil); w.Code != http.StatusConflict {
		t.Fatalf("POST /checkpoint without -data-dir: %d, want 409", w.Code)
	}
	var stats statsResponse
	do(t, s, http.MethodGet, "/stats", nil, &stats)
	if stats.WAL != nil {
		t.Fatalf("/stats grew a wal section without durable mode: %+v", stats.WAL)
	}
}

// TestMutationFailureMapping: PUT, DELETE, layer creation and bulk insert
// answer each mutation error with the same status and headers.
func TestMutationFailureMapping(t *testing.T) {
	const primary = "http://primary.invalid:8080"
	u := bbox.Rect(0, 0, 1000, 1000)
	// withA is a server over a store holding towns/a, prepared by arm.
	withA := func(arm func(*spatialdb.Store)) func(*testing.T) *Server {
		return func(t *testing.T) *Server {
			store := spatialdb.NewStore(u, spatialdb.RTree)
			store.MustInsert("towns", "a", region.FromBox(bbox.Rect(1, 1, 2, 2)))
			arm(store)
			return New(store, Options{})
		}
	}
	failSink := func(err error) func(*spatialdb.Store) {
		return func(s *spatialdb.Store) { s.SetMutationSink(func(*spatialdb.Mutation) error { return err }) }
	}
	cases := []struct {
		name       string
		server     func(*testing.T) *Server
		status     int
		retryAfter bool
		primary    string
	}{
		{"durability", withA(failSink(errors.New("disk full"))), http.StatusInternalServerError, false, ""},
		{"degraded", withA(func(s *spatialdb.Store) { s.SetDegraded(true) }), http.StatusServiceUnavailable, true, ""},
		{"degraded wrapped in durability", withA(failSink(fmt.Errorf("append: %w", spatialdb.ErrDegraded))),
			http.StatusServiceUnavailable, true, ""},
		{"replica", func(t *testing.T) *Server {
			rep, err := repl.New(repl.Options{Primary: primary, Transport: &repl.HTTPTransport{Base: primary},
				Kind: spatialdb.RTree, Universe: u})
			if err != nil {
				t.Fatal(err)
			}
			return New(rep.Store(), Options{Replica: rep})
		}, http.StatusServiceUnavailable, true, primary},
	}
	requests := []struct{ name, method, path, body string }{
		{"PUT", http.MethodPut, "/layers/towns/objects/x", `{"boxes":[{"lo":[10,10],"hi":[20,20]}]}`},
		{"DELETE", http.MethodDelete, "/layers/towns/objects/a", ""},
		{"create layer", http.MethodPut, "/layers/fresh", ""},
		{"bulk", http.MethodPost, "/layers/towns/objects:bulk", `[{"name":"b","boxes":[{"lo":[30,30],"hi":[40,40]}]}]`},
	}
	for _, c := range cases {
		for _, r := range requests {
			w := rawRequest(c.server(t), r.method, r.path, "application/json", r.body)
			label := c.name + " " + r.name
			if w.Code != c.status {
				t.Errorf("%s: status %d, want %d: %s", label, w.Code, c.status, w.Body.String())
			}
			if got := w.Header().Get("Retry-After") != ""; got != c.retryAfter {
				t.Errorf("%s: Retry-After %q, want set=%v", label, w.Header().Get("Retry-After"), c.retryAfter)
			}
			if got := w.Header().Get(PrimaryHeader); got != c.primary {
				t.Errorf("%s: %s %q, want %q", label, PrimaryHeader, got, c.primary)
			}
		}
	}
}
