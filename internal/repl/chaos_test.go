// Two-node chaos matrix: a real primary (wal.DB + server over httptest)
// and a tailing Replica joined by a FaultTransport, driven through the
// fault schedules ISSUE 10 pins — disconnects, torn streams, corrupted
// records, partitions across checkpoint truncation, primary crash plus
// promotion, and staleness-gated readiness. Every scenario asserts exact
// state equality through the public store API, and the convergence
// scenario runs across all five index backends.
package repl_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bbox"
	"repro/internal/region"
	"repro/internal/repl"
	"repro/internal/retry"
	"repro/internal/server"
	"repro/internal/spatialdb"
	"repro/internal/wal"
)

var (
	testUniverse = bbox.Rect(0, 0, 1000, 1000)
	allKinds     = []spatialdb.IndexKind{
		spatialdb.Scan, spatialdb.RTree, spatialdb.PointRTree,
		spatialdb.Grid, spatialdb.ZOrderIdx,
	}
)

// fastRetry keeps reconnect latency far below the wait deadlines.
var fastRetry = retry.Policy{Base: 2 * time.Millisecond, Cap: 25 * time.Millisecond, Jitter: 0.5}

// scriptOp applies the i-th operation of the deterministic mutation
// script (the same shape internal/wal's recovery tests pin): every op
// succeeds and logs exactly one WAL record, so applying the first n ops
// to a fresh store reproduces the state records 1..n replicate to.
func scriptOp(i int, s *spatialdb.Store) error {
	x := float64((i * 37) % 900)
	y := float64((i * 53) % 900)
	box := bbox.Rect(x, y, x+5, y+5)
	switch i % 6 {
	case 0:
		_, _, err := s.CreateLayer(fmt.Sprintf("layer-%d", i))
		return err
	case 1:
		_, err := s.Insert("towns", fmt.Sprintf("t%d", i), region.FromBox(box))
		return err
	case 2:
		_, _, err := s.Upsert("towns", fmt.Sprintf("u%d", i%4),
			region.FromBoxes(2, box, bbox.Rect(x, y+20, x+5, y+25)))
		return err
	case 3:
		_, err := s.Insert("roads", "", region.FromBox(box))
		return err
	case 4:
		_, err := s.BulkInsert("roads", []spatialdb.BulkItem{
			{Name: fmt.Sprintf("r%d-a", i), Reg: region.FromBox(box)},
			{Name: fmt.Sprintf("r%d-b", i), Reg: region.FromBox(bbox.Rect(x, y+40, x+5, y+45))},
		}, spatialdb.BulkAtomic)
		return err
	default: // i%6 == 5: remove the insert from step i-4 (i-4 ≡ 1 mod 6)
		ok, err := s.Remove("towns", fmt.Sprintf("t%d", i-4))
		if err == nil && !ok {
			return fmt.Errorf("op %d: remove target t%d missing", i, i-4)
		}
		return err
	}
}

func runScript(t *testing.T, s *spatialdb.Store, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := scriptOp(i, s); err != nil {
			t.Fatalf("script op %d: %v", i, err)
		}
	}
}

// scriptState is the expected store after the first n script ops.
func scriptState(t *testing.T, kind spatialdb.IndexKind, n int) *spatialdb.Store {
	t.Helper()
	s := spatialdb.NewStore(testUniverse, kind)
	runScript(t, s, 0, n)
	return s
}

// assertStoresEqual compares two stores through the public API: layer
// order, per-layer objects in ascending id order (id, name, region) and
// planner statistics, and the id counter.
func assertStoresEqual(t *testing.T, got, want *spatialdb.Store, label string) {
	t.Helper()
	if !got.Universe().Equal(want.Universe()) {
		t.Fatalf("%s: universe %v, want %v", label, got.Universe(), want.Universe())
	}
	gn, wn := got.LayerNames(), want.LayerNames()
	if len(gn) != len(wn) {
		t.Fatalf("%s: layers %v, want %v", label, gn, wn)
	}
	for i := range gn {
		if gn[i] != wn[i] {
			t.Fatalf("%s: layers %v, want %v", label, gn, wn)
		}
	}
	for _, name := range wn {
		gobjs, wobjs := got.Layer(name).Objects(), want.Layer(name).Objects()
		if len(gobjs) != len(wobjs) {
			t.Fatalf("%s: layer %q: %d objects, want %d", label, name, len(gobjs), len(wobjs))
		}
		for i := range wobjs {
			g, w := gobjs[i], wobjs[i]
			if g.ID != w.ID || g.Name != w.Name || !g.Reg.Equal(w.Reg) {
				t.Fatalf("%s: layer %q object %d: (%d,%q), want (%d,%q)",
					label, name, i, g.ID, g.Name, w.ID, w.Name)
			}
		}
		if !statsEqual(got, want, name) {
			t.Fatalf("%s: layer %q: planner statistics differ", label, name)
		}
	}
	if got.NextID() != want.NextID() {
		t.Fatalf("%s: NextID %d, want %d", label, got.NextID(), want.NextID())
	}
}

// statsEqual compares one layer's planner statistics in two stores, each
// read under its store's read guard.
func statsEqual(a, b *spatialdb.Store, layer string) bool {
	as, bs := a.Layer(layer).DataStats(), b.Layer(layer).DataStats()
	a.RLock()
	defer a.RUnlock()
	b.RLock()
	defer b.RUnlock()
	return as.Equal(bs)
}

// primaryNode is one in-process primary: a durable store behind a real
// HTTP listener serving the /repl endpoints.
type primaryNode struct {
	db  *wal.DB
	srv *server.Server
	ts  *httptest.Server
}

// newPrimary starts a durable primary. Checkpoints are disabled; tests
// that exercise truncation call Checkpoint themselves.
func newPrimary(t *testing.T, kind spatialdb.IndexKind, keepSnapshots int) *primaryNode {
	t.Helper()
	db, err := wal.OpenDB(t.TempDir(), wal.DBOptions{
		Kind:     kind,
		Universe: testUniverse,
		Log:      wal.Options{Policy: wal.SyncAlways, SegmentBytes: 512},
		// Tests drive Checkpoint directly for deterministic truncation.
		CheckpointInterval: -1, CheckpointBytes: -1,
		KeepSnapshots: keepSnapshots,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db.Store(), server.Options{Durable: db})
	ts := httptest.NewServer(srv.Handler())
	p := &primaryNode{db: db, srv: srv, ts: ts}
	t.Cleanup(func() {
		p.ts.Close()
		p.db.Close()
	})
	return p
}

// newReplica builds (but does not start) a replica of p. Every replica
// goes through a FaultTransport; tests arm faults on the returned
// transport before or after Start.
func newReplica(t *testing.T, p *primaryNode, kind spatialdb.IndexKind, maxStaleness uint64) (*repl.Replica, *repl.FaultTransport) {
	t.Helper()
	ft := repl.NewFaultTransport(&repl.HTTPTransport{Base: p.ts.URL})
	rep, err := repl.New(repl.Options{
		Primary:      p.ts.URL,
		Transport:    ft,
		Kind:         kind,
		Universe:     testUniverse,
		MaxStaleness: maxStaleness,
		Retry:        fastRetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Stop)
	return rep, ft
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitCaughtUp waits until the replica has applied everything the
// primary durably acknowledged.
func waitCaughtUp(t *testing.T, rep *repl.Replica, p *primaryNode) {
	t.Helper()
	want := p.db.DurableLSN()
	waitFor(t, 10*time.Second, fmt.Sprintf("replica to reach LSN %d", want), func() bool {
		return rep.AppliedLSN() >= want
	})
}

// TestChaosReplicationConvergesAllKinds runs the full fault schedule —
// a corrupted record (caught by the replica's CRC check), a mid-stream
// disconnect, and a torn stream — against every index backend, with
// writes continuing while the replica tails, and asserts exact state
// equality at the end.
func TestChaosReplicationConvergesAllKinds(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			p := newPrimary(t, kind, 2)
			runScript(t, p.db.Store(), 0, 12)

			rep, ft := newReplica(t, p, kind, 0)
			ft.Add(repl.Fault{Op: repl.OpNext, After: 2, Count: 1, Corrupt: true}).
				Add(repl.Fault{Op: repl.OpNext, After: 6, Count: 1}).
				Add(repl.Fault{Op: repl.OpNext, After: 9, Count: 1, Cut: true})
			rep.Start()

			// Keep writing while the replica fights through the schedule.
			runScript(t, p.db.Store(), 12, 24)
			waitCaughtUp(t, rep, p)

			assertStoresEqual(t, rep.Store(), scriptState(t, kind, 24), kind.String())
			st := rep.Stats()
			if st.CRCErrors == 0 {
				t.Errorf("corrupt fault never tripped the CRC check: %+v", st)
			}
			if st.StreamErrors < 3 {
				t.Errorf("stream_errors = %d, want ≥ 3 (corrupt + disconnect + cut)", st.StreamErrors)
			}
			// ByOp counts injections, not the operations observed.
			if fs := ft.FaultStats(); fs.Injected != 3 || len(fs.ByOp) != 1 || fs.ByOp["next"] != 3 {
				t.Errorf("fault stats = %+v, want 3 injected, all on next", fs)
			}
			if !rep.Store().IsReplica() {
				t.Error("replica store lost its replica gate")
			}
		})
	}
}

// TestChaosReplicaKillRestartMidStream stops the replica mid-catch-up,
// keeps writing on the primary, then restarts it: the fetch loop resumes
// from the applied LSN and reconverges without a new snapshot.
func TestChaosReplicaKillRestartMidStream(t *testing.T) {
	p := newPrimary(t, spatialdb.RTree, 2)
	runScript(t, p.db.Store(), 0, 10)

	rep, _ := newReplica(t, p, spatialdb.RTree, 0)
	rep.Start()
	waitFor(t, 10*time.Second, "first records to apply", func() bool {
		return rep.AppliedLSN() >= 5
	})
	rep.Stop() // kill mid-stream

	runScript(t, p.db.Store(), 10, 30) // primary moves on while the replica is down
	applied := rep.AppliedLSN()
	snapshotsBefore := rep.Stats().Snapshots

	rep.Start()
	waitCaughtUp(t, rep, p)
	assertStoresEqual(t, rep.Store(), scriptState(t, spatialdb.RTree, 30), "after restart")
	if rep.AppliedLSN() < applied {
		t.Fatalf("applied LSN went backwards: %d < %d", rep.AppliedLSN(), applied)
	}
	if got := rep.Stats().Snapshots; got != snapshotsBefore {
		t.Fatalf("restart fetched %d new snapshots; resume should tail from the cursor", got-snapshotsBefore)
	}
}

// TestChaosPartitionAcrossTruncationResnapshots partitions the replica,
// lets the primary checkpoint and truncate the WAL past the replica's
// cursor, then heals the link: OpenWAL comes back 410 Gone and the
// replica must re-bootstrap from the snapshot to reconverge.
func TestChaosPartitionAcrossTruncationResnapshots(t *testing.T) {
	p := newPrimary(t, spatialdb.Grid, 1)
	runScript(t, p.db.Store(), 0, 10)

	rep, ft := newReplica(t, p, spatialdb.Grid, 0)
	rep.Start()
	waitCaughtUp(t, rep, p)

	// Partition: the live stream tears, and every reconnect fails.
	ft.Add(repl.Fault{Op: repl.OpNext, Cut: true}).
		Add(repl.Fault{Op: repl.OpOpen, Err: fmt.Errorf("injected partition")}).
		Add(repl.Fault{Op: repl.OpSnapshot, Err: fmt.Errorf("injected partition")})

	// While partitioned the primary moves on and checkpoints: records
	// 1..30 are truncated, putting the replica's cursor (10) behind
	// retention.
	runScript(t, p.db.Store(), 10, 30)
	if _, err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runScript(t, p.db.Store(), 30, 36)

	ft.Clear() // heal
	waitCaughtUp(t, rep, p)
	assertStoresEqual(t, rep.Store(), scriptState(t, spatialdb.Grid, 36), "after re-snapshot")
	if st := rep.Stats(); st.Snapshots < 1 {
		t.Fatalf("replica never re-bootstrapped from a snapshot: %+v", st)
	}
}

// TestChaosPrimaryCrashPromote kills the primary outright after the
// replica caught up, promotes the replica through its own HTTP surface,
// and verifies every write the primary acknowledged at durable_lsn is
// visible on the promoted node — which then accepts new writes.
func TestChaosPrimaryCrashPromote(t *testing.T) {
	p := newPrimary(t, spatialdb.ZOrderIdx, 2)
	runScript(t, p.db.Store(), 0, 17)
	acked := p.db.DurableLSN()

	rep, _ := newReplica(t, p, spatialdb.ZOrderIdx, 0)
	repSrv := server.New(rep.Store(), server.Options{Replica: rep})
	rep.Start()
	waitCaughtUp(t, rep, p)

	// Writes on the replica are refused with 503 + the primary's address.
	body := `{"boxes":[{"lo":[1,1],"hi":[2,2]}]}`
	w := httptest.NewRecorder()
	repSrv.ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/layers/towns/objects/local",
		strings.NewReader(body)))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("replica write: %d, want 503 (%s)", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Boolq-Primary"); got != p.ts.URL {
		t.Fatalf("X-Boolq-Primary = %q, want %q", got, p.ts.URL)
	}

	// Primary crash: no drain, no goodbye.
	p.ts.CloseClientConnections()
	p.ts.Close()
	p.db.Close()

	// Promotion over the replica's own HTTP surface.
	w = httptest.NewRecorder()
	repSrv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/repl/promote", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("promote: %d %s", w.Code, w.Body.String())
	}
	if !rep.Promoted() {
		t.Fatal("replica not promoted after POST /repl/promote")
	}
	if rep.AppliedLSN() != acked {
		t.Fatalf("promoted at LSN %d, want the primary's durable %d", rep.AppliedLSN(), acked)
	}

	// Every acknowledged write is visible; the node now takes writes.
	assertStoresEqual(t, rep.Store(), scriptState(t, spatialdb.ZOrderIdx, 17), "promoted node")
	w = httptest.NewRecorder()
	repSrv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("promoted /readyz: %d %s", w.Code, w.Body.String())
	}
	w = httptest.NewRecorder()
	repSrv.ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/layers/towns/objects/after-promote",
		strings.NewReader(body)))
	if w.Code != http.StatusCreated {
		t.Fatalf("post-promotion write: %d %s", w.Code, w.Body.String())
	}
}

// TestChaosPromoteRefusesLaggingReplica pins the failover safety rule:
// a replica that has not applied everything the primary durably
// acknowledged refuses promotion and keeps replicating.
func TestChaosPromoteRefusesLaggingReplica(t *testing.T) {
	p := newPrimary(t, spatialdb.RTree, 2)
	runScript(t, p.db.Store(), 0, 12)

	// Slow every record down so the replica is mid-catch-up for a while.
	rep, ft := newReplica(t, p, spatialdb.RTree, 0)
	ft.Add(repl.Fault{Op: repl.OpNext, Delay: 20 * time.Millisecond})
	rep.Start()

	// Wait until it knows the stream end but is still well short of it
	// (≥ 3 records ≈ 60ms of margin before it could catch up).
	waitFor(t, 10*time.Second, "replica to be mid-catch-up", func() bool {
		return rep.DurableLSN() > 0 && rep.AppliedLSN()+3 <= rep.DurableLSN()
	})
	if _, err := rep.Promote(); err == nil {
		t.Fatal("promotion of a lagging replica succeeded; want refusal")
	}
	if rep.Promoted() {
		t.Fatal("replica marked promoted after refused promotion")
	}
	// Replication must have survived the refusal.
	ft.Clear()
	waitCaughtUp(t, rep, p)
	if _, err := rep.Promote(); err != nil {
		t.Fatalf("promotion after catch-up: %v", err)
	}
}

// TestChaosStalenessGatesReadyz pins the bounded-staleness contract: a
// replica outside -max-staleness answers 503 on /readyz (with
// Retry-After), flipping to 200 once it catches back up.
func TestChaosStalenessGatesReadyz(t *testing.T) {
	p := newPrimary(t, spatialdb.Scan, 2)
	runScript(t, p.db.Store(), 0, 24)

	// Trickle records: 24 pending, 10ms each, staleness bound 2.
	rep, ft := newReplica(t, p, spatialdb.Scan, 2)
	ft.Add(repl.Fault{Op: repl.OpNext, Delay: 10 * time.Millisecond, Count: 20})
	repSrv := server.New(rep.Store(), server.Options{Replica: rep, RejectStaleReads: true})
	rep.Start()

	readyz := func() (*httptest.ResponseRecorder, int) {
		w := httptest.NewRecorder()
		repSrv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return w, w.Code
	}
	var lagging *httptest.ResponseRecorder
	waitFor(t, 10*time.Second, "readyz to report lagging", func() bool {
		// "bootstrapping" answers 503 too, and clears on its own before
		// the stale-read check below; only a lag-bound 503 holds for it.
		w, code := readyz()
		if code == http.StatusServiceUnavailable && strings.Contains(w.Body.String(), "lagging") {
			lagging = w
			return true
		}
		return false
	})
	if ra := lagging.Header().Get("Retry-After"); ra == "" {
		t.Fatal("lagging /readyz carries no Retry-After")
	}
	// The stale-read gate rejects queries with the same shape.
	w := httptest.NewRecorder()
	repSrv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"query":"find T in towns"}`)))
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("stale read: %d (Retry-After %q), want 503 with Retry-After",
			w.Code, w.Header().Get("Retry-After"))
	}

	waitCaughtUp(t, rep, p)
	waitFor(t, 10*time.Second, "readyz to recover", func() bool {
		_, code := readyz()
		return code == http.StatusOK
	})
}

// TestChaosPrimaryDrainSealsStream starts a graceful drain on the
// primary and verifies the replica's stream ends cleanly (an end record,
// not an error) while the primary's /readyz flips to 503.
func TestChaosPrimaryDrainSealsStream(t *testing.T) {
	p := newPrimary(t, spatialdb.PointRTree, 2)
	runScript(t, p.db.Store(), 0, 8)

	rep, _ := newReplica(t, p, spatialdb.PointRTree, 0)
	rep.Start()
	waitCaughtUp(t, rep, p)
	opensBefore := rep.Stats().StreamOpens

	p.srv.BeginDrain()
	w := httptest.NewRecorder()
	p.srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz: %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("draining /readyz carries no Retry-After")
	}
	// The sealed stream ends cleanly; the replica reconnects (the drained
	// primary keeps answering until the listener closes, so opens climb)
	// without counting stream errors.
	errsBefore := rep.Stats().StreamErrors
	waitFor(t, 10*time.Second, "replica to cycle after drain", func() bool {
		return rep.Stats().StreamOpens > opensBefore
	})
	if got := rep.Stats().StreamErrors; got != errsBefore {
		t.Fatalf("drain produced %d stream errors; want a clean end record", got-errsBefore)
	}
	assertStoresEqual(t, rep.Store(), scriptState(t, spatialdb.PointRTree, 8), "after drain")
}
