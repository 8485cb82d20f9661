package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/lang"
	"repro/internal/query"
	"repro/internal/region"
	"repro/internal/repl"
	"repro/internal/spatialdb"
	"repro/internal/wal"
)

// maxBodyBytes bounds request bodies (regions, queries, snapshots).
const maxBodyBytes = 64 << 20

// decodeBody decodes a request body holding one JSON value, and nothing
// after it but whitespace, into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = fmt.Errorf("data after the body's JSON value at offset %d", dec.InputOffset())
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return err
	}
	return nil
}

// ---- layer CRUD ----

// layerInfos snapshots every layer's name, kind and size under the
// store's read guard.
func layerInfos(store *spatialdb.Store) []layerInfo {
	names := store.LayerNames()
	infos := make([]layerInfo, 0, len(names))
	store.RLock()
	for _, name := range names {
		if l, ok := store.LayerIfExists(name); ok {
			infos = append(infos, layerInfo{Name: name, Kind: l.Kind().String(), Objects: l.Len()})
		}
	}
	store.RUnlock()
	return infos
}

// layerSizes is layerInfos reduced to name → object count.
func layerSizes(store *spatialdb.Store) map[string]int {
	infos := layerInfos(store)
	out := make(map[string]int, len(infos))
	for _, li := range infos {
		out[li.Name] = li.Objects
	}
	return out
}

func (s *Server) handleListLayers(w http.ResponseWriter, _ *http.Request) {
	store := s.Store()
	writeJSON(w, http.StatusOK, map[string]any{
		"layers": layerInfos(store),
		"epoch":  store.Epoch(),
	})
}

func (s *Server) handleCreateLayer(w http.ResponseWriter, r *http.Request) {
	store := s.Store()
	name := r.PathValue("layer")
	l, created, err := store.CreateLayer(name)
	if err != nil {
		s.writeMutationError(w, err, "creating layer %q: %v", name, err)
		return
	}
	store.RLock()
	info := layerInfo{Name: name, Kind: l.Kind().String(), Objects: l.Len()}
	store.RUnlock()
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, info)
}

func (s *Server) handlePutObject(w http.ResponseWriter, r *http.Request) {
	store := s.Store()
	layer, name := r.PathValue("layer"), r.PathValue("name")
	body, err := readBody(w, r, maxBodyBytes)
	var reg *region.Region
	var regErr error
	if err == nil {
		reg, regErr, err = decodeRegionBody(body, store.K())
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return
	}
	if regErr != nil {
		writeError(w, http.StatusBadRequest, "region: %v", regErr)
		return
	}
	o, replaced, err := store.Upsert(layer, name, reg)
	if err != nil {
		s.writeMutationError(w, err, "upserting %s/%s: %v", layer, name, err)
		return
	}
	s.metrics.Inserts.Add(1)
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	writeJSON(w, status, toObjectResponse(layer, o, store.Epoch(), false))
}

func (s *Server) handleGetObject(w http.ResponseWriter, r *http.Request) {
	store := s.Store()
	layer, name := r.PathValue("layer"), r.PathValue("name")
	store.RLock()
	l, ok := store.LayerIfExists(layer)
	var o spatialdb.Object
	if ok {
		o, ok = l.GetByName(name)
	}
	var resp objectResponse
	if ok {
		resp = toObjectResponse(layer, o, store.Epoch(), true)
	}
	store.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no object %q in layer %q", name, layer)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDeleteObject(w http.ResponseWriter, r *http.Request) {
	store := s.Store()
	layer, name := r.PathValue("layer"), r.PathValue("name")
	ok, err := store.Remove(layer, name)
	if err != nil {
		s.writeMutationError(w, err, "deleting %s/%s: %v", layer, name, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no object %q in layer %q", name, layer)
		return
	}
	s.metrics.Deletes.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{
		"deleted": true,
		"epoch":   store.Epoch(),
	})
}

// ---- query execution ----

// MaxQueryWorkers caps the per-request workers override (mirroring
// MaxBatchConcurrency for batches): a request must not be able to make
// the server spawn an unbounded number of goroutines.
const MaxQueryWorkers = 64

// DefaultQueryTimeout is the server-side execution bound applied when
// Options.QueryTimeout is unset. Requests can tighten it per query via
// timeout_ms but never extend it.
const DefaultQueryTimeout = 30 * time.Second

// clampWorkers resolves the per-request parallelism: ≤ 0 falls back to
// the server default, anything above MaxQueryWorkers is clamped.
func (s *Server) clampWorkers(requested int) int {
	w := requested
	if w <= 0 {
		w = s.workers
	}
	if w > MaxQueryWorkers {
		w = MaxQueryWorkers
	}
	return w
}

// runTimeout is one run's execution bound: the server-side default
// timeout, tightened further by the request's own timeout_ms.
func (s *Server) runTimeout(timeoutMS int64) time.Duration {
	d := s.queryTimeout
	if timeoutMS > 0 {
		if rd := time.Duration(timeoutMS) * time.Millisecond; rd < d {
			d = rd
		}
	}
	return d
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.rejectStaleRead(w) {
		return
	}
	s.metrics.QueriesTotal.Add(1)
	var req queryRequest
	if decodeBody(w, r, &req) != nil {
		s.metrics.QueryErrors.Add(1)
		return
	}
	if streamRequested(r) {
		s.handleQueryStream(w, r, &req)
		return
	}
	enc := acquireEncoder(true)
	defer enc.release()
	store, gen := s.storeAndGen()
	enc.begin(-1)
	sum, err := s.execQuery(r.Context(), store, gen, store.Epoch(), &req, enc.add)
	if err != nil {
		s.metrics.QueryErrors.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	enc.finish(&sum, sum.naive)
	status := http.StatusOK
	if sum.stats.Cancelled {
		status = http.StatusRequestTimeout // the body is the partial result
	}
	// The reply was encoded while the run held the store's read guard; the
	// network write happens only now, with the guard released.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(enc.buf) // headers are out; nothing useful to do on error
}

// streamRequested reports whether ?stream=1 (or =true) was given.
func streamRequested(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true":
		return true
	}
	return false
}

// decodeParams converts the request's wire regions against the store's
// dimensionality.
func decodeParams(store *spatialdb.Store, req *queryRequest) (map[string]*region.Region, error) {
	params := make(map[string]*region.Region, len(req.Params))
	for name, jr := range req.Params {
		reg, err := jr.toRegion(store.K())
		if err != nil {
			return nil, errors.New("parameter " + name + ": " + err.Error())
		}
		params[name] = reg
	}
	return params, nil
}

// lookupPlan resolves the compiled plan for a normalized query through
// the plan cache: hit ⇒ skip Parse/Compile entirely. On a miss the plan
// compiles adaptively by default — the retrieval order is picked from the
// layer statistics plus any run costs the tuner has observed for this
// query — so the cached plan embeds a data-dependent choice; the cache
// already invalidates on every store epoch, which bounds how stale that
// choice can get. The epoch was read before the lookup; a mutation racing
// with this request at worst recompiles on the next request, never serves
// wrong plans (compiled plans are immutable and execution takes the
// store's read guard).
func (s *Server) lookupPlan(store *spatialdb.Store, gen, epoch uint64, normalized string, params map[string]*region.Region) (*query.Plan, bool, error) {
	plan, hit := s.cache.Get(normalized, gen, epoch)
	if hit {
		return plan, true, nil
	}
	q, err := lang.Parse(normalized)
	if err != nil {
		return nil, false, err
	}
	if s.staticPlan {
		if plan, err = query.Compile(q, store); err != nil {
			return nil, false, err
		}
	} else {
		plan, err = query.CompileAdaptive(q, store, query.AdaptiveOptions{
			Params:   params,
			Tuner:    s.tuner,
			TunerKey: normalized,
			Epoch:    epoch,
		})
		if err != nil {
			return nil, false, err
		}
		if info := plan.Adaptive; info != nil {
			if info.Reordered {
				s.metrics.PlanReordered.Add(1)
			}
			if info.FeedbackUsed > 0 {
				s.metrics.PlanFeedback.Add(1)
			}
		}
	}
	s.metrics.PlanCompiles.Add(1)
	s.cache.Put(normalized, gen, epoch, plan)
	return plan, false, nil
}

// execQuery resolves and runs one request against a pinned (store,
// generation, epoch) snapshot, lending each solution to yield as
// query.Plan.RunStream does; the handlers' yields encode. The batch
// handler pins the snapshot once so every query of a batch compiles and
// caches plans against the same plan generation; the single-query
// handlers pass the current one. Planned runs use the request's clamped
// workers; only the naive baseline buffers, then replays into yield. An
// expired or disconnected run returns its partial summary flagged
// cancelled rather than an error; every error is the client's (400).
func (s *Server) execQuery(ctx context.Context, store *spatialdb.Store, gen, epoch uint64, req *queryRequest, yield func(query.Solution) bool) (runSummary, error) {
	sum := runSummary{naive: req.Naive, epoch: epoch}
	normalized, err := lang.Normalize(req.Query)
	if err != nil {
		return sum, err
	}
	params, err := decodeParams(store, req)
	if err != nil {
		return sum, err
	}
	start := time.Now()
	qctx, cancel := context.WithTimeout(ctx, s.runTimeout(req.TimeoutMS))
	defer cancel()
	opts := query.Options{UseIndex: !req.NoIndex, UseExact: !req.NoExact, Limit: req.Limit}

	if req.Naive {
		s.metrics.QueriesNaive.Add(1)
		q, err := lang.Parse(normalized)
		if err != nil {
			return sum, err
		}
		res, err := query.RunNaiveCtx(qctx, q, store, params, opts)
		if err != nil {
			return sum, err
		}
		for _, sol := range res.Solutions {
			if !yield(sol) {
				break
			}
		}
		sum.stats = res.Stats
	} else {
		var plan *query.Plan
		if plan, sum.cached, err = s.lookupPlan(store, gen, epoch, normalized, params); err != nil {
			return sum, err
		}
		if sum.stats, err = plan.RunStream(qctx, store, params, opts, s.clampWorkers(req.Workers), yield); err != nil {
			return sum, err
		}
		sum.order = plan.OrderKey()
		if req.Explain {
			sum.plan = plan.Explain()
		}
		// Feed the run's cost back to the tuner, closing the adaptive loop:
		// the next compile of this query at a new epoch ranks its executed
		// order by this measured cost instead of the histogram estimate.
		if !s.staticPlan && s.tuner.Observe(normalized, sum.order, epoch, sum.stats) {
			s.metrics.TunerObservations.Add(1)
		}
	}
	// Expiry of the derived deadline counts as a timeout, any other
	// cancellation (client disconnect, parent cancel) as cancelled.
	switch {
	case sum.stats.Cancelled && errors.Is(qctx.Err(), context.DeadlineExceeded):
		s.metrics.QueryTimeouts.Add(1)
	case sum.stats.Cancelled:
		s.metrics.QueryCancelled.Add(1)
	}
	if sum.stats.Truncated {
		s.metrics.QueryTruncated.Add(1)
	}
	sum.elapsedUS = time.Since(start).Microseconds()
	return sum, nil
}

// handleQueryStream is POST /query?stream=1: each solution leaves as
// its own NDJSON line the moment a worker finds it, followed by one
// summary line — wide result sets never buffer server-side. The store's
// read guard is held while lines are written, so a slow client pins it;
// the run context (server timeout ∧ timeout_ms ∧ client disconnect)
// bounds for how long. The HTTP status is decided by the first line:
// errors detectable before execution (parse, compile, bad params) still
// get a clean 400.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request, req *queryRequest) {
	if req.Naive {
		s.metrics.QueryErrors.Add(1)
		writeError(w, http.StatusBadRequest, "stream=1 does not support naive execution")
		return
	}
	// Each response write carries the run's deadline as a connection
	// write deadline: the executor holds the store's read guard while
	// emitting, and without it a client that stops reading (TCP window
	// full, not disconnected) would block the write forever — the
	// executor's cancellation polls never run inside a stuck write, so
	// the guard would be pinned indefinitely. With it the write errors
	// out at the deadline, the yield returns false, and the run unwinds.
	// (SetWriteDeadline is unsupported on some ResponseWriters, e.g.
	// httptest recorders — then the context bound alone applies.) Taken
	// before execQuery derives the run's context, it is never the later.
	rc := http.NewResponseController(w)
	deadline := time.Now().Add(s.runTimeout(req.TimeoutMS))
	enc := acquireEncoder(false) // one value per line
	defer enc.release()
	headerOut := false
	writeFailed := false
	status := http.StatusOK
	// emit sends the line enc holds.
	emit := func() bool {
		if writeFailed {
			return false
		}
		_ = rc.SetWriteDeadline(deadline)
		if !headerOut {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(status)
			headerOut = true
		}
		if _, err := w.Write(enc.buf); err != nil {
			writeFailed = true
			return false
		}
		if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			writeFailed = true
			return false
		}
		return true
	}
	store, gen := s.storeAndGen()
	sum, err := s.execQuery(r.Context(), store, gen, store.Epoch(), req, func(sol query.Solution) bool {
		enc.streamSolution(sol)
		return emit()
	})
	if err != nil {
		// Before the first solution this is still a clean 400; afterwards
		// the stream has started and the error becomes its closing line.
		s.metrics.QueryErrors.Add(1)
		if !headerOut {
			writeError(w, http.StatusBadRequest, "%v", err)
		} else {
			line, _ := json.Marshal(errorResponse{Error: err.Error()})
			enc.buf = append(append(enc.buf[:0], line...), '\n')
			emit()
		}
		return
	}
	if sum.stats.Cancelled {
		// Only effective when no solution line has been written yet; an
		// in-flight stream keeps its 200 and flags the summary instead.
		status = http.StatusRequestTimeout
	}
	enc.streamSummary(&sum)
	emit()
}

// ---- stats, snapshots, metrics ----

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	store := s.Store()
	mt := s.metrics
	var walStats *wal.DBStats
	var degStats *degradedStats
	if s.durable != nil {
		st := s.durable.Stats()
		walStats = &st
		degStats = &degradedStats{
			Degraded:    st.Degraded,
			ForMS:       st.DegradedForMS,
			Cause:       st.DegradeCause,
			Transitions: st.DegradedEntered,
			Probes:      st.Probes,
			WALRetries:  st.WALRetries,
			Rearms:      st.Log.Rearms,
		}
	}
	var replStats *repl.Stats
	if s.replica != nil {
		st := s.replica.Stats()
		replStats = &st
	}
	var shed *shedStats
	if s.readGate != nil || s.mutGate != nil {
		shed = &shedStats{
			Reads:     s.readGate.poolStats(),
			Mutations: s.mutGate.poolStats(),
			Total:     s.readGate.shedTotal() + s.mutGate.shedTotal(),
		}
	}
	mode, adaptive := "adaptive", mt.PlanCompiles.Load()
	if s.staticPlan {
		mode, adaptive = "static", 0
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Epoch:  store.Epoch(),
		Layers: layerSizes(store),
		Cache: cacheStats{
			Hits:     s.cache.Hits(),
			Misses:   s.cache.Misses(),
			Entries:  s.cache.Len(),
			Capacity: s.cache.Cap(),
		},
		Planner: plannerStats{
			Mode:             mode,
			AdaptiveCompiles: adaptive,
			Reordered:        mt.PlanReordered.Load(),
			FeedbackUsed:     mt.PlanFeedback.Load(),
			Observations:     mt.TunerObservations.Load(),
			TunerKeys:        s.tuner.Len(),
		},
		Queries: counterGroup{
			Total:     mt.QueriesTotal.Load(),
			Errors:    mt.QueryErrors.Load(),
			Naive:     mt.QueriesNaive.Load(),
			Compiles:  mt.PlanCompiles.Load(),
			Timeouts:  mt.QueryTimeouts.Load(),
			Cancelled: mt.QueryCancelled.Load(),
			Truncated: mt.QueryTruncated.Load(),
		},
		Batch: batchStats{
			Requests:   mt.BatchRequests.Load(),
			QueriesRun: mt.BatchQueries.Load(),
		},
		Mutations:   mutationStats{Inserts: mt.Inserts.Load(), Deletes: mt.Deletes.Load()},
		Bulk:        bulkStats{Batches: mt.BulkBatches.Load(), Objects: mt.BulkObjects.Load()},
		Snapshots:   snapshotStats{Saves: mt.SnapshotSaves.Load(), Loads: mt.SnapshotLoads.Load()},
		DB:          store.TotalStats(),
		WAL:         walStats,
		Degraded:    degStats,
		Shed:        shed,
		Replication: replStats,
	})
}

func (s *Server) handleSnapshotSave(w http.ResponseWriter, _ *http.Request) {
	// Serialize into memory first: Save holds the store's read guard, and
	// streaming straight to a slow client would pin it (stalling every
	// writer, and behind the blocked writer every other reader).
	var buf bytes.Buffer
	if err := s.Store().Save(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, "saving snapshot: %v", err)
		return
	}
	s.metrics.SnapshotSaves.Add(1)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleSnapshotLoad(w http.ResponseWriter, r *http.Request) {
	if rp := s.replica; rp != nil && !rp.Promoted() {
		// Swapping a replica's store breaks the invariant that it is an
		// exact prefix of the primary; the next bootstrap would clobber the
		// load anyway.
		s.writeMutationError(w, spatialdb.ErrReplica, "")
		return
	}
	if s.durable != nil {
		// Swapping the store out would disconnect it from the write-ahead
		// log: the new store has no mutation sink, so nothing after the
		// swap would survive a restart. Ingest through the logged mutation
		// endpoints instead.
		writeError(w, http.StatusConflict,
			"snapshot load is disabled in durable mode; ingest via objects:bulk instead")
		return
	}
	old := s.Store()
	store, err := spatialdb.Load(http.MaxBytesReader(w, r.Body, maxBodyBytes), old.Kind())
	if err != nil {
		writeError(w, http.StatusBadRequest, "loading snapshot: %v", err)
		return
	}
	s.swapStore(store)
	s.metrics.SnapshotLoads.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{
		"loaded": true,
		"layers": layerSizes(store),
		"epoch":  store.Epoch(),
	})
}
