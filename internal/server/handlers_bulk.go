package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/spatialdb"
)

// Bulk/batch tuning.
const (
	// bulkMaxBodyBytes bounds objects:bulk bodies; bulk loads are the one
	// place a much larger body than maxBodyBytes is legitimate.
	bulkMaxBodyBytes = 256 << 20
	// DefaultBatchWorkers is the /query/batch pool size used when neither
	// Options.BatchWorkers nor the request sets one.
	DefaultBatchWorkers = 8
	// MaxBatchConcurrency caps the per-request concurrency override so a
	// single batch cannot monopolize the process.
	MaxBatchConcurrency = 64
)

// ---- POST /layers/{layer}/objects:bulk ----

// parseBulkMode maps the ?mode= query parameter to a spatialdb.BulkMode.
func parseBulkMode(s string) (spatialdb.BulkMode, error) {
	switch s {
	case "", "atomic":
		return spatialdb.BulkAtomic, nil
	case "best_effort", "best-effort":
		return spatialdb.BulkBestEffort, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want atomic or best_effort)", s)
	}
}

func (s *Server) handleBulkInsert(w http.ResponseWriter, r *http.Request) {
	store := s.Store()
	layer := r.PathValue("layer")
	mode, err := parseBulkMode(r.URL.Query().Get("mode"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := readBody(w, r, bulkMaxBodyBytes)
	var objs []wireObject
	if err == nil {
		objs, err = decodeBulk(body, store.K())
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding bulk body: %v", err)
		return
	}
	s.metrics.BulkBatches.Add(1)

	// The decoder refuses a region it cannot build; the store validates
	// the rest (it refuses empty regions and ones outside its universe).
	// errs collects both kinds of per-object failure by batch position.
	errs := make([]error, len(objs))
	items := make([]spatialdb.BulkItem, 0, len(objs))
	vidx := make([]int, 0, len(objs)) // items position → objs position
	for i, o := range objs {
		if o.err != nil {
			errs[i] = fmt.Errorf("region: %v", o.err)
			continue
		}
		items = append(items, spatialdb.BulkItem{Name: o.name, Reg: o.reg})
		vidx = append(vidx, i)
	}
	collectErrs := func() []bulkError {
		var out []bulkError
		for i, err := range errs {
			if err != nil {
				out = append(out, bulkError{Index: i, Name: objs[i].name, Error: err.Error()})
			}
		}
		return out
	}
	resp := bulkResponse{Layer: layer, Mode: mode.String(), Received: len(objs), Epoch: store.Epoch()}

	if mode == spatialdb.BulkAtomic && len(items) < len(objs) {
		resp.Failed = len(objs)
		resp.Errors = collectErrs()
		writeJSON(w, http.StatusBadRequest, resp)
		return
	}
	rep, err := store.BulkInsert(layer, items, mode)
	for vi, res := range rep.Results {
		if res.Err != nil {
			errs[vidx[vi]] = res.Err
		}
	}
	resp.Epoch = rep.Epoch
	resp.Inserted = rep.Inserted
	resp.Failed = len(objs) - rep.Inserted
	resp.Errors = collectErrs()
	if err != nil {
		resp.Error = err.Error()
		writeJSON(w, s.mutationFailure(w, err), resp)
		return
	}
	s.metrics.BulkObjects.Add(int64(rep.Inserted))
	status := http.StatusOK
	if resp.Failed > 0 {
		status = http.StatusMultiStatus
	}
	writeJSON(w, status, resp)
}

// ---- POST /query/batch ----

func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	if s.rejectStaleRead(w) {
		return
	}
	var req batchQueryRequest
	if decodeBody(w, r, &req) != nil {
		return
	}
	s.metrics.BatchRequests.Add(1)
	start := time.Now()

	// Pin one (store, generation, epoch) snapshot for the whole batch:
	// every query compiles (or cache-hits) against the same plan
	// generation, and the summary reports the epoch the batch ran at.
	// Each execution still takes the store's read guard for its own run,
	// so a slow client draining the stream never pins the store against
	// writers.
	store, gen := s.storeAndGen()
	epoch := store.Epoch()

	conc := req.Concurrency
	if conc <= 0 {
		conc = s.batchWorkers
	}
	if conc > MaxBatchConcurrency {
		conc = MaxBatchConcurrency
	}
	if conc > len(req.Queries) {
		conc = len(req.Queries)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var wmu sync.Mutex
	// writeRaw sends one encoded line; the status line is out, so there is
	// nothing to do on error.
	writeRaw := func(line []byte) {
		wmu.Lock()
		defer wmu.Unlock()
		_, _ = w.Write(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	// writeLine is writeRaw for the rare lines — errors and the summary —
	// that still go through encoding/json.
	writeLine := func(v any) {
		line, _ := json.Marshal(v)
		writeRaw(append(line, '\n'))
	}

	ctx := r.Context()
	var errCount, shedCount atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for range conc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// A disconnected client cancels the request context; stop
				// claiming queries instead of executing work nobody reads.
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(req.Queries) {
					return
				}
				s.metrics.BatchQueries.Add(1)
				// Each sub-query reserves its own read slot: a batch is just
				// many queries, and under overload it sheds per query — the
				// admitted remainder still runs — rather than all or nothing.
				release, aerr := s.readGate.acquire(ctx)
				if aerr != nil {
					shedCount.Add(1)
					errCount.Add(1)
					writeLine(batchErrorLine{Index: i, Error: aerr.Error(), Shed: true})
					continue
				}
				enc := acquireEncoder(false) // one result per line
				enc.begin(i)
				sum, err := s.execQuery(ctx, store, gen, epoch, &req.Queries[i], enc.add)
				release()
				if err != nil {
					enc.release()
					s.metrics.QueryErrors.Add(1)
					errCount.Add(1)
					writeLine(batchErrorLine{Index: i, Error: err.Error()})
					continue
				}
				enc.finish(&sum, sum.naive)
				writeRaw(enc.buf)
				enc.release()
			}
		}()
	}
	wg.Wait()
	writeLine(batchSummary{
		Done:      true,
		Queries:   len(req.Queries),
		Errors:    int(errCount.Load()),
		Shed:      int(shedCount.Load()),
		Epoch:     epoch,
		ElapsedUS: time.Since(start).Microseconds(),
	})
}
