// Package server implements boolqd, an HTTP/JSON query service over a
// spatialdb.Store: the serving layer that turns the PODS'91 pipeline
// from an in-process library into a concurrent network service.
//
// Endpoints:
//
//	PUT    /layers/{layer}                      create an empty layer
//	GET    /layers                              list layers
//	PUT    /layers/{layer}/objects/{name}       upsert an object (region JSON)
//	GET    /layers/{layer}/objects/{name}       fetch an object
//	DELETE /layers/{layer}/objects/{name}       delete an object
//	POST   /layers/{layer}/objects:bulk         bulk-insert objects (JSON array or NDJSON)
//	POST   /query                               run a textual query (?stream=1: NDJSON per solution)
//	POST   /query/batch                         run many queries, streaming NDJSON results
//	GET    /stats                               service + store statistics
//	GET    /debug/vars                          the /stats document
//	GET    /snapshot                            save the store as JSON
//	POST   /snapshot                            replace the store from JSON (409 in durable mode)
//	POST   /checkpoint                          force a durability checkpoint (durable mode only)
//	GET    /healthz                             liveness probe
//	GET    /readyz                              readiness probe (503 until recovery completes)
//	GET    /repl/snapshot                       stream the newest checkpoint to a replica (durable mode)
//	GET    /repl/wal?from=N                     long-poll NDJSON WAL stream for replicas (durable mode)
//	POST   /repl/promote                        re-arm a caught-up replica as a writable primary
//
// docs/API.md is the complete wire reference; DESIGN.md §3 describes the
// concurrency model this package implements.
//
// Queries are compiled through an LRU plan cache keyed by the normalized
// query text (lang.Normalize) and the store epoch: repeated queries skip
// Parse/Compile and execute the cached Plan directly, and any mutation
// (insert, delete, layer creation) bumps the epoch, invalidating every
// cached plan. Reads and writes may be issued concurrently: plan
// execution holds the store's read guard, mutations its write lock.
//
// Every execution is bounded: the server derives each run's context from
// the request context (client disconnects cancel it) plus a server-side
// default timeout (Options.QueryTimeout), which a request's timeout_ms
// can tighten but never extend; limit caps the solution count; and the
// per-request workers override is clamped to MaxQueryWorkers. Expired or
// disconnected runs release the store's read guard within a few hundred
// candidates and come back as 408 with partial results flagged
// cancelled; capped runs flag truncated. The timeouts, cancelled and
// truncated counters of /stats' queries section count the outcomes.
//
// The batch-shaped entry points exist because the single-object paths are
// where a production load falls over: objects:bulk takes the store's
// write lock once per batch, and a batch that is a sizable fraction of
// its layer rebuilds the index in one packed build (spatialdb.BulkInsert);
// the store, not the handler, validates each region. /query/batch
// compiles each distinct query once through the plan cache against one
// (store, generation, epoch) snapshot, fans execution across a bounded
// worker pool, and streams one NDJSON result line per query so large
// result sets never buffer server-side.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/internal/repl"
	"repro/internal/spatialdb"
	"repro/internal/wal"
)

// Options configures a Server.
type Options struct {
	// CacheSize is the plan-cache capacity (plans). ≤ 0 means
	// DefaultCacheSize.
	CacheSize int
	// Workers is the default parallelism for POST /query when the request
	// does not set its own (≤ 1 means serial execution).
	Workers int
	// BatchWorkers is the default worker-pool size for POST /query/batch
	// when the request does not set its own concurrency (≤ 0 means
	// DefaultBatchWorkers).
	BatchWorkers int
	// QueryTimeout bounds every query execution server-side (≤ 0 means
	// DefaultQueryTimeout). A request's timeout_ms can tighten it but
	// never extend it, so no single query can hold the store's read
	// guard longer than this.
	QueryTimeout time.Duration
	// Durable, when set, is the wal.DB whose recovered store this server
	// serves. It enables POST /checkpoint and the durability sections
	// of /stats, and disables POST /snapshot (replacing the
	// store would disconnect it from the write-ahead log). The store
	// passed to New must be Durable.Store().
	Durable *wal.DB
	// StaticPlan disables statistics-driven adaptive planning: plans
	// compile in the query's own retrieval order with no feedback, as
	// before PR 7. Exposed as boolqd's -plan flag for A/B comparisons.
	StaticPlan bool
	// MaxInflight bounds concurrently admitted expensive requests: one
	// pool of this many slots for plan-executing reads and a separate
	// equal-sized pool for mutations (admission.go). ≤ 0 disables
	// admission control entirely.
	MaxInflight int
	// ShedQueue is how many requests may wait for a slot per pool before
	// further arrivals are shed with 429 (< 0 or 0: no queue — shed as
	// soon as the pool is full). Only meaningful with MaxInflight > 0.
	ShedQueue int
	// MaxQueueWait caps how long a queued request waits for a slot
	// (≤ 0: DefaultMaxQueueWait). The request's own deadline still
	// applies, whichever comes first.
	MaxQueueWait time.Duration
	// Replica, when set, marks this server as a read replica tailing a
	// primary (boolqd -replica-of). The store passed to New must be
	// Replica.Store(); New hooks the replica's bootstrap swaps into
	// swapStore so the plan cache and generation follow snapshot installs.
	// Mutations are rejected with 503 + the primary's address, /readyz
	// gates on catch-up, and POST /repl/promote re-arms the node as a
	// writable primary. Mutually exclusive with Durable.
	Replica *repl.Replica
	// RejectStaleReads additionally gates /query and /query/batch on the
	// replica's readiness (bootstrap, contact, staleness bound): a lagging
	// replica 503s reads instead of serving stale results. Only meaningful
	// with Replica set.
	RejectStaleReads bool
}

// Server is the boolqd HTTP service over one spatial store.
type Server struct {
	mu    sync.RWMutex     // guards store and gen: POST /snapshot swaps them
	store *spatialdb.Store //boolq:guardedby mu
	// gen is the store generation, bumped on every swap.
	gen          uint64 //boolq:guardedby mu
	cache        *PlanCache
	metrics      *Metrics
	workers      int
	batchWorkers int
	queryTimeout time.Duration
	durable      *wal.DB       // nil unless running over a WAL data dir
	replica      *repl.Replica // nil unless running as a read replica
	rejectStale  bool          // 503 reads while the replica lags
	staticPlan   bool
	tuner        *query.Tuner // run-cost feedback for the adaptive planner
	readGate     *admission   // plan-executing reads; nil: unbounded
	mutGate      *admission   // mutations; nil: unbounded
	mux          *http.ServeMux

	// draining flips on BeginDrain (SIGTERM): /readyz 503s so load
	// balancers stop routing here, and open /repl/wal streams are sealed
	// with an end record so replicas reconnect elsewhere. In-flight
	// requests still finish — connection teardown is http.Server.Shutdown's
	// job.
	draining  atomic.Bool
	drainOnce sync.Once
	drainc    chan struct{} // closed by BeginDrain
}

// New returns a server over the given store.
func New(store *spatialdb.Store, opts Options) *Server {
	bw := opts.BatchWorkers
	if bw <= 0 {
		bw = DefaultBatchWorkers
	}
	qt := opts.QueryTimeout
	if qt <= 0 {
		qt = DefaultQueryTimeout
	}
	s := &Server{
		store:        store,
		cache:        NewPlanCache(opts.CacheSize),
		metrics:      &Metrics{},
		workers:      opts.Workers,
		batchWorkers: bw,
		queryTimeout: qt,
		durable:      opts.Durable,
		replica:      opts.Replica,
		rejectStale:  opts.RejectStaleReads,
		staticPlan:   opts.StaticPlan,
		tuner:        query.NewTuner(0),
		readGate:     newAdmission(opts.MaxInflight, opts.ShedQueue, opts.MaxQueueWait),
		mutGate:      newAdmission(opts.MaxInflight, opts.ShedQueue, opts.MaxQueueWait),
		drainc:       make(chan struct{}),
	}
	if s.replica != nil {
		s.replica.SetOnSwap(s.swapStore)
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Store returns the current backing store (it changes on snapshot load).
func (s *Server) Store() *spatialdb.Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store
}

// storeAndGen returns the store together with its generation as one
// consistent pair — the generation tags plan-cache entries so a plan
// compiled against one store can never be served against its successor.
func (s *Server) storeAndGen() (*spatialdb.Store, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store, s.gen
}

// swapStore replaces the backing store and drops all cached plans, whose
// epochs are meaningless against the new store. The generation bump
// makes the drop safe against concurrent queries: an in-flight Put
// tagged with the old generation can land after Clear, but no lookup
// will ever match it again.
func (s *Server) swapStore(store *spatialdb.Store) {
	s.mu.Lock()
	s.store = store
	s.gen++
	s.mu.Unlock()
	s.cache.Clear()
}

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /layers", s.handleListLayers)
	s.mux.HandleFunc("PUT /layers/{layer}", admitted(s.mutGate, s.handleCreateLayer))
	s.mux.HandleFunc("PUT /layers/{layer}/objects/{name}", admitted(s.mutGate, s.handlePutObject))
	s.mux.HandleFunc("GET /layers/{layer}/objects/{name}", s.handleGetObject)
	s.mux.HandleFunc("DELETE /layers/{layer}/objects/{name}", admitted(s.mutGate, s.handleDeleteObject))
	s.mux.HandleFunc("POST /layers/{layer}/objects:bulk", admitted(s.mutGate, s.handleBulkInsert))
	s.mux.HandleFunc("POST /query", admitted(s.readGate, s.handleQuery))
	s.mux.HandleFunc("POST /query/batch", s.handleQueryBatch)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /debug/vars", s.handleStats)
	s.mux.HandleFunc("GET /snapshot", s.handleSnapshotSave)
	s.mux.HandleFunc("POST /snapshot", s.handleSnapshotLoad)
	s.mux.HandleFunc("POST /checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /repl/snapshot", s.handleReplSnapshot)
	s.mux.HandleFunc("GET /repl/wal", s.handleReplWAL)
	s.mux.HandleFunc("POST /repl/promote", s.handleReplPromote)
}

// BeginDrain starts a graceful shutdown: /readyz flips to 503 and open
// /repl/wal streams emit an end record and return, so replicas and load
// balancers move on before the listener closes. Idempotent; call it
// before http.Server.Shutdown.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainc)
	})
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // headers are out; nothing useful to do on error
}

// writeError writes a JSON error body. Handlers must return immediately
// after calling it: anything written afterwards lands inside or after a
// committed error response.
//
//boolq:errwriter
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// Retry-After values, in seconds. Shed requests can come back as soon as
// in-flight work drains; a degraded store needs its background probe to
// succeed first, so it advertises a longer pause.
const (
	retryAfterShed     = 1
	retryAfterDegraded = 5
)

// writeRetryError is writeError plus a Retry-After header — the 429/503
// responses that tell a well-behaved client when to come back. The
// header must be set before the status line goes out.
//
//boolq:errwriter
func writeRetryError(w http.ResponseWriter, status, retryAfter int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}
