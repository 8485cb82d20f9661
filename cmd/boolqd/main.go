// Command boolqd serves constraint queries over HTTP: the boolq pipeline
// (normalize → triangularize → bounding-box plans → incremental
// execution) behind a concurrent JSON API with a compiled-plan cache.
//
//	boolqd -demo                          # serve the generated smuggler map
//	boolqd -snapshot db.json              # serve a saved store
//	boolqd -data-dir /var/lib/boolqd      # durable: WAL + snapshots, crash recovery
//	boolqd -replica-of http://primary:8080  # read replica tailing the primary's WAL
//	boolqd -addr :9000 -index gridfile -workers 8
//
// Try it:
//
//	curl localhost:8080/layers
//	curl -X POST localhost:8080/query -d '{
//	  "query": "find T in towns given C where T !<= C",
//	  "params": {"C": {"boxes": [{"lo": [100,100], "hi": [900,900]}]}}
//	}'
//	curl -X POST localhost:8080/layers/towns/objects:bulk -d '[
//	  {"name": "t1", "boxes": [{"lo": [10,10], "hi": [20,20]}]},
//	  {"name": "t2", "boxes": [{"lo": [30,30], "hi": [40,40]}]}
//	]'
//	curl localhost:8080/stats
//
// With -data-dir set, every acknowledged mutation is appended to a
// write-ahead log before the response leaves (fsynced per -fsync), a
// background checkpointer writes binary snapshots and truncates the log,
// and startup recovers the store from the newest snapshot plus the WAL
// tail. GET /readyz answers 503 until recovery completes, then 200.
//
// See docs/API.md for the full endpoint reference (including the bulk
// ingestion and streaming batch-query endpoints), internal/server for
// the implementation, and DESIGN.md (§6 for durability) for how the
// service layers over the library.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bbox"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/spatialdb"
	"repro/internal/wal"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "boolqd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		indexName = flag.String("index", "rtree", "index backend: scan|rtree|point-rtree|gridfile|zorder")
		snapshot  = flag.String("snapshot", "", "store snapshot to load at startup (JSON, see /snapshot)")
		universe  = flag.String("universe", "0,0,1000,1000", "universe box x0,y0,x1,y1 when starting empty")
		workers   = flag.Int("workers", 0, "default query parallelism (requests may override)")
		batchWork = flag.Int("batch-workers", server.DefaultBatchWorkers,
			"default /query/batch worker-pool size (requests may override)")
		cacheSize    = flag.Int("cache-size", server.DefaultCacheSize, "plan cache capacity")
		queryTimeout = flag.Duration("query-timeout", server.DefaultQueryTimeout,
			"server-side bound on each query execution (requests may tighten it via timeout_ms)")
		readHeaderTimeout = flag.Duration("read-header-timeout", 10*time.Second,
			"http.Server.ReadHeaderTimeout: max time to receive request headers (slowloris guard)")
		readTimeout = flag.Duration("read-timeout", 2*time.Minute,
			"http.Server.ReadTimeout: max time to receive a full request including its body")
		idleTimeout = flag.Duration("idle-timeout", 2*time.Minute,
			"http.Server.IdleTimeout: max keep-alive idle time between requests")
		demo  = flag.Bool("demo", false, "populate the generated §2 smuggler map instead of starting empty")
		seed  = flag.Uint64("seed", 42, "demo map seed")
		scale = flag.Int("scale", 1, "demo map size multiplier")

		planMode = flag.String("plan", "adaptive",
			"planning mode: adaptive (statistics-driven retrieval order with run-cost feedback) or static (the query's own order; for A/B comparison)")

		dataDir = flag.String("data-dir", "",
			"durable mode: directory for the write-ahead log and snapshots (empty: in-memory only)")
		fsyncPolicy = flag.String("fsync", "interval",
			"WAL fsync policy: always (fsync before every ack), interval, never")
		fsyncInterval = flag.Duration("fsync-interval", wal.DefaultSyncInterval,
			"flush+fsync cadence under -fsync interval (the crash-loss window)")
		walSegment = flag.Int64("wal-segment", wal.DefaultSegmentBytes,
			"WAL segment rotation threshold in bytes")
		ckptInterval = flag.Duration("checkpoint-interval", wal.DefaultCheckpointInterval,
			"how often the background checkpointer considers writing a snapshot")
		ckptBytes = flag.Int64("checkpoint-bytes", 0,
			"WAL bytes since the last snapshot that trigger a checkpoint (0: the segment size)")
		walRetryMax = flag.Int("wal-retry-max", wal.DefaultRetryMax,
			"in-line retries (with backoff) of a failed WAL append before the store degrades to read-only (negative: no retries)")

		maxInflight = flag.Int("max-inflight", 0,
			"admission control: max concurrently admitted requests per pool (reads and mutations each get this many slots); 0: unbounded")
		shedQueue = flag.Int("shed-queue", 0,
			"admission control: waiters allowed per pool beyond -max-inflight before arrivals are shed with 429 (0: shed as soon as the pool is full)")

		replicaOf = flag.String("replica-of", "",
			"replica mode: primary base URL to tail (e.g. http://primary:8080); the store is read-only and converges by streaming the primary's WAL")
		maxStaleness = flag.Uint64("max-staleness", 1024,
			"replica mode: /readyz reports ready only while the replica is at most this many records behind the primary (0: no lag bound)")
		rejectStaleReads = flag.Bool("reject-stale-reads", false,
			"replica mode: additionally 503 /query and /query/batch while the replica is outside its staleness bound")
	)
	flag.Parse()

	kind, err := spatialdb.ParseIndexKind(*indexName)
	if err != nil {
		return err
	}
	staticPlan, err := parsePlanMode(*planMode)
	if err != nil {
		return err
	}

	// The listener opens before recovery behind a switchable handler:
	// /healthz answers 200 and everything else (notably /readyz) 503
	// while the store is still being recovered; the real API is swapped
	// in once it is live. In-memory startup passes through the same path
	// with a near-instant swap.
	//
	// No WriteTimeout: /query/batch and /query?stream=1 responses are
	// long-lived streams; execution time is bounded per query by
	// -query-timeout instead, and dead clients are detected through the
	// request context.
	handler := newSwitchHandler(bootstrapHandler())
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("boolqd listening on %s (index %s, plan cache %d, workers %d)",
			*addr, kind, *cacheSize, *workers)
		errc <- httpSrv.ListenAndServe()
	}()

	if *replicaOf != "" && *dataDir != "" {
		return errors.New("-replica-of and -data-dir are mutually exclusive: a replica's durability is the primary's WAL")
	}

	var store *spatialdb.Store
	var db *wal.DB
	var rep *repl.Replica
	if *replicaOf != "" {
		u, err := parseUniverse(*universe)
		if err != nil {
			return err
		}
		rep, err = repl.New(repl.Options{
			Primary:      *replicaOf,
			Transport:    &repl.HTTPTransport{Base: *replicaOf},
			Kind:         kind,
			Universe:     u,
			MaxStaleness: *maxStaleness,
		})
		if err != nil {
			return err
		}
		store = rep.Store()
		log.Printf("replica mode: tailing %s (max staleness %d records)", *replicaOf, *maxStaleness)
	} else if *dataDir != "" {
		policy, err := wal.ParsePolicy(*fsyncPolicy)
		if err != nil {
			return err
		}
		db, err = openDurable(*dataDir, kind, wal.Options{
			SegmentBytes: *walSegment,
			Policy:       policy,
			Interval:     *fsyncInterval,
		}, *ckptInterval, *ckptBytes, *walRetryMax, *snapshot, *universe, *demo, *seed, *scale)
		if err != nil {
			return err
		}
		defer db.Close()
		store = db.Store()
	} else {
		store, err = openStore(*snapshot, *universe, kind, *demo, *seed, *scale)
		if err != nil {
			return err
		}
	}
	for _, name := range store.LayerNames() {
		l := store.Layer(name)
		log.Printf("layer %q: %d objects (%s)", name, l.Len(), l.Kind())
	}

	srv := server.New(store, server.Options{
		CacheSize: *cacheSize, Workers: *workers, BatchWorkers: *batchWork,
		QueryTimeout: *queryTimeout, Durable: db, StaticPlan: staticPlan,
		MaxInflight: *maxInflight, ShedQueue: *shedQueue,
		Replica: rep, RejectStaleReads: *rejectStaleReads,
	})
	if *maxInflight > 0 {
		log.Printf("admission control: %d in-flight per pool, queue depth %d", *maxInflight, *shedQueue)
	}
	if rep != nil {
		// Started after server.New so the server's swapStore hook is in
		// place before the first bootstrap can install a snapshot.
		rep.Start()
		defer rep.Stop()
	}
	handler.Set(srv.Handler())
	log.Print("serving")

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Print("shutting down")
		// Drain first: /readyz flips to 503 and open /repl/wal streams are
		// sealed with an end record, so load balancers and replicas move on
		// while in-flight requests finish under Shutdown's grace window.
		srv.BeginDrain()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if rep != nil {
			rep.Stop()
			log.Print("replication stopped")
		}
		if db != nil {
			// Seal the log: buffered records are flushed and fsynced, so
			// a SIGTERM loses nothing regardless of the fsync policy.
			if err := db.Close(); err != nil {
				return err
			}
			log.Print("wal sealed")
		}
		return nil
	}
}

// switchHandler atomically swaps the handler behind the listener, so the
// port can open (and /healthz answer) before recovery finishes.
type switchHandler struct{ v atomic.Value }

func newSwitchHandler(initial http.Handler) *switchHandler {
	h := &switchHandler{}
	h.v.Store(initial)
	return h
}

func (h *switchHandler) Set(next http.Handler) { h.v.Store(next) }

func (h *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.v.Load().(http.Handler).ServeHTTP(w, r)
}

// bootstrapHandler serves while the store is recovering: alive but not
// ready. /readyz (like every other path) answers 503 until the real API
// replaces this handler.
func bootstrapHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("{\n  \"ok\": true\n}\n"))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("{\n  \"error\": \"recovering\"\n}\n"))
	})
	return mux
}

// openDurable opens (creating if needed) the WAL-backed store in dataDir
// and recovers it. A fresh directory may be seeded from -snapshot or
// -demo; the seed mutations run through the store's normal API, so they
// are logged like any other write. A directory that already holds state
// ignores the seed flags — its own contents win.
func openDurable(dataDir string, kind spatialdb.IndexKind, logOpts wal.Options,
	ckptInterval time.Duration, ckptBytes int64, retryMax int,
	snapshot, universe string, demo bool, seed uint64, scale int) (*wal.DB, error) {

	// Resolve the universe a fresh store starts with (a recovered
	// snapshot's universe always wins) and hold on to the seed contents.
	var seedStore *spatialdb.Store
	var m *workload.Map
	var u bbox.Box
	switch {
	case snapshot != "":
		f, err := os.Open(snapshot)
		if err != nil {
			return nil, err
		}
		seedStore, err = spatialdb.Load(f, kind)
		f.Close()
		if err != nil {
			return nil, err
		}
		u = seedStore.Universe()
	case demo:
		m = workload.GenMap(workload.MapConfig{
			Seed:  seed,
			Towns: 12 * scale, Interior: 12 * scale, Roads: 30 * scale,
		})
		u = m.Config.Universe
	default:
		var err error
		if u, err = parseUniverse(universe); err != nil {
			return nil, err
		}
	}

	db, err := wal.OpenDB(dataDir, wal.DBOptions{
		Log: logOpts, Kind: kind, Universe: u,
		CheckpointInterval: ckptInterval, CheckpointBytes: ckptBytes,
		RetryMax: retryMax,
	})
	if err != nil {
		return nil, err
	}
	st := db.Stats()
	log.Printf("recovered %s in %dms: snapshot lsn %d + %d replayed records (fsync %s)",
		dataDir, st.RecoveryMS, st.RecoveredFrom, st.Replayed, st.Policy)

	fresh := st.RecoveredFrom == 0 && st.AppliedLSN == 0 && len(db.Store().LayerNames()) == 0
	switch {
	case fresh && seedStore != nil:
		if err := copyStore(db.Store(), seedStore); err != nil {
			db.Close()
			return nil, fmt.Errorf("seeding from %s: %w", snapshot, err)
		}
		log.Printf("seeded from snapshot %s", snapshot)
	case fresh && m != nil:
		m.Populate(db.Store())
		log.Printf("generated demo map (seed %d, scale %d); parameters C=%v A=%v",
			seed, scale, m.Country.BoundingBox(), m.Area.BoundingBox())
	case !fresh && (seedStore != nil || m != nil):
		log.Printf("data dir %s already holds state; ignoring -snapshot/-demo", dataDir)
	}
	return db, nil
}

// copyStore replays src's contents into dst through the public mutation
// API, so in durable mode every object lands in the WAL.
func copyStore(dst, src *spatialdb.Store) error {
	for _, name := range src.LayerNames() {
		if _, _, err := dst.CreateLayer(name); err != nil {
			return err
		}
		for _, o := range src.Layer(name).Objects() {
			var err error
			if o.Name != "" {
				_, _, err = dst.Upsert(name, o.Name, o.Reg)
			} else {
				_, err = dst.Insert(name, "", o.Reg)
			}
			if err != nil {
				return fmt.Errorf("object %q: %w", o.Name, err)
			}
		}
	}
	return nil
}

func openStore(snapshot, universe string, kind spatialdb.IndexKind, demo bool, seed uint64, scale int) (*spatialdb.Store, error) {
	if snapshot != "" {
		f, err := os.Open(snapshot)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		store, err := spatialdb.Load(f, kind)
		if err != nil {
			return nil, err
		}
		log.Printf("loaded snapshot %s", snapshot)
		return store, nil
	}
	if demo {
		m := workload.GenMap(workload.MapConfig{
			Seed:  seed,
			Towns: 12 * scale, Interior: 12 * scale, Roads: 30 * scale,
		})
		store := spatialdb.NewStore(m.Config.Universe, kind)
		m.Populate(store)
		log.Printf("generated demo map (seed %d, scale %d); parameters C=%v A=%v",
			seed, scale, m.Country.BoundingBox(), m.Area.BoundingBox())
		return store, nil
	}
	u, err := parseUniverse(universe)
	if err != nil {
		return nil, err
	}
	return spatialdb.NewStore(u, kind), nil
}

func parseUniverse(s string) (bbox.Box, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return bbox.Box{}, fmt.Errorf("universe: want x0,y0,x1,y1, got %q", s)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return bbox.Box{}, fmt.Errorf("universe: %w", err)
		}
		vals[i] = v
	}
	u := bbox.Rect(vals[0], vals[1], vals[2], vals[3])
	if u.IsEmpty() {
		return bbox.Box{}, fmt.Errorf("universe: empty box %q", s)
	}
	return u, nil
}

// parsePlanMode resolves -plan; true means static (adaptive disabled).
func parsePlanMode(mode string) (bool, error) {
	switch mode {
	case "adaptive":
		return false, nil
	case "static":
		return true, nil
	}
	return false, fmt.Errorf("unknown plan mode %q (want adaptive or static)", mode)
}
