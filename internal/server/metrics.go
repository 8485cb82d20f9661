package server

import (
	"expvar"
	"sync"
)

// Metrics holds boolqd's service-level counters as expvar vars. The vars
// are created unpublished so tests can run many servers in one process;
// the first server constructed additionally publishes its map in the
// process-wide expvar registry under "boolqd", and every server serves
// its own map at GET /debug/vars.
type Metrics struct {
	QueriesTotal   expvar.Int
	QueryErrors    expvar.Int
	QueriesNaive   expvar.Int
	PlanCompiles   expvar.Int
	QueryTimeouts  expvar.Int // runs stopped by their execution deadline
	QueryCancelled expvar.Int // runs stopped by client disconnect/cancel
	QueryTruncated expvar.Int // runs capped by their solution limit
	// Adaptive-planner counters: compiles that went through
	// query.CompileAdaptive, how many changed the retrieval order, how
	// many were ranked by tuner feedback rather than the histogram
	// estimate alone, and completed runs recorded into the tuner.
	PlanAdaptive      expvar.Int
	PlanReordered     expvar.Int
	PlanFeedback      expvar.Int
	TunerObservations expvar.Int
	Inserts           expvar.Int
	Deletes           expvar.Int
	SnapshotSaves     expvar.Int
	SnapshotLoads     expvar.Int
	BulkBatches       expvar.Int // POST /layers/{layer}/objects:bulk requests
	BulkObjects       expvar.Int // objects inserted by bulk requests
	BatchRequests     expvar.Int // POST /query/batch requests
	BatchQueries      expvar.Int // individual queries run by batch requests
	Shed              expvar.Int // requests rejected by admission control (429)
}

var publishOnce sync.Once

// expvarMap assembles the published view: the raw counters plus live
// gauges (cache hits/misses/entries and the store epoch) computed from
// the server at read time.
func (s *Server) expvarMap() *expvar.Map {
	m := new(expvar.Map).Init()
	mt := s.metrics
	m.Set("queries_total", &mt.QueriesTotal)
	m.Set("query_errors", &mt.QueryErrors)
	m.Set("queries_naive", &mt.QueriesNaive)
	m.Set("plan_compiles", &mt.PlanCompiles)
	m.Set("query_timeouts", &mt.QueryTimeouts)
	m.Set("query_cancelled", &mt.QueryCancelled)
	m.Set("query_truncated", &mt.QueryTruncated)
	m.Set("inserts", &mt.Inserts)
	m.Set("deletes", &mt.Deletes)
	m.Set("snapshot_saves", &mt.SnapshotSaves)
	m.Set("snapshot_loads", &mt.SnapshotLoads)
	m.Set("bulk_batches", &mt.BulkBatches)
	m.Set("bulk_objects", &mt.BulkObjects)
	m.Set("batch_requests", &mt.BatchRequests)
	m.Set("batch_queries", &mt.BatchQueries)
	m.Set("shed_total", &mt.Shed)
	m.Set("plan_adaptive_compiles", &mt.PlanAdaptive)
	m.Set("plan_reordered", &mt.PlanReordered)
	m.Set("plan_feedback_used", &mt.PlanFeedback)
	m.Set("tuner_observations", &mt.TunerObservations)
	m.Set("tuner_keys", expvar.Func(func() any { return s.tuner.Len() }))
	m.Set("plan_cache_hits", expvar.Func(func() any { return s.cache.Hits() }))
	m.Set("plan_cache_misses", expvar.Func(func() any { return s.cache.Misses() }))
	m.Set("plan_cache_entries", expvar.Func(func() any { return s.cache.Len() }))
	m.Set("store_epoch", expvar.Func(func() any { return s.Store().Epoch() }))
	if db := s.durable; db != nil {
		m.Set("wal_applied_lsn", expvar.Func(func() any { return db.Stats().AppliedLSN }))
		m.Set("wal_checkpoint_lsn", expvar.Func(func() any { return db.Stats().CheckpointLSN }))
		m.Set("wal_checkpoints", expvar.Func(func() any { return db.Stats().Checkpoints }))
		m.Set("wal_checkpoint_failures", expvar.Func(func() any { return db.Stats().CheckpointErr }))
		m.Set("wal_append_errors", expvar.Func(func() any { return db.Stats().SinkErrors }))
		m.Set("wal_appends", expvar.Func(func() any { return db.Stats().Log.Appends }))
		m.Set("wal_fsyncs", expvar.Func(func() any { return db.Stats().Log.Fsyncs }))
		m.Set("wal_segments", expvar.Func(func() any { return db.Stats().Log.Segments }))
		m.Set("wal_retries", expvar.Func(func() any { return db.Stats().WALRetries }))
		m.Set("wal_rearms", expvar.Func(func() any { return db.Stats().Log.Rearms }))
		m.Set("degraded", expvar.Func(func() any {
			if db.Degraded() {
				return 1
			}
			return 0
		}))
	}
	if rep := s.replica; rep != nil {
		m.Set("repl_applied_lsn", expvar.Func(func() any { return rep.AppliedLSN() }))
		m.Set("repl_durable_lsn", expvar.Func(func() any { return rep.DurableLSN() }))
		m.Set("repl_lag", expvar.Func(func() any { return rep.Lag() }))
		m.Set("repl_records_applied", expvar.Func(func() any { return rep.Stats().Records }))
		m.Set("repl_snapshots_fetched", expvar.Func(func() any { return rep.Stats().Snapshots }))
		m.Set("repl_stream_errors", expvar.Func(func() any { return rep.Stats().StreamErrors }))
		m.Set("repl_promoted", expvar.Func(func() any {
			if rep.Promoted() {
				return 1
			}
			return 0
		}))
	}
	return m
}
