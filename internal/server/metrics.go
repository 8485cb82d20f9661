package server

import "sync/atomic"

// Metrics holds boolqd's service-level counters: each counts one event
// that no other component already counts. handleStats renders them,
// with the plan cache's, the admission pools' and the store's own
// counters, as the one statistics document served at GET /stats and
// GET /debug/vars.
type Metrics struct {
	QueriesTotal   atomic.Int64
	QueryErrors    atomic.Int64
	QueriesNaive   atomic.Int64
	PlanCompiles   atomic.Int64
	QueryTimeouts  atomic.Int64 // runs stopped by their execution deadline
	QueryCancelled atomic.Int64 // runs stopped by client disconnect/cancel
	QueryTruncated atomic.Int64 // runs capped by their solution limit
	// Adaptive-planner counters: compiles that changed the retrieval
	// order, compiles ranked by tuner feedback rather than the histogram
	// estimate alone, and completed runs recorded into the tuner.
	PlanReordered     atomic.Int64
	PlanFeedback      atomic.Int64
	TunerObservations atomic.Int64
	Inserts           atomic.Int64
	Deletes           atomic.Int64
	SnapshotSaves     atomic.Int64
	SnapshotLoads     atomic.Int64
	BulkBatches       atomic.Int64 // POST /layers/{layer}/objects:bulk requests
	BulkObjects       atomic.Int64 // objects inserted by bulk requests
	BatchRequests     atomic.Int64 // POST /query/batch requests
	BatchQueries      atomic.Int64 // individual queries run by batch requests
}
