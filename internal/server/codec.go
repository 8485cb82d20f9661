// JSON wire types for boolqd. Boxes travel as {"lo": [...], "hi": [...]}
// (the same shape persist.go snapshots use), regions as box unions, and
// query results as name/id tuples plus the executor statistics, so a
// client can check the paper's pruning claims over the wire.
package server

import (
	"fmt"

	"repro/internal/bbox"
	"repro/internal/region"
	"repro/internal/repl"
	"repro/internal/spatialdb"
	"repro/internal/wal"
)

type jsonBox struct {
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

func toJSONBox(b bbox.Box) jsonBox {
	return jsonBox{
		Lo: append([]float64(nil), b.Lo...),
		Hi: append([]float64(nil), b.Hi...),
	}
}

// jsonRegion is a rectilinear region as a union of boxes.
type jsonRegion struct {
	Boxes []jsonBox `json:"boxes"`
}

func toJSONRegion(r *region.Region) jsonRegion {
	jr := jsonRegion{Boxes: []jsonBox{}}
	for _, b := range r.Boxes() {
		jr.Boxes = append(jr.Boxes, toJSONBox(b))
	}
	return jr
}

// toRegion validates and converts a wire region of dimensionality k.
func (jr jsonRegion) toRegion(k int) (*region.Region, error) {
	boxes := make([]bbox.Box, 0, len(jr.Boxes))
	for i, jb := range jr.Boxes {
		if len(jb.Lo) != k || len(jb.Hi) != k {
			return nil, fmt.Errorf("box %d: want %d-dimensional lo/hi, got %d/%d",
				i, k, len(jb.Lo), len(jb.Hi))
		}
		b, err := bbox.Make(jb.Lo, jb.Hi)
		if err != nil {
			return nil, fmt.Errorf("box %d: %w", i, err)
		}
		boxes = append(boxes, b)
	}
	return region.FromBoxes(k, boxes...), nil
}

// objectResponse is the GET/PUT representation of one stored object.
type objectResponse struct {
	Layer string    `json:"layer"`
	Name  string    `json:"name"`
	ID    int64     `json:"id"`
	Boxes []jsonBox `json:"boxes,omitempty"`
	Box   jsonBox   `json:"box"`
	Epoch uint64    `json:"epoch"`
}

func toObjectResponse(layer string, o spatialdb.Object, epoch uint64, withBoxes bool) objectResponse {
	resp := objectResponse{
		Layer: layer,
		Name:  o.Name,
		ID:    o.ID,
		Box:   toJSONBox(o.Box),
		Epoch: epoch,
	}
	if withBoxes {
		resp.Boxes = toJSONRegion(o.Reg).Boxes
	}
	return resp
}

// layerInfo is one row of the GET /layers listing.
type layerInfo struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Objects int    `json:"objects"`
}

// queryRequest is the POST /query body (also one element of a
// /query/batch request, so every bound below applies per batch query).
type queryRequest struct {
	Query   string                `json:"query"`
	Params  map[string]jsonRegion `json:"params,omitempty"`
	Workers int                   `json:"workers,omitempty"` // clamped to [1, MaxQueryWorkers] server-side
	Naive   bool                  `json:"naive,omitempty"`   // run the unoptimized baseline instead
	Explain bool                  `json:"explain,omitempty"` // include the compiled plan text
	NoIndex bool                  `json:"no_index,omitempty"`
	NoExact bool                  `json:"no_exact,omitempty"`
	// Limit stops the search after this many solutions (≤ 0: unlimited);
	// a capped run reports "truncated": true.
	Limit int `json:"limit,omitempty"`
	// TimeoutMS bounds this query's execution. It can only tighten the
	// server-side default (Options.QueryTimeout), never extend it; an
	// expired query returns its partial result with 408 and
	// "cancelled": true.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// bulkObject is one object of a POST /layers/{layer}/objects:bulk body
// (an element of the JSON array, or one NDJSON line).
type bulkObject struct {
	Name  string    `json:"name"`
	Boxes []jsonBox `json:"boxes"`
}

// bulkError reports one failed object of a bulk insert.
type bulkError struct {
	Index int    `json:"index"` // position in the uploaded batch
	Name  string `json:"name,omitempty"`
	Error string `json:"error"`
}

// bulkResponse is the POST /layers/{layer}/objects:bulk reply.
type bulkResponse struct {
	Layer    string      `json:"layer"`
	Mode     string      `json:"mode"`
	Received int         `json:"received"`
	Inserted int         `json:"inserted"`
	Failed   int         `json:"failed"`
	Epoch    uint64      `json:"epoch"`
	Errors   []bulkError `json:"errors,omitempty"`
	// Error is the batch-level failure (an aborted atomic batch, durability
	// loss, degraded mode, the replica gate) as opposed to the per-object
	// Errors above.
	Error string `json:"error,omitempty"`
}

// batchQueryRequest is the POST /query/batch body.
type batchQueryRequest struct {
	Queries []queryRequest `json:"queries"`
	// Concurrency bounds the worker pool draining the batch (≤ 0 uses the
	// server default; capped at MaxBatchConcurrency).
	Concurrency int `json:"concurrency,omitempty"`
}

// batchErrorLine is the NDJSON line of a /query/batch query that
// produced no result, tagged with the query's position in the batch.
// Result lines — the same index followed by the members of a /query reply
// — come from respEncoder. Lines are streamed in completion order, so
// clients must match results by index, not by line number.
type batchErrorLine struct {
	Index int    `json:"index"`
	Error string `json:"error,omitempty"`
	// Shed marks an error line produced by admission control (the query
	// never executed); the client may retry just this sub-query.
	Shed bool `json:"shed,omitempty"`
}

// batchSummary is the final NDJSON line of a POST /query/batch reply.
type batchSummary struct {
	Done      bool   `json:"done"`
	Queries   int    `json:"queries"`
	Errors    int    `json:"errors"`
	Shed      int    `json:"shed,omitempty"` // errors that were admission sheds
	Epoch     uint64 `json:"epoch"`
	ElapsedUS int64  `json:"elapsed_us"`
}

// statsResponse is the GET /stats reply, also served at GET /debug/vars:
// the server's one counter document.
type statsResponse struct {
	Epoch     uint64          `json:"epoch"`
	Layers    map[string]int  `json:"layers"`
	Cache     cacheStats      `json:"cache"`
	Planner   plannerStats    `json:"planner"`
	Queries   counterGroup    `json:"queries"`
	Batch     batchStats      `json:"batch"`
	Mutations mutationStats   `json:"mutations"`
	Bulk      bulkStats       `json:"bulk"`
	Snapshots snapshotStats   `json:"snapshots"`
	DB        spatialdb.Stats `json:"db"`
	// WAL is present only in durable mode (-data-dir): the write-ahead
	// log's position, checkpoint and fsync counters.
	WAL *wal.DBStats `json:"wal,omitempty"`
	// Degraded is present only in durable mode: the durability state
	// machine — whether mutations are currently rejected, why, and how the
	// retry/probe machinery has behaved over the server's lifetime.
	Degraded *degradedStats `json:"degraded,omitempty"`
	// Shed is present only with admission control on (-max-inflight): the
	// read and mutate pools plus the lifetime shed total.
	Shed *shedStats `json:"shed,omitempty"`
	// Replication is present only on a replica (-replica-of): stream
	// position, lag against the primary, and fetch-loop counters.
	Replication *repl.Stats `json:"replication,omitempty"`
}

// degradedStats summarizes the durability state machine for /stats.
type degradedStats struct {
	Degraded    bool   `json:"degraded"`
	ForMS       int64  `json:"for_ms,omitempty"` // time spent degraded so far
	Cause       string `json:"cause,omitempty"`
	Transitions int64  `json:"transitions"` // healthy→degraded entries, lifetime
	Probes      int64  `json:"probes"`      // background recovery attempts
	WALRetries  int64  `json:"wal_retries"` // in-line append retries
	Rearms      int64  `json:"rearms"`      // successful log repairs
}

// shedPool snapshots one admission pool for /stats.
type shedPool struct {
	MaxInflight int   `json:"max_inflight"`
	QueueDepth  int   `json:"queue_depth"`
	InFlight    int   `json:"in_flight"`
	Admitted    int64 `json:"admitted"`
	Queued      int64 `json:"queued"`
	ShedFull    int64 `json:"shed_queue_full"`
	ShedWait    int64 `json:"shed_deadline"`
}

// shedStats is the admission-control section of /stats.
type shedStats struct {
	Reads     *shedPool `json:"reads,omitempty"`
	Mutations *shedPool `json:"mutations,omitempty"`
	Total     int64     `json:"total"` // all requests shed, both pools
}

// plannerStats describes the adaptive planner's activity: how plans were
// chosen on cache misses and how much run-cost feedback has accumulated.
type plannerStats struct {
	Mode             string `json:"mode"`              // "adaptive" or "static"
	AdaptiveCompiles int64  `json:"adaptive_compiles"` // queries.compiles in adaptive mode, else 0
	Reordered        int64  `json:"reordered"`         // compiles that changed the retrieval order
	FeedbackUsed     int64  `json:"feedback_used"`     // compiles ranked by observed run costs
	Observations     int64  `json:"observations"`      // completed runs recorded into the tuner
	TunerKeys        int    `json:"tuner_keys"`        // distinct queries with feedback
}

type cacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
}

type counterGroup struct {
	Total    int64 `json:"total"`
	Errors   int64 `json:"errors"`
	Naive    int64 `json:"naive"`
	Compiles int64 `json:"compiles"`
	// Bounded-execution outcomes: runs stopped by their deadline, by
	// client disconnect, and by their solution limit.
	Timeouts  int64 `json:"timeouts"`
	Cancelled int64 `json:"cancelled"`
	Truncated int64 `json:"truncated"`
}

type mutationStats struct {
	Inserts int64 `json:"inserts"`
	Deletes int64 `json:"deletes"`
}

// bulkStats counts POST /layers/{layer}/objects:bulk traffic.
type bulkStats struct {
	Batches int64 `json:"batches"` // bulk requests handled
	Objects int64 `json:"objects"` // objects inserted by them
}

// batchStats counts POST /query/batch traffic.
type batchStats struct {
	Requests   int64 `json:"requests"`    // batch requests handled
	QueriesRun int64 `json:"queries_run"` // individual queries they executed
}

type snapshotStats struct {
	Saves int64 `json:"saves"`
	Loads int64 `json:"loads"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}
