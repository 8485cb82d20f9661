// Durability endpoints. When boolqd runs with -data-dir the server is
// constructed over a wal.DB (Options.Durable): every mutation handler's
// store call appends a WAL record before acknowledging, /stats grows
// its wal and degraded sections, and two probe endpoints become
// meaningful:
//
//	GET  /healthz     liveness + durability state — always 200 while the
//	                  process serves, with "state" healthy|degraded|replica
//	GET  /readyz      readiness — 200 only when this node should receive
//	                  traffic; 503 while degraded, draining, or (on a
//	                  replica) before catch-up (and the bootstrap handler
//	                  in cmd/boolqd answers 503 "recovering" while
//	                  recovery is still running)
//	POST /checkpoint  force a snapshot + WAL truncation now
//
// Both probes attach Retry-After whenever they report a transient state:
// degraded and replica-lagging conditions clear on their own, and the
// header tells pollers when to come back. /healthz stays 200 through all
// of them — degraded read-only mode is a state to report, not a reason
// to be restarted.
//
// POST /snapshot is refused in durable mode: swapping the store out from
// under the DB would disconnect it from the log. GET /snapshot (save)
// still works — it only reads. Replica mode (Options.Replica) rejects
// every local mutation with 503 plus the primary's address in the
// X-Boolq-Primary header; repl_handlers.go has the primary-side stream.
package server

import (
	"errors"
	"net/http"
	"strconv"

	"repro/internal/spatialdb"
)

// PrimaryHeader names the primary on replica mutation rejections, so a
// client that wrote to the wrong node learns where to go without parsing
// the error string.
const PrimaryHeader = "X-Boolq-Primary"

// retryAfterLagging is the Retry-After for replica-lagging 503s: catch-up
// is usually a stream flush away, so it is the short value.
const retryAfterLagging = 1

// mutationFailure is the one mapping from a failed mutation to its HTTP
// answer: it sets the headers that go with the error and returns the
// status. The replica gate (the write belongs on the primary, named in
// X-Boolq-Primary when known) and degraded read-only mode (the WAL is
// down and a background probe is repairing it) are 503 plus Retry-After —
// retryable somewhere, if not here; a mutation that degraded the store
// matches both ErrDurability and ErrDegraded and answers the same 503. A
// plain durability failure (the WAL append failed and the write must not
// be treated as acknowledged) is a server-side 500; anything else is the
// caller's 400.
func (s *Server) mutationFailure(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, spatialdb.ErrReplica):
		if rp := s.replica; rp != nil && rp.Primary() != "" {
			w.Header().Set(PrimaryHeader, rp.Primary())
		}
		fallthrough
	case errors.Is(err, spatialdb.ErrDegraded):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterDegraded))
		return http.StatusServiceUnavailable
	case errors.Is(err, spatialdb.ErrDurability):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// writeMutationError reports a failed mutation with mutationFailure's
// status and headers; the replica gate gets its own message.
//
//boolq:errwriter
func (s *Server) writeMutationError(w http.ResponseWriter, err error, format string, args ...any) {
	status := s.mutationFailure(w, err)
	if errors.Is(err, spatialdb.ErrReplica) {
		format, args = "store is a read-only replica", nil
		if primary := w.Header().Get(PrimaryHeader); primary != "" {
			format, args = "store is a read-only replica; write to the primary at %s", []any{primary}
		}
	}
	writeError(w, status, format, args...)
}

// writeProbe writes a probe response, attaching Retry-After whenever
// retryAfter > 0 — the one place /healthz and /readyz share, so the two
// probes can never again disagree about which transient states carry the
// header (PR 9 shipped a degraded /healthz without one while /readyz set
// it by hand).
func writeProbe(w http.ResponseWriter, status, retryAfter int, v any) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, status, v)
}

// durabilityState classifies the durable layer for the probe endpoints:
// "healthy", "degraded", or "" when the server is not durable.
func (s *Server) durabilityState() string {
	if s.durable == nil {
		return ""
	}
	if s.durable.Degraded() {
		return "degraded"
	}
	return "healthy"
}

// handleHealth is GET /healthz: liveness plus durability state. It
// always answers 200 while the process can serve at all — degraded
// read-only mode is a state to report, not a reason to be restarted —
// so orchestrators must key restarts on liveness and traffic on /readyz.
// Transient states still attach Retry-After so pollers that only watch
// this endpoint know when the state is worth re-reading.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{"ok": true, "state": "healthy"}
	retryAfter := 0
	if st := s.durabilityState(); st != "" {
		resp["state"] = st
		if st == "degraded" {
			resp["degraded"] = true
			resp["cause"] = s.durable.DegradeCause()
			retryAfter = retryAfterDegraded
		}
	}
	if rep := s.replica; rep != nil && !rep.Promoted() {
		resp["state"] = "replica"
		resp["primary"] = rep.Primary()
		resp["applied_lsn"] = rep.AppliedLSN()
		resp["lag"] = rep.Lag()
		if ready, reason := rep.Ready(); !ready {
			resp["lagging"] = true
			resp["reason"] = reason
			retryAfter = retryAfterLagging
		}
	}
	writeProbe(w, http.StatusOK, retryAfter, resp)
}

// handleReady is GET /readyz. The Server only exists after recovery
// (OpenDB is synchronous), so the bootstrap 503 ("recovering", answered
// by cmd/boolqd before the swap) never reaches this handler. A live
// server is unready while draining (BeginDrain has run; the listener is
// about to close), while degraded (mutations would 503, so load
// balancers can drain writes while reads continue), and on a replica
// that has not caught up — not bootstrapped, out of contact with the
// primary, or lagging past the staleness bound. Every 503 carries
// Retry-After.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{"ready": true, "durable": s.durable != nil}
	if s.draining.Load() {
		resp["ready"] = false
		resp["state"] = "draining"
		writeProbe(w, http.StatusServiceUnavailable, retryAfterDegraded, resp)
		return
	}
	if rep := s.replica; rep != nil {
		resp["replica"] = !rep.Promoted()
		resp["primary"] = rep.Primary()
		resp["applied_lsn"] = rep.AppliedLSN()
		resp["durable_lsn"] = rep.DurableLSN()
		resp["lag"] = rep.Lag()
		if ready, reason := rep.Ready(); !ready {
			resp["ready"] = false
			resp["state"] = "catching-up"
			resp["reason"] = reason
			writeProbe(w, http.StatusServiceUnavailable, retryAfterLagging, resp)
			return
		}
		resp["state"] = "ok"
		writeProbe(w, http.StatusOK, 0, resp)
		return
	}
	if s.durable != nil {
		st := s.durable.Stats()
		resp["replayed"] = st.Replayed
		resp["recovery_ms"] = st.RecoveryMS
		resp["applied_lsn"] = st.AppliedLSN
		if st.Degraded {
			resp["ready"] = false
			resp["state"] = "degraded"
			resp["cause"] = st.DegradeCause
			writeProbe(w, http.StatusServiceUnavailable, retryAfterDegraded, resp)
			return
		}
		resp["state"] = "healthy"
	}
	writeProbe(w, http.StatusOK, 0, resp)
}

// handleCheckpoint is POST /checkpoint: write a snapshot of the current
// state and truncate the WAL segments it covers.
func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	if s.durable == nil {
		writeError(w, http.StatusConflict, "not running in durable mode (start boolqd with -data-dir)")
		return
	}
	lsn, err := s.durable.Checkpoint()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"checkpointed": true, "lsn": lsn})
}
