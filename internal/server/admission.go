// Server-side overload admission control (DESIGN.md §9). Unbounded
// concurrent admission is how a serving tier dies under overload: every
// request that cannot make progress still holds memory, a goroutine and
// eventually a store guard, and the latency of everything behind it grows
// without bound. Instead, each expensive request class reserves a slot
// from a bounded pool before it touches the store:
//
//   - the read pool covers plan execution (/query, /query?stream=1, and
//     each sub-query of /query/batch individually)
//   - the mutate pool covers the write-lock endpoints (object PUT/DELETE,
//     layer creation, objects:bulk)
//
// When a pool is exhausted the request enters a bounded wait queue; when
// the queue is full — or the request's own deadline (or the queue wait
// cap) expires first — it is shed with 429 + Retry-After, never having
// touched the store or its guards. Cheap point reads and the
// observability endpoints (/stats and /debug/vars, /healthz, /readyz) are
// deliberately unguarded: an operator must be able to see an overloaded
// server.
package server

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"
)

// DefaultMaxQueueWait bounds how long a request may sit in the admission
// queue when neither it nor its context expires sooner.
const DefaultMaxQueueWait = 250 * time.Millisecond

// Shed reasons; both answer 429 with Retry-After.
var (
	errShedQueueFull = errors.New("server overloaded: admission queue full")
	errShedWait      = errors.New("server overloaded: gave up waiting for admission")
)

// errIsShed reports whether err is an admission shed.
func errIsShed(err error) bool {
	return errors.Is(err, errShedQueueFull) || errors.Is(err, errShedWait)
}

// shedReject answers a shed request: 429 Too Many Requests with a
// Retry-After hint. The pool that refused the request has counted it.
//
//boolq:errwriter
func shedReject(w http.ResponseWriter, err error) {
	writeRetryError(w, http.StatusTooManyRequests, retryAfterShed, "%v", err)
}

// admission is one bounded in-flight pool plus its wait queue. A nil
// *admission admits everything (the feature is off unless -max-inflight
// is set), so the zero-configuration path costs one nil check.
type admission struct {
	slots   chan struct{} // capacity = max in-flight reservations
	queue   chan struct{} // capacity = max waiters beyond the slots
	maxWait time.Duration

	admitted atomic.Int64 // reservations granted
	queued   atomic.Int64 // reservations that had to wait
	shedFull atomic.Int64 // rejected: queue full
	shedWait atomic.Int64 // rejected: deadline or wait cap expired queued
}

// newAdmission builds a pool of maxInflight slots with a queueDepth-deep
// wait queue. maxInflight ≤ 0 disables admission control (returns nil).
func newAdmission(maxInflight, queueDepth int, maxWait time.Duration) *admission {
	if maxInflight <= 0 {
		return nil
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	if maxWait <= 0 {
		maxWait = DefaultMaxQueueWait
	}
	return &admission{
		slots:   make(chan struct{}, maxInflight),
		queue:   make(chan struct{}, queueDepth),
		maxWait: maxWait,
	}
}

// acquire reserves a slot, waiting in the bounded queue if none is free.
// The wait is deadline-aware: it ends at the request context's deadline
// or after maxWait, whichever comes first, and the request is shed. The
// caller must invoke the returned release exactly once (on nil error).
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	if a == nil {
		return func() {}, nil
	}
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return a.release, nil
	default:
	}
	// No free slot: claim a queue position or shed immediately.
	select {
	case a.queue <- struct{}{}:
	default:
		a.shedFull.Add(1)
		return nil, errShedQueueFull
	}
	defer func() { <-a.queue }()
	a.queued.Add(1)
	t := time.NewTimer(a.maxWait)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return a.release, nil
	case <-ctx.Done():
		a.shedWait.Add(1)
		return nil, errShedWait
	case <-t.C:
		a.shedWait.Add(1)
		return nil, errShedWait
	}
}

func (a *admission) release() { <-a.slots }

// poolStats snapshots one pool for /stats.
func (a *admission) poolStats() *shedPool {
	if a == nil {
		return nil
	}
	return &shedPool{
		MaxInflight: cap(a.slots),
		QueueDepth:  cap(a.queue),
		InFlight:    len(a.slots),
		Admitted:    a.admitted.Load(),
		Queued:      a.queued.Load(),
		ShedFull:    a.shedFull.Load(),
		ShedWait:    a.shedWait.Load(),
	}
}

// shedTotal is the pool's lifetime shed count (0 for a nil pool).
func (a *admission) shedTotal() int64 {
	if a == nil {
		return 0
	}
	return a.shedFull.Load() + a.shedWait.Load()
}
