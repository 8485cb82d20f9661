package query

import (
	"context"
	"sync/atomic"
)

// cancelCheckEvery is how many candidates an executor examines between
// context polls: frequent enough that a pathological query notices
// cancellation within microseconds of work, rare enough that the poll
// (one atomic load on the fast path) costs nothing measurable.
const cancelCheckEvery = 256

// execCtl coordinates bounded, cancellable execution: one per run,
// shared by every goroutine of that run. Cancellation is detected by
// polling the context's done channel and latched into an atomic flag so
// all workers see it on their next check; the solution limit is
// enforced with an atomic reservation counter so parallel workers never
// over-emit, whatever the interleaving. A yield returning false latches
// stopped, which halts every worker without flagging the run.
type execCtl struct {
	done      <-chan struct{} // nil when the context cannot be cancelled
	limit     int64           // max solutions to emit; ≤ 0 means unlimited
	emitted   atomic.Int64
	stopped   atomic.Bool
	cancelled atomic.Bool
	truncated atomic.Bool
}

func newExecCtl(ctx context.Context, limit int) *execCtl {
	c := &execCtl{limit: int64(limit)}
	if ctx != nil {
		c.done = ctx.Done()
	}
	return c
}

// poll samples the context. Once cancelled the flag latches, so every
// goroutine of the run halts on its next halted() check even if it
// never polls the channel itself.
func (c *execCtl) poll() bool {
	if c.cancelled.Load() {
		return true
	}
	if c.done == nil {
		return false
	}
	select {
	case <-c.done:
		c.cancelled.Store(true)
		return true
	default:
		return false
	}
}

// reserve claims one solution slot. False means the limit was already
// exhausted: the caller must drop its solution and unwind.
func (c *execCtl) reserve() bool {
	if c.limit <= 0 {
		return true
	}
	if c.emitted.Add(1) > c.limit {
		c.truncated.Store(true)
		return false
	}
	return true
}

// halted reports whether execution should unwind: the run was stopped
// or cancelled, or the solution limit has been reached. Reaching the limit
// marks the run truncated — the search stops before exhausting the space
// (a run whose solution count happens to equal the limit exactly may
// therefore also be flagged).
func (c *execCtl) halted() bool {
	if c.stopped.Load() || c.cancelled.Load() {
		return true
	}
	if c.limit > 0 && c.emitted.Load() >= c.limit {
		c.truncated.Store(true)
		return true
	}
	return false
}

// finish copies the run's outcome flags into its stats.
func (c *execCtl) finish(stats *Stats) {
	stats.Cancelled = c.cancelled.Load()
	stats.Truncated = c.truncated.Load()
}
