package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// This file extends the PR 9 fault-injection pattern (vfs.Injector) from
// the disk to the replication link: a FaultTransport wraps any Transport
// with programmable failpoints so the chaos harness can inject
// disconnects, torn streams, corrupted records, stale-snapshot delays
// and slow links with the same deterministic, call-ordered matching the
// filesystem injector pins.

// Op classifies a transport operation for fault matching.
type Op uint8

// Operations a FaultTransport can fail.
const (
	OpSnapshot Op = iota // Transport.FetchSnapshot
	OpOpen               // Transport.OpenWAL
	OpNext               // RecordStream.Next
	opCount
)

// String returns the op name.
func (op Op) String() string {
	switch op {
	case OpSnapshot:
		return "snapshot"
	case OpOpen:
		return "open"
	case OpNext:
		return "next"
	default:
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
}

// ErrInjected is the default error an armed fault returns.
var ErrInjected = errors.New("repl: injected fault")

// Fault is one programmable transport failpoint. A fault matches an
// operation when the op kinds are equal; among matching operations the
// first After are let through, then the fault fires Count times
// (Count ≤ 0: forever), then it is spent — exactly vfs.Fault's
// semantics, so a fixed workload plus a fixed schedule always fails at
// the same operation.
type Fault struct {
	// Op is the operation kind to fail.
	Op Op
	// After lets this many matching operations through before firing.
	After int
	// Count is how many times to fire (≤ 0: forever).
	Count int
	// Err is the injected error (nil: ErrInjected). OpNext faults model a
	// disconnect mid-stream; OpOpen/OpSnapshot model a partition.
	Err error
	// Cut applies to OpNext: instead of Err, the stream ends with
	// io.ErrUnexpectedEOF — a torn stream, the primary vanishing without
	// a clean close.
	Cut bool
	// Corrupt applies to OpNext: the operation succeeds but one bit of
	// the record payload is flipped, so the replica's CRC check — not the
	// transport — must catch it.
	Corrupt bool
	// Delay is injected latency before the operation proceeds (a slow
	// link or a stale, slowly-served snapshot). It applies whether or not
	// the fault also injects an error.
	Delay time.Duration
}

type armedFault struct {
	Fault
	seen  int // matching ops observed
	fired int // times this fault injected
}

// spent reports whether the fault has fired its full Count.
func (f *armedFault) spent() bool {
	return f.Count > 0 && f.fired >= f.Count
}

func (f *armedFault) err() error {
	if f.Cut {
		return io.ErrUnexpectedEOF
	}
	if f.Err != nil {
		return f.Err
	}
	return ErrInjected
}

// FaultStats summarizes a FaultTransport's activity: how many operations
// it saw and how many faults it injected, per operation kind.
type FaultStats struct {
	Ops      int64 // operations observed
	Injected int64 // faults injected
	ByOp     map[string]int64
}

// FaultTransport wraps a Transport with programmable failpoints. Fault
// evaluation is deterministic: operations are matched in call order
// under one lock.
type FaultTransport struct {
	base Transport

	mu       sync.Mutex
	faults   []*armedFault
	ops      int64
	injected int64
	byOp     [opCount]int64
}

// NewFaultTransport wraps base with an empty fault schedule.
func NewFaultTransport(base Transport) *FaultTransport {
	return &FaultTransport{base: base}
}

// Add arms a fault. Faults are evaluated in Add order; the first armed
// match fires.
func (t *FaultTransport) Add(f Fault) *FaultTransport {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.faults = append(t.faults, &armedFault{Fault: f})
	return t
}

// Clear disarms every fault (spent or not).
func (t *FaultTransport) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.faults = nil
}

// FaultStats returns the transport's counters.
func (t *FaultTransport) FaultStats() FaultStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := FaultStats{Ops: t.ops, Injected: t.injected, ByOp: map[string]int64{}}
	for op, n := range t.byOp {
		if n > 0 {
			st.ByOp[Op(op).String()] = n
		}
	}
	return st
}

// check records one operation and returns the injected delay, whether to
// corrupt the payload, and the injected error (nil: proceed).
func (t *FaultTransport) check(op Op) (delay time.Duration, corrupt bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	for _, f := range t.faults {
		if f.Op != op {
			continue
		}
		f.seen++ // this op is the f.seen-th match for this fault
		if f.seen <= f.After || f.spent() {
			continue
		}
		f.fired++
		t.injected++
		t.byOp[op]++
		if f.Corrupt {
			return f.Delay, true, nil
		}
		if f.Err == nil && !f.Cut && f.Delay > 0 {
			return f.Delay, false, nil // pure slow-link fault
		}
		return f.Delay, false, f.err()
	}
	return 0, false, nil
}

// sleep waits out an injected delay, honoring ctx.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// FetchSnapshot implements Transport.
func (t *FaultTransport) FetchSnapshot(ctx context.Context) (*Snapshot, error) {
	delay, _, ferr := t.check(OpSnapshot)
	if err := sleepCtx(ctx, delay); err != nil {
		return nil, err
	}
	if ferr != nil {
		return nil, ferr
	}
	return t.base.FetchSnapshot(ctx)
}

// OpenWAL implements Transport.
func (t *FaultTransport) OpenWAL(ctx context.Context, after uint64) (RecordStream, error) {
	delay, _, ferr := t.check(OpOpen)
	if err := sleepCtx(ctx, delay); err != nil {
		return nil, err
	}
	if ferr != nil {
		return nil, ferr
	}
	s, err := t.base.OpenWAL(ctx, after)
	if err != nil {
		return nil, err
	}
	return &faultStream{base: s, t: t}, nil
}

type faultStream struct {
	base RecordStream
	t    *FaultTransport
}

func (s *faultStream) Next() (WireRecord, error) {
	delay, corrupt, ferr := s.t.check(OpNext)
	if delay > 0 {
		time.Sleep(delay)
	}
	if ferr != nil {
		return WireRecord{}, ferr
	}
	rec, err := s.base.Next()
	if err == nil && corrupt && len(rec.Data) > 0 {
		// Copy before flipping: the decoder may alias an internal buffer.
		data := append([]byte(nil), rec.Data...)
		data[0] ^= 0x40
		rec.Data = data
	}
	return rec, err
}

func (s *faultStream) Close() error { return s.base.Close() }
