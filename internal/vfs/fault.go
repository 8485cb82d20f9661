package vfs

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"syscall"
)

// Op classifies a filesystem operation for fault matching.
type Op uint8

// Operations an Injector can fail.
const (
	OpOpen     Op = iota // Open / OpenFile without O_CREATE
	OpCreate             // OpenFile with O_CREATE, CreateTemp
	OpWrite              // File.Write
	OpSync               // File.Sync
	OpSyncDir            // FS.SyncDir
	OpRename             // FS.Rename
	OpRemove             // FS.Remove
	OpTruncate           // FS.Truncate
	OpRead               // File.Read
	opCount
)

// String returns the op name.
func (op Op) String() string {
	switch op {
	case OpOpen:
		return "open"
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpSyncDir:
		return "sync_dir"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpTruncate:
		return "truncate"
	case OpRead:
		return "read"
	default:
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
}

// ErrInjected is the default error an armed fault returns.
var ErrInjected = errors.New("vfs: injected fault")

// Fault is one programmable failpoint. A fault matches an operation when
// the op kinds are equal and Path (substring, "" = any) occurs in the
// operation's path. Among matching operations, the first After are let
// through, then the fault fires Count times (Count ≤ 0: forever — a
// permanent fault), then it is spent.
type Fault struct {
	// Op is the operation kind to fail.
	Op Op
	// Path is a substring the operation's path must contain ("": any).
	Path string
	// After lets this many matching operations through before firing.
	After int
	// Count is how many times to fire (≤ 0: forever).
	Count int
	// Err is the injected error (nil: ErrInjected). Use syscall.ENOSPC,
	// syscall.EIO etc. to model specific disk conditions.
	Err error
	// Partial applies to OpWrite: the write stores this many leading
	// bytes before failing — a short (torn) write. 0 stores nothing.
	Partial int
	// CorruptBit applies to OpRead: instead of returning an error, the
	// read succeeds with one bit of its first byte flipped.
	CorruptBit bool
}

// fault is a Fault plus its firing state.
type fault struct {
	Fault
	seen  int // matching ops observed
	fired int // times this fault injected
}

// armed reports whether the fault would fire on its next matching op.
func (f *fault) armed() bool {
	if f.seen < f.After {
		return false
	}
	return f.Count <= 0 || f.fired < f.Count
}

func (f *fault) err() error {
	if f.Err != nil {
		return f.Err
	}
	return ErrInjected
}

// FaultStats summarizes an Injector's activity: how many operations it
// saw and how many faults it injected, per operation kind.
type FaultStats struct {
	Ops      int64 // operations observed
	Injected int64 // faults injected
	ByOp     map[string]int64
}

// Injector is an FS wrapping another FS with programmable failpoints.
// Fault evaluation is deterministic: operations are matched in call
// order under one lock, so a fixed workload plus a fixed fault schedule
// always fails at the same operation.
type Injector struct {
	base FS

	mu       sync.Mutex
	faults   []*fault
	budget   int64 // remaining write bytes before ENOSPC; < 0: unlimited
	ops      int64
	injected int64
	byOp     [opCount]int64
}

// NewInjector wraps base (nil: OS) with an empty fault schedule.
func NewInjector(base FS) *Injector {
	if base == nil {
		base = OS
	}
	return &Injector{base: base, budget: -1}
}

// Add appends a failpoint to the schedule and returns the injector for
// chaining.
func (in *Injector) Add(f Fault) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults = append(in.faults, &fault{Fault: f})
	return in
}

// SetWriteBudget arms an ENOSPC condition: after n more written bytes
// (across all files), every write fails with syscall.ENOSPC, storing
// only the bytes that fit. A negative n removes the budget.
func (in *Injector) SetWriteBudget(n int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.budget = n
}

// Clear removes every failpoint and any write budget — the disk is
// healthy again. Counters are preserved.
func (in *Injector) Clear() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults = nil
	in.budget = -1
}

// FaultStats returns the injector's counters.
func (in *Injector) FaultStats() FaultStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := FaultStats{Ops: in.ops, Injected: in.injected}
	for op, n := range in.byOp {
		if n > 0 {
			if st.ByOp == nil {
				st.ByOp = map[string]int64{}
			}
			st.ByOp[Op(op).String()] = n
		}
	}
	return st
}

// check records one operation and returns the fault that fires on it,
// if any. Only the first matching armed fault fires per operation.
func (in *Injector) check(op Op, path string) *fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ops++
	for _, f := range in.faults {
		if f.Op != op || !strings.Contains(path, f.Path) {
			continue
		}
		wasArmed := f.armed()
		f.seen++
		if wasArmed {
			f.fired++
			in.injected++
			in.byOp[op]++
			return f
		}
	}
	return nil
}

// debit consumes write budget and reports how many of n bytes may be
// written (all of them when no budget is set) plus whether the write
// must fail with ENOSPC afterwards.
func (in *Injector) debit(n int) (allowed int, full bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.budget < 0 {
		return n, false
	}
	if int64(n) <= in.budget {
		in.budget -= int64(n)
		return n, false
	}
	allowed = int(in.budget)
	in.budget = 0
	in.injected++
	in.byOp[OpWrite]++
	return allowed, true
}

// ---- FS implementation ----

func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	op := OpOpen
	if flag&os.O_CREATE != 0 {
		op = OpCreate
	}
	if f := in.check(op, name); f != nil {
		return nil, f.err()
	}
	base, err := in.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: base, path: name}, nil
}

func (in *Injector) Open(name string) (File, error) {
	if f := in.check(OpOpen, name); f != nil {
		return nil, f.err()
	}
	base, err := in.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: base, path: name}, nil
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if f := in.check(OpCreate, dir+"/"+pattern); f != nil {
		return nil, f.err()
	}
	base, err := in.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: base, path: base.Name()}, nil
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	return in.base.MkdirAll(path, perm)
}

func (in *Injector) ReadDir(name string) ([]os.DirEntry, error) { return in.base.ReadDir(name) }

func (in *Injector) Stat(name string) (os.FileInfo, error) { return in.base.Stat(name) }

func (in *Injector) Rename(oldpath, newpath string) error {
	if f := in.check(OpRename, newpath); f != nil {
		return f.err()
	}
	return in.base.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if f := in.check(OpRemove, name); f != nil {
		return f.err()
	}
	return in.base.Remove(name)
}

func (in *Injector) Truncate(name string, size int64) error {
	if f := in.check(OpTruncate, name); f != nil {
		return f.err()
	}
	return in.base.Truncate(name, size)
}

func (in *Injector) SyncDir(dir string) error {
	if f := in.check(OpSyncDir, dir); f != nil {
		return f.err()
	}
	return in.base.SyncDir(dir)
}

// faultFile threads writes, reads and fsyncs through the injector.
type faultFile struct {
	in   *Injector
	f    File
	path string
}

func (ff *faultFile) Name() string               { return ff.f.Name() }
func (ff *faultFile) Stat() (os.FileInfo, error) { return ff.f.Stat() }
func (ff *faultFile) Close() error               { return ff.f.Close() }

// Write injects torn writes and ENOSPC: a firing fault (or an exhausted
// write budget) stores only a prefix of p and reports the error, exactly
// the shape a full disk or a crash mid-write leaves on a real
// filesystem.
func (ff *faultFile) Write(p []byte) (int, error) {
	if f := ff.in.check(OpWrite, ff.path); f != nil {
		n := f.Partial
		if n > len(p) {
			n = len(p)
		}
		written := 0
		if n > 0 {
			written, _ = ff.f.Write(p[:n])
		}
		return written, f.err()
	}
	allowed, full := ff.in.debit(len(p))
	if full {
		written := 0
		if allowed > 0 {
			written, _ = ff.f.Write(p[:allowed])
		}
		return written, syscall.ENOSPC
	}
	return ff.f.Write(p)
}

// Read injects read-side failures: an erroring fault fails the call, a
// CorruptBit fault lets it succeed with one bit flipped — silent media
// corruption the checksums downstream must catch.
func (ff *faultFile) Read(p []byte) (int, error) {
	f := ff.in.check(OpRead, ff.path)
	n, err := ff.f.Read(p)
	if f != nil && err == nil {
		if f.CorruptBit {
			if n > 0 {
				p[0] ^= 0x01
			}
		} else {
			return 0, f.err()
		}
	}
	return n, err
}

func (ff *faultFile) Sync() error {
	if f := ff.in.check(OpSync, ff.path); f != nil {
		return f.err()
	}
	return ff.f.Sync()
}
