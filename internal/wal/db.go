package wal

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bbox"
	"repro/internal/retry"
	"repro/internal/spatialdb"
	"repro/internal/vfs"
)

// DB binds a spatialdb.Store to a Log: the durable store boolqd serves
// when started with -data-dir.
//
// Lifecycle. OpenDB recovers the store — load the newest intact binary
// snapshot, replay every WAL record past it, tolerate a torn final
// record — then installs itself as the store's mutation sink, so every
// acknowledged mutation is appended (and, under fsync=always, fsynced)
// before the mutating call returns. A background checkpointer
// periodically writes a fresh snapshot and deletes the sealed segments
// every retained snapshot covers, bounding both recovery time and disk
// usage. Close seals the log; a clean shutdown therefore loses nothing
// regardless of policy.
//
// Checkpoint protocol (crash-safe at every step):
//
//  1. Serialize the store under its read guard, reading the last logged
//     LSN inside the same critical section (SaveBinaryMark) — writers
//     append under the write lock, so the boundary is exact.
//  2. Write the snapshot atomically: temp file, fsync, rename to
//     snap-<lsn>.bqs, directory fsync.
//  3. Rotate the log if the active segment holds covered records, delete
//     snapshots older than the retained set, then delete sealed segments
//     entirely ≤ the oldest snapshot still on disk, so recovery can fall
//     back to any retained snapshot. A crash between any two steps leaves
//     a directory that still recovers: the snapshot only becomes visible
//     complete, and segments are only deleted after it is.
type DB struct {
	dir   string
	fs    vfs.FS
	log   *Log
	store *spatialdb.Store

	appliedLSN    atomic.Uint64 // last LSN both applied and logged
	checkpointLSN atomic.Uint64 // boundary of the newest snapshot
	ckptBytes     atomic.Int64  // log bytes at the last checkpoint

	checkpoints  atomic.Int64
	checkpointMu sync.Mutex // serializes Checkpoint
	ckptErrs     atomic.Int64
	ckptRetries  atomic.Int64
	sinkErrs     atomic.Int64
	walRetries   atomic.Int64 // in-place Append retries after a sink failure

	// Durability state machine (DESIGN.md §9): healthy ↔ degraded.
	// Entering degraded flips the store read-only (mutations are rejected
	// before they touch memory) and wakes probeLoop, which re-arms the log,
	// reconciles memory and disk with a forced checkpoint, and exits
	// degradation.
	degraded      atomic.Bool
	degradedAt    atomic.Int64 // UnixNano of the transition
	degradeCause  atomic.Value // string: the error that exhausted retries
	transitions   atomic.Int64 // times the DB entered degraded mode
	probes        atomic.Int64 // recovery attempts by probeLoop
	retryMax      int
	retryBackoff  time.Duration
	probeInterval time.Duration
	probeKick     chan struct{}

	replayed    int64 // records replayed at boot
	recoveryDur time.Duration
	snapLoaded  uint64 // LSN of the snapshot recovery started from (0: none)
	orphanTemps int64  // orphan temp files pruned at boot
	keep        int    // snapshot generations to retain

	// Snapshot pins: a replica fetching snap-<lsn>.bqs holds a reference
	// so pruneSnapshots never deletes the file mid-stream. pinMu also
	// serializes AcquireSnapshot's scan-then-pin against the prune's
	// scan-then-delete; the map is lazily allocated.
	pinMu sync.Mutex
	pins  map[uint64]int

	encBuf []byte // sink scratch; the store's write lock serializes access

	stopc     chan struct{}
	donec     chan struct{}
	probeDone chan struct{}
	once      sync.Once
}

// DBOptions configures OpenDB.
type DBOptions struct {
	// Log configures the underlying record log (segment size, fsync
	// policy).
	Log Options
	// Kind is the index backend for the recovered store.
	Kind spatialdb.IndexKind
	// Universe is the store universe when the directory holds no
	// snapshot yet (a recovered snapshot's universe always wins).
	Universe bbox.Box
	// CheckpointInterval is how often the background checkpointer wakes
	// (≤ 0: DefaultCheckpointInterval; set to a negative value AND
	// CheckpointBytes < 0 to disable it — tests drive Checkpoint
	// directly).
	CheckpointInterval time.Duration
	// CheckpointBytes triggers a checkpoint once this many WAL bytes
	// accumulated past the last one (≤ 0: the segment size).
	CheckpointBytes int64
	// KeepSnapshots is how many snapshot generations to retain (≤ 0: 2 —
	// the newest plus one fallback).
	KeepSnapshots int
	// RetryMax is how many times a failed WAL append is retried in place
	// (rearm + re-append, capped exponential backoff) before the store
	// degrades to read-only (0: DefaultRetryMax; < 0: no in-place retries
	// — the first failure degrades immediately).
	RetryMax int
	// RetryBackoff is the first retry's sleep; it doubles per attempt up
	// to maxRetryBackoff (≤ 0: DefaultRetryBackoff).
	RetryBackoff time.Duration
	// ProbeInterval is how often the background probe attempts recovery
	// while degraded; it backs off exponentially up to maxProbeBackoff
	// (≤ 0: DefaultProbeInterval).
	ProbeInterval time.Duration
}

// Defaults for DBOptions.
const (
	DefaultCheckpointInterval = time.Minute
	DefaultKeepSnapshots      = 2
	DefaultRetryMax           = 3
	DefaultRetryBackoff       = 2 * time.Millisecond
	DefaultProbeInterval      = 500 * time.Millisecond
)

// Backoff caps for retries and probes.
const (
	maxRetryBackoff = 250 * time.Millisecond
	maxProbeBackoff = 15 * time.Second
	// checkpointRetryMax bounds in-tick retries of a failed background
	// checkpoint before giving up until the next interval.
	checkpointRetryMax     = 3
	checkpointRetryBackoff = 250 * time.Millisecond
	maxCheckpointBackoff   = 5 * time.Second
)

// DBStats is the durability section of /stats.
type DBStats struct {
	Dir            string `json:"dir"`
	Policy         string `json:"fsync"`
	AppliedLSN     uint64 `json:"applied_lsn"`
	CheckpointLSN  uint64 `json:"checkpoint_lsn"`
	Checkpoints    int64  `json:"checkpoints"`
	CheckpointErr  int64  `json:"checkpoint_failures"`
	CheckpointRtry int64  `json:"checkpoint_retries"`
	SinkErrors     int64  `json:"append_errors"`
	WALRetries     int64  `json:"wal_retries"`  // in-place append retries
	Replayed       int64  `json:"replayed"`     // records replayed at boot
	RecoveredFrom  uint64 `json:"snapshot_lsn"` // snapshot recovery started from
	RecoveryMS     int64  `json:"recovery_ms"`
	OrphanTemps    int64  `json:"orphan_temps_pruned"` // stale temp files removed at boot

	// Degradation state (DESIGN.md §9).
	Degraded        bool   `json:"degraded"`
	DegradedForMS   int64  `json:"degraded_for_ms,omitempty"` // time spent in the current episode
	DegradeCause    string `json:"degrade_cause,omitempty"`
	DegradedEntered int64  `json:"degraded_entered"` // lifetime transitions into degraded
	Probes          int64  `json:"probes"`           // recovery attempts while degraded

	Log Stats `json:"log"`
}

// OpenDB opens (creating if needed) a durable store in dir and recovers
// it to the last acknowledged state.
func OpenDB(dir string, opts DBOptions) (*DB, error) {
	start := time.Now()
	if opts.Universe.IsEmpty() {
		return nil, errors.New("wal: OpenDB needs a non-empty universe")
	}
	log, err := Open(dir, opts.Log)
	if err != nil {
		return nil, err
	}
	db := &DB{dir: dir, fs: log.fs, log: log}
	ok := false
	defer func() {
		if !ok {
			log.Close()
		}
	}()

	// Recovery step 0: prune temp files a crashed (or fault-aborted)
	// checkpoint left behind. They are invisible to recovery — only the
	// rename publishes a snapshot — but they cost disk forever if kept.
	if n, err := pruneOrphanTemps(db.fs, dir); err != nil {
		return nil, err
	} else {
		db.orphanTemps = n
	}

	// Recovery step 1: newest intact snapshot.
	store, snapLSN, err := loadBestSnapshot(db.fs, dir, opts.Kind)
	if err != nil {
		return nil, err
	}
	if store == nil {
		store = spatialdb.NewStore(opts.Universe, opts.Kind)
	}
	db.store = store
	db.snapLoaded = snapLSN

	// Recovery step 2: if segments were lost (or removed by hand) the
	// snapshot can be ahead of the log; never reuse its LSNs.
	if log.LastLSN() < snapLSN {
		if err := log.SkipTo(snapLSN + 1); err != nil {
			return nil, err
		}
	}

	// Recovery step 3: replay the tail through the log's one read path.
	// A gap between the snapshot and the oldest retained segment is
	// ErrTruncated. ReadFrom stops quietly at a bad frame in the active
	// segment, which Open has just repaired, so a short replay means a
	// read went wrong and must fail recovery, not boot short.
	applied := snapLSN
	if _, err := log.ReadFrom(snapLSN, 0, func(lsn uint64, payload []byte) error {
		m, err := spatialdb.DecodeMutation(payload)
		if err != nil {
			return fmt.Errorf("wal: record %d: %w", lsn, err)
		}
		if err := store.ApplyReplicated(m); err != nil {
			return fmt.Errorf("wal: record %d: %w", lsn, err)
		}
		applied = lsn
		db.replayed++
		return nil
	}); err != nil {
		return nil, fmt.Errorf("wal: recovering from snapshot LSN %d: %w", snapLSN, err)
	}
	if last := log.LastLSN(); applied != last {
		return nil, fmt.Errorf("wal: recovery replayed up to LSN %d of %d", applied, last)
	}

	db.appliedLSN.Store(log.LastLSN())
	db.checkpointLSN.Store(snapLSN)
	db.ckptBytes.Store(log.Stats().AppendedBytes)
	db.recoveryDur = time.Since(start)

	// Go live: from here on every mutation is logged before it is
	// acknowledged.
	store.SetMutationSink(db.logMutation)

	interval := opts.CheckpointInterval
	if interval == 0 {
		interval = DefaultCheckpointInterval
	}
	bytes := opts.CheckpointBytes
	if bytes == 0 {
		bytes = log.opts.SegmentBytes
	}
	keep := opts.KeepSnapshots
	if keep <= 0 {
		keep = DefaultKeepSnapshots
	}
	db.keep = keep
	switch {
	case opts.RetryMax < 0:
		db.retryMax = 0
	case opts.RetryMax == 0:
		db.retryMax = DefaultRetryMax
	default:
		db.retryMax = opts.RetryMax
	}
	db.retryBackoff = opts.RetryBackoff
	if db.retryBackoff <= 0 {
		db.retryBackoff = DefaultRetryBackoff
	}
	db.probeInterval = opts.ProbeInterval
	if db.probeInterval <= 0 {
		db.probeInterval = DefaultProbeInterval
	}
	db.stopc = make(chan struct{})
	db.donec = make(chan struct{})
	db.probeDone = make(chan struct{})
	db.probeKick = make(chan struct{}, 1)
	go db.probeLoop()
	if interval > 0 {
		go db.checkpointLoop(interval, bytes)
	} else {
		close(db.donec)
	}
	ok = true
	return db, nil
}

// pruneOrphanTemps removes checkpoint temp files (snap-*.tmp*) that a
// crash or an aborted checkpoint stranded, returning how many went.
func pruneOrphanTemps(fs vfs.FS, dir string) (int64, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	var pruned int64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, snapPrefix) || !strings.Contains(name, tmpSuffix) ||
			strings.HasSuffix(name, snapSuffix) {
			continue
		}
		if err := fs.Remove(filepath.Join(dir, name)); err != nil {
			return pruned, fmt.Errorf("wal: pruning orphan temp %s: %w", name, err)
		}
		pruned++
	}
	if pruned > 0 {
		if err := syncDir(fs, dir); err != nil {
			return pruned, err
		}
	}
	return pruned, nil
}

// Store returns the recovered store. Mutations through it are logged;
// do not swap it out from under the DB.
func (db *DB) Store() *spatialdb.Store { return db.store }

// Log returns the underlying record log.
func (db *DB) Log() *Log { return db.log }

// Replayed returns how many WAL records boot-time recovery replayed.
func (db *DB) Replayed() int64 { return db.replayed }

// Stats returns the durability counters.
func (db *DB) Stats() DBStats {
	st := DBStats{
		Dir:             db.dir,
		Policy:          db.log.Policy().String(),
		AppliedLSN:      db.appliedLSN.Load(),
		CheckpointLSN:   db.checkpointLSN.Load(),
		Checkpoints:     db.checkpoints.Load(),
		CheckpointErr:   db.ckptErrs.Load(),
		CheckpointRtry:  db.ckptRetries.Load(),
		SinkErrors:      db.sinkErrs.Load(),
		WALRetries:      db.walRetries.Load(),
		Replayed:        db.replayed,
		RecoveredFrom:   db.snapLoaded,
		RecoveryMS:      db.recoveryDur.Milliseconds(),
		OrphanTemps:     db.orphanTemps,
		Degraded:        db.degraded.Load(),
		DegradedEntered: db.transitions.Load(),
		Probes:          db.probes.Load(),
		Log:             db.log.Stats(),
	}
	if st.Degraded {
		st.DegradedForMS = time.Since(time.Unix(0, db.degradedAt.Load())).Milliseconds()
		if cause, ok := db.degradeCause.Load().(string); ok {
			st.DegradeCause = cause
		}
	}
	return st
}

// Degraded reports whether the DB is in degraded read-only mode.
func (db *DB) Degraded() bool { return db.degraded.Load() }

// DegradeCause returns the error message that triggered the current
// degraded episode ("" when healthy).
func (db *DB) DegradeCause() string {
	if !db.degraded.Load() {
		return ""
	}
	cause, _ := db.degradeCause.Load().(string)
	return cause
}

// logMutation is the store's mutation sink: encode, append, remember the
// position. It runs under the store's write lock, so encBuf needs no
// further guard and records are appended in exactly apply order.
//
// A failed append is retried in place with capped exponential backoff:
// each attempt re-arms the log (repairing torn bytes or a missing active
// segment) and either detects that the record actually landed — a write
// that reached the disk before only its fsync failed keeps its LSN, and
// re-appending it would replay the mutation twice — or appends again.
// Exhausted retries degrade the store to read-only (ErrDegraded) and
// hand recovery to probeLoop; the mutation is applied in memory but NOT
// durable, which the probe's forced checkpoint reconciles before any new
// mutation is admitted.
func (db *DB) logMutation(m *spatialdb.Mutation) error {
	db.encBuf = spatialdb.AppendMutation(db.encBuf[:0], m)
	want := db.log.NextLSN()
	lsn, err := db.log.Append(db.encBuf)
	if err == nil {
		db.appliedLSN.Store(lsn)
		return nil
	}
	db.sinkErrs.Add(1)
	pol := retry.Policy{Base: db.retryBackoff, Cap: maxRetryBackoff}
	for attempt := 0; attempt < db.retryMax; attempt++ {
		time.Sleep(pol.Delay(attempt))
		db.walRetries.Add(1)
		if rerr := db.log.Rearm(); rerr != nil {
			err = rerr
			continue
		}
		if last := db.log.LastLSN(); last >= want {
			// The failed append reached the disk after all (e.g. the write
			// landed and only the fsync failed); Rearm's probe fsync made
			// it durable, so acknowledge it rather than duplicate it.
			db.appliedLSN.Store(last)
			return nil
		}
		if lsn, err = db.log.Append(db.encBuf); err == nil {
			db.appliedLSN.Store(lsn)
			return nil
		}
		db.sinkErrs.Add(1)
	}
	db.enterDegraded(err)
	return fmt.Errorf("%w: %v", spatialdb.ErrDegraded, err)
}

// enterDegraded flips the store into degraded read-only mode and wakes
// the recovery probe. Idempotent: only the first caller transitions.
func (db *DB) enterDegraded(cause error) {
	if db.degraded.CompareAndSwap(false, true) {
		db.transitions.Add(1)
		db.degradedAt.Store(time.Now().UnixNano())
		db.degradeCause.Store(cause.Error())
		db.store.SetDegraded(true)
		select {
		case db.probeKick <- struct{}{}:
		default:
		}
	}
}

// probeLoop waits for degraded episodes and repeatedly attempts recovery
// with exponential backoff until the log accepts writes again.
func (db *DB) probeLoop() {
	defer close(db.probeDone)
	for {
		select {
		case <-db.stopc:
			return
		case <-db.probeKick:
		}
		pol := retry.Policy{Base: db.probeInterval, Cap: maxProbeBackoff}
		for attempt := 0; db.degraded.Load(); attempt++ {
			select {
			case <-db.stopc:
				return
			case <-time.After(pol.Delay(attempt)):
			}
			db.probes.Add(1)
			if db.tryRecover() {
				break
			}
		}
	}
}

// tryRecover is one probe attempt: re-arm the log, reconcile memory and
// disk, and exit degraded mode. The in-memory store can be ahead of the
// log — the mutation that exhausted retries was applied but never
// logged, and acknowledged-but-buffered records may have been lost under
// the interval policy — so a forced checkpoint snapshots the full memory
// state at a fresh boundary before mutations are admitted again: the
// next recovery lands on exactly what the process was serving.
func (db *DB) tryRecover() bool {
	if err := db.log.Rearm(); err != nil {
		return false
	}
	db.appliedLSN.Store(db.log.LastLSN())
	if _, err := db.checkpoint(true); err != nil {
		return false
	}
	db.degraded.Store(false)
	db.store.SetDegraded(false)
	return true
}

// Checkpoint writes a snapshot of the current state, prunes old
// snapshots, and seals and deletes the WAL segments every retained
// snapshot covers. It returns the snapshot's boundary LSN. Concurrent
// calls serialize; mutations proceed concurrently except during the
// state serialization itself (which holds the store's read guard).
func (db *DB) Checkpoint() (uint64, error) { return db.checkpoint(false) }

// checkpoint implements Checkpoint. force writes a snapshot even when no
// new LSN was logged since the last one — the degradation-exit path needs
// that, because it snapshots in-memory state the log never captured.
func (db *DB) checkpoint(force bool) (uint64, error) {
	db.checkpointMu.Lock()
	defer db.checkpointMu.Unlock()
	// Serialize through a temp file in the same directory, then rename it
	// into place: the boundary LSN — and with it the final name — is only
	// known once the store's read guard is held.
	var lsn uint64
	tmp, err := db.fs.CreateTemp(db.dir, snapPrefix+"*"+tmpSuffix)
	if err != nil {
		db.ckptErrs.Add(1)
		return 0, fmt.Errorf("wal: %w", err)
	}
	cleanup := func(err error) (uint64, error) {
		tmp.Close()
		db.fs.Remove(tmp.Name())
		db.ckptErrs.Add(1)
		return 0, err
	}
	if err := db.store.SaveBinaryMark(tmp, func() { lsn = db.appliedLSN.Load() }); err != nil {
		return cleanup(err)
	}
	if lsn == db.checkpointLSN.Load() && !force {
		// Nothing was logged since the last checkpoint; discard quietly.
		tmp.Close()
		db.fs.Remove(tmp.Name())
		return lsn, nil
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("wal: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return cleanup(fmt.Errorf("wal: %w", err))
	}
	final := snapPath(db.dir, lsn)
	if err := db.fs.Rename(tmp.Name(), final); err != nil {
		db.fs.Remove(tmp.Name())
		db.ckptErrs.Add(1)
		return 0, fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(db.fs, db.dir); err != nil {
		db.ckptErrs.Add(1)
		return 0, err
	}
	db.checkpointLSN.Store(lsn)
	db.ckptBytes.Store(db.log.Stats().AppendedBytes)
	db.checkpoints.Add(1)

	// Seal the covered boundary, prune old snapshots, then drop the
	// segments every snapshot still on disk has made redundant: recovery
	// falls back to an older snapshot when the newest is corrupt, and
	// needs the log from there. Failures here cost disk, not correctness.
	if db.log.SegmentStart() <= lsn {
		if err := db.log.Rotate(); err != nil {
			db.ckptErrs.Add(1)
			return lsn, err
		}
	}
	oldest, err := db.pruneSnapshots()
	if err != nil {
		db.ckptErrs.Add(1)
		return lsn, err
	}
	if _, err := db.log.TruncateBelow(oldest); err != nil {
		db.ckptErrs.Add(1)
		return lsn, err
	}
	return lsn, nil
}

// pruneSnapshots deletes all but the newest keep snapshots, skipping any
// that a replica fetch currently pins (they go on a later pass, once the
// stream finishes), and returns the boundary LSN of the oldest snapshot
// left on disk. Holding pinMu across the scan-and-delete serializes
// against AcquireSnapshot's scan-and-pin, so a snapshot can never be
// deleted between a replica choosing it and pinning it.
func (db *DB) pruneSnapshots() (uint64, error) {
	db.pinMu.Lock()
	defer db.pinMu.Unlock()
	lsns, err := listLSNs(db.fs, db.dir, snapPrefix, snapSuffix)
	if err != nil {
		return 0, err
	}
	if len(lsns) == 0 {
		return 0, nil
	}
	stale := max(len(lsns)-db.keep, 0)
	oldest := lsns[stale]
	removed := false
	for _, lsn := range lsns[:stale] {
		if db.pins[lsn] > 0 {
			oldest = min(oldest, lsn)
			continue
		}
		if err := db.fs.Remove(snapPath(db.dir, lsn)); err != nil {
			return 0, fmt.Errorf("wal: %w", err)
		}
		removed = true
	}
	if !removed {
		return oldest, nil
	}
	return oldest, syncDir(db.fs, db.dir)
}

// ErrNoSnapshot is returned by AcquireSnapshot when the directory holds
// no checkpoint yet; a replica then bootstraps from an empty store and
// tails the WAL from LSN 0.
var ErrNoSnapshot = errors.New("wal: no snapshot available")

// AcquireSnapshot opens the newest snapshot for streaming and pins it
// against pruning until release is called. The returned LSN is the
// snapshot's boundary: every mutation at an LSN > lsn must be replayed
// on top of it. release is safe to call exactly once.
func (db *DB) AcquireSnapshot() (lsn uint64, r io.ReadCloser, release func(), err error) {
	db.pinMu.Lock()
	lsns, err := listLSNs(db.fs, db.dir, snapPrefix, snapSuffix)
	if err != nil {
		db.pinMu.Unlock()
		return 0, nil, nil, err
	}
	if len(lsns) == 0 {
		db.pinMu.Unlock()
		return 0, nil, nil, ErrNoSnapshot
	}
	lsn = lsns[len(lsns)-1]
	if db.pins == nil {
		db.pins = make(map[uint64]int)
	}
	db.pins[lsn]++
	db.pinMu.Unlock()

	release = func() {
		db.pinMu.Lock()
		if db.pins[lsn] > 1 {
			db.pins[lsn]--
		} else {
			delete(db.pins, lsn)
		}
		db.pinMu.Unlock()
	}
	f, err := db.fs.Open(snapPath(db.dir, lsn))
	if err != nil {
		release()
		return 0, nil, nil, fmt.Errorf("wal: %w", err)
	}
	return lsn, f, release, nil
}

// DurableLSN is the newest LSN both applied in memory and appended to
// the log: the position replicas measure their lag against.
func (db *DB) DurableLSN() uint64 { return db.appliedLSN.Load() }

// checkpointLoop wakes every interval and checkpoints when enough WAL
// bytes accumulated since the last snapshot. A failed checkpoint is
// retried a few times with capped backoff inside the tick — a full disk
// or a transient fault should not silently push the recovery bound a
// whole interval into the future — then left for the next interval.
func (db *DB) checkpointLoop(interval time.Duration, bytes int64) {
	defer close(db.donec)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if db.degraded.Load() {
				continue // probeLoop owns recovery (and its exit checkpoint)
			}
			if db.appliedLSN.Load() <= db.checkpointLSN.Load() {
				continue
			}
			if bytes > 0 && db.log.Stats().AppendedBytes-db.ckptBytes.Load() < bytes {
				continue
			}
			pol := retry.Policy{Base: checkpointRetryBackoff, Cap: maxCheckpointBackoff}
			for attempt := 0; ; attempt++ {
				_, err := db.Checkpoint() // failures are counted in ckptErrs
				if err == nil || attempt >= checkpointRetryMax {
					break
				}
				db.ckptRetries.Add(1)
				select {
				case <-db.stopc:
					return
				case <-time.After(pol.Delay(attempt)):
				}
			}
		case <-db.stopc:
			return
		}
	}
}

// Close stops the checkpointer and seals the log: buffered records are
// flushed and fsynced regardless of policy, so a graceful shutdown
// (SIGTERM) loses nothing. The store stays readable but further
// mutations will fail their durability hook.
func (db *DB) Close() error {
	var err error
	db.once.Do(func() {
		close(db.stopc)
		<-db.donec
		<-db.probeDone
		err = db.log.Close()
	})
	return err
}

// ---- snapshot discovery ----

// loadBestSnapshot loads the newest snapshot that passes its checksum,
// falling back to older ones (a torn checkpoint cannot happen — renames
// are atomic — but a corrupted disk block can). Returns (nil, 0, nil)
// when no loadable snapshot exists.
func loadBestSnapshot(fs vfs.FS, dir string, kind spatialdb.IndexKind) (*spatialdb.Store, uint64, error) {
	lsns, err := listLSNs(fs, dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, 0, err
	}
	for i := len(lsns) - 1; i >= 0; i-- {
		name := snapPath(dir, lsns[i])
		f, err := fs.Open(name)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: %w", err)
		}
		store, err := spatialdb.LoadBinary(f, kind)
		f.Close()
		if err == nil {
			return store, lsns[i], nil
		}
		// Corrupt: set it aside so the next boot does not retry it, and
		// fall back to the previous generation.
		_ = fs.Rename(name, name+".corrupt")
	}
	return nil, 0, nil
}
