package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/bbox"
	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/vfs"
)

var (
	testUniverse = bbox.Rect(0, 0, 1000, 1000)
	allKinds     = []spatialdb.IndexKind{
		spatialdb.Scan, spatialdb.RTree, spatialdb.PointRTree,
		spatialdb.Grid, spatialdb.ZOrderIdx,
	}
)

// noCheckpoints disables the background checkpointer so tests control
// checkpoint timing themselves.
func noCheckpoints(o *DBOptions) {
	o.CheckpointInterval = -1
	o.CheckpointBytes = -1
}

func mustOpenDB(t *testing.T, dir string, opts DBOptions) *DB {
	t.Helper()
	db, err := OpenDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// scriptOp applies the i-th operation of the deterministic mutation
// script. Every operation succeeds, so each call logs exactly one WAL
// record, and applying the first n ops to a fresh store reproduces the
// state the first n records recover to.
func scriptOp(i int, s *spatialdb.Store) error {
	x := float64((i * 37) % 900)
	y := float64((i * 53) % 900)
	box := bbox.Rect(x, y, x+5, y+5)
	switch i % 6 {
	case 0:
		_, _, err := s.CreateLayer(fmt.Sprintf("layer-%d", i))
		return err
	case 1:
		_, err := s.Insert("towns", fmt.Sprintf("t%d", i), region.FromBox(box))
		return err
	case 2:
		// The name repeats across script steps, so later upserts replace.
		_, _, err := s.Upsert("towns", fmt.Sprintf("u%d", i%4),
			region.FromBoxes(2, box, bbox.Rect(x, y+20, x+5, y+25)))
		return err
	case 3:
		_, err := s.Insert("roads", "", region.FromBox(box))
		return err
	case 4:
		_, err := s.BulkInsert("roads", []spatialdb.BulkItem{
			{Name: fmt.Sprintf("r%d-a", i), Reg: region.FromBox(box)},
			{Name: fmt.Sprintf("r%d-b", i), Reg: region.FromBox(bbox.Rect(x, y+40, x+5, y+45))},
		}, spatialdb.BulkAtomic)
		return err
	default: // i%6 == 5: remove the insert from step i-4 (i-4 ≡ 1 mod 6)
		ok, err := s.Remove("towns", fmt.Sprintf("t%d", i-4))
		if err == nil && !ok {
			return fmt.Errorf("op %d: remove target t%d missing", i, i-4)
		}
		return err
	}
}

func runScript(t *testing.T, s *spatialdb.Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := scriptOp(i, s); err != nil {
			t.Fatalf("script op %d: %v", i, err)
		}
	}
}

// scriptState is the expected store after the first n script ops.
func scriptState(t *testing.T, kind spatialdb.IndexKind, n int) *spatialdb.Store {
	t.Helper()
	s := spatialdb.NewStore(testUniverse, kind)
	runScript(t, s, n)
	return s
}

// assertStoresEqual compares two stores through the public API: layer
// order, per-layer objects in ascending id order (id, name, region) and
// planner statistics, and the id counter.
func assertStoresEqual(t *testing.T, got, want *spatialdb.Store, label string) {
	t.Helper()
	if !got.Universe().Equal(want.Universe()) {
		t.Fatalf("%s: universe %v, want %v", label, got.Universe(), want.Universe())
	}
	gn, wn := got.LayerNames(), want.LayerNames()
	if len(gn) != len(wn) {
		t.Fatalf("%s: layers %v, want %v", label, gn, wn)
	}
	for i := range gn {
		if gn[i] != wn[i] {
			t.Fatalf("%s: layers %v, want %v", label, gn, wn)
		}
	}
	for _, name := range wn {
		gobjs, wobjs := got.Layer(name).Objects(), want.Layer(name).Objects()
		if len(gobjs) != len(wobjs) {
			t.Fatalf("%s: layer %q: %d objects, want %d", label, name, len(gobjs), len(wobjs))
		}
		for i := range wobjs {
			g, w := gobjs[i], wobjs[i]
			if g.ID != w.ID || g.Name != w.Name || !g.Reg.Equal(w.Reg) {
				t.Fatalf("%s: layer %q object %d: (%d,%q), want (%d,%q)",
					label, name, i, g.ID, g.Name, w.ID, w.Name)
			}
		}
		if !statsEqual(got, want, name) {
			t.Fatalf("%s: layer %q: planner statistics differ", label, name)
		}
	}
	if got.NextID() != want.NextID() {
		t.Fatalf("%s: NextID %d, want %d", label, got.NextID(), want.NextID())
	}
}

// statsEqual compares one layer's planner statistics in two stores, each
// read under its store's read guard.
func statsEqual(a, b *spatialdb.Store, layer string) bool {
	as, bs := a.Layer(layer).DataStats(), b.Layer(layer).DataStats()
	a.RLock()
	defer a.RUnlock()
	b.RLock()
	defer b.RUnlock()
	return as.Equal(bs)
}

func TestDBRecoversAfterCleanClose(t *testing.T) {
	const nOps = 24
	dir := t.TempDir()
	opts := DBOptions{Kind: spatialdb.RTree, Universe: testUniverse,
		Log: Options{Policy: SyncNever}} // Close seals regardless of policy
	noCheckpoints(&opts)
	db := mustOpenDB(t, dir, opts)
	runScript(t, db.Store(), nOps)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenDB(t, dir, opts)
	defer db2.Close()
	if got := db2.Replayed(); got != nOps {
		t.Fatalf("Replayed = %d, want %d", got, nOps)
	}
	assertStoresEqual(t, db2.Store(), scriptState(t, spatialdb.RTree, nOps), "reopen")

	// The recovered store keeps logging: one more op survives another
	// restart, with ids continuing where they stopped.
	if err := scriptOp(nOps, db2.Store()); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3 := mustOpenDB(t, dir, opts)
	defer db3.Close()
	assertStoresEqual(t, db3.Store(), scriptState(t, spatialdb.RTree, nOps+1), "second reopen")
}

func TestDBCheckpointTruncatesLogAndBoundsRecovery(t *testing.T) {
	const half, full = 18, 36
	dir := t.TempDir()
	// Tiny segments so the pre-checkpoint records span several of them.
	opts := DBOptions{Kind: spatialdb.Grid, Universe: testUniverse,
		Log: Options{Policy: SyncNever, SegmentBytes: 256}}
	noCheckpoints(&opts)
	db := mustOpenDB(t, dir, opts)
	runScript(t, db.Store(), half)
	before := db.Log().Stats().Segments
	if before < 2 {
		t.Fatalf("want several segments before the checkpoint, got %d", before)
	}
	lsn, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if lsn != half {
		t.Fatalf("checkpoint lsn = %d, want %d", lsn, half)
	}
	if after := db.Log().Stats().Segments; after >= before {
		t.Fatalf("checkpoint kept %d segments (was %d)", after, before)
	}
	snap := filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapPrefix, lsn, snapSuffix))
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	// A checkpoint with nothing new logged is a quiet no-op.
	again, err := db.Checkpoint()
	if err != nil || again != lsn {
		t.Fatalf("idle checkpoint = %d, %v; want %d, nil", again, err, lsn)
	}

	for i := half; i < full; i++ {
		if err := scriptOp(i, db.Store()); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery = snapshot + only the records past it.
	db2 := mustOpenDB(t, dir, opts)
	defer db2.Close()
	if got := db2.Replayed(); got != full-half {
		t.Fatalf("Replayed = %d, want %d", got, full-half)
	}
	if got := db2.Stats().RecoveredFrom; got != uint64(half) {
		t.Fatalf("recovered from snapshot lsn %d, want %d", got, half)
	}
	assertStoresEqual(t, db2.Store(), scriptState(t, spatialdb.Grid, full), "after checkpointed reopen")

	// More checkpoints prune old snapshots down to KeepSnapshots.
	if err := scriptOp(full, db2.Store()); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := scriptOp(full+1, db2.Store()); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snaps, err := listLSNs(vfs.OS, dir, snapPrefix, snapSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) > DefaultKeepSnapshots {
		t.Fatalf("%d snapshots retained, want ≤ %d", len(snaps), DefaultKeepSnapshots)
	}
}

func TestDBFallsBackPastCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := DBOptions{Kind: spatialdb.Scan, Universe: testUniverse,
		Log: Options{Policy: SyncNever}, KeepSnapshots: 4}
	noCheckpoints(&opts)
	db := mustOpenDB(t, dir, opts)
	runScript(t, db.Store(), 6)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 12; i++ {
		if err := scriptOp(i, db.Store()); err != nil {
			t.Fatal(err)
		}
	}
	lsn2, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot (a bad disk block, not a torn write —
	// renames are atomic). Boot must not fail: recovery sets the corrupt
	// file aside and falls back to the previous generation.
	newest := filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapPrefix, lsn2, snapSuffix))
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpenDB(t, dir, opts)
	defer db2.Close()
	if got := db2.Stats().RecoveredFrom; got == uint64(lsn2) {
		t.Fatal("recovery trusted the corrupt snapshot")
	}
	if _, err := os.Stat(newest); !os.IsNotExist(err) {
		t.Fatalf("corrupt snapshot still in place: %v", err)
	}
	// The fallback is only a fallback if the log still reaches back to it.
	if got := db2.Replayed(); got != 6 {
		t.Fatalf("Replayed = %d, want 6", got)
	}
	assertStoresEqual(t, db2.Store(), scriptState(t, spatialdb.Scan, 12), "fallback recovery")
}

// TestDBRecoveryFailsOnLogGap corrupts every snapshot after two
// checkpoints. Recovery then starts from an empty store while the log
// begins past LSN 1; OpenDB must refuse to boot rather than serve the
// records past the gap on top of nothing.
func TestDBRecoveryFailsOnLogGap(t *testing.T) {
	dir := t.TempDir()
	opts := DBOptions{Kind: spatialdb.Scan, Universe: testUniverse,
		Log: Options{Policy: SyncNever}}
	noCheckpoints(&opts)
	db := mustOpenDB(t, dir, opts)
	for i := 0; i < 12; i++ {
		if err := scriptOp(i, db.Store()); err != nil {
			t.Fatal(err)
		}
		if i%6 == 5 {
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := listLSNs(vfs.OS, dir, snapPrefix, snapSuffix)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("snapshots %v, %v; want two", snaps, err)
	}
	for _, lsn := range snaps {
		path := snapPath(dir, lsn)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if db2, err := OpenDB(dir, opts); !errors.Is(err, ErrTruncated) {
		if err == nil {
			t.Fatalf("recovery booted across a log gap with %d records replayed", db2.Replayed())
		}
		t.Fatalf("OpenDB = %v, want ErrTruncated", err)
	}
}

// TestDBReadFaultFailsRecovery injects one read fault — an I/O error, or
// a flipped bit — at every read of the segment in turn. A fault that
// fires in Open's tail scan must fail Open when it is an I/O error (a
// failing disk is not a torn tail to truncate). A fault that fires
// later, while recovery replays the repaired segment, must fail OpenDB
// rather than boot with the records before it.
func TestDBReadFaultFailsRecovery(t *testing.T) {
	const nOps = 12
	master := t.TempDir()
	opts := DBOptions{Kind: spatialdb.Scan, Universe: testUniverse,
		Log: Options{Policy: SyncNever}}
	noCheckpoints(&opts)
	db := mustOpenDB(t, master, opts)
	runScript(t, db.Store(), nOps)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segName := lsnName(segPrefix, 1, segSuffix)
	raw, err := os.ReadFile(filepath.Join(master, segName))
	if err != nil {
		t.Fatal(err)
	}
	copyLog := func() string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	inReplay := map[bool]int{} // by CorruptBit
	for k := 0; k < 4; k++ {
		for _, corrupt := range []bool{false, true} {
			fault := vfs.Fault{Op: vfs.OpRead, Path: segPrefix, After: k, Count: 1, CorruptBit: corrupt}
			label := fmt.Sprintf("read fault after %d reads (corrupt=%v)", k, corrupt)

			// Does the fault fire in Open's tail scan?
			dir := copyLog()
			probe := vfs.NewInjector(nil).Add(fault)
			l, err := Open(dir, Options{Policy: SyncNever, FS: probe})
			if err == nil {
				l.Close()
			}
			if probe.FaultStats().Injected > 0 {
				if !corrupt {
					if err == nil {
						t.Fatalf("%s: Open succeeded through a read error", label)
					}
					if fi, err := os.Stat(filepath.Join(dir, segName)); err != nil || fi.Size() != int64(len(raw)) {
						t.Fatalf("%s: a read error truncated the segment (%v)", label, err)
					}
				}
				continue // a flipped bit in the tail scan reads as a torn tail
			}

			inj := vfs.NewInjector(nil).Add(fault)
			fopts := opts
			fopts.Log.FS = inj
			rdb, err := OpenDB(copyLog(), fopts)
			switch {
			case inj.FaultStats().Injected == 0:
				if err != nil {
					t.Fatalf("%s: fault never fired, yet OpenDB failed: %v", label, err)
				}
				assertStoresEqual(t, rdb.Store(), scriptState(t, spatialdb.Scan, nOps), label)
				rdb.Close()
			case err == nil:
				rdb.Close()
				t.Fatalf("%s: recovery booted with %d of %d records", label, rdb.Replayed(), nOps)
			default:
				inReplay[corrupt]++
			}
		}
	}
	if inReplay[false] == 0 || inReplay[true] == 0 {
		t.Fatalf("faults landed in replay: %v; want an I/O error and a flipped bit", inReplay)
	}
}

// TestDBKillAndReplayAtArbitraryCuts is the crash-recovery property
// test: write a mutation script through a durable DB, then simulate a
// SIGKILL at every interesting byte offset of the WAL — record
// boundaries, one byte into a header, mid-record — by truncating a copy
// of the segment there. Recovery must yield exactly the state of the
// record prefix that survived the cut, for every index backend.
func TestDBKillAndReplayAtArbitraryCuts(t *testing.T) {
	const nOps = 24
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			master := t.TempDir()
			opts := DBOptions{Kind: kind, Universe: testUniverse,
				Log: Options{Policy: SyncAlways}}
			noCheckpoints(&opts)
			db := mustOpenDB(t, master, opts)
			runScript(t, db.Store(), nOps)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			segName := fmt.Sprintf("%s%020d%s", segPrefix, 1, segSuffix)
			raw, err := os.ReadFile(filepath.Join(master, segName))
			if err != nil {
				t.Fatal(err)
			}
			ends := recordEnds(t, raw)
			if len(ends) != nOps {
				t.Fatalf("segment holds %d records, want %d (script ops must map 1:1 to records)",
					len(ends), nOps)
			}

			// cut offset → records that must survive.
			cuts := map[int]int{0: 0}
			prev := 0
			for r, end := range ends {
				cuts[end] = r + 1
				if mid := prev + (end-prev)/2; mid > prev {
					cuts[mid] = r // mid-record: the torn record is lost
				}
				if end+1 < len(raw) {
					cuts[end+1] = r + 1 // one byte into the next header
				}
				prev = end
			}

			ropts := DBOptions{Kind: kind, Universe: testUniverse,
				Log: Options{Policy: SyncNever}}
			noCheckpoints(&ropts)
			for off, wantRecs := range cuts {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, segName), raw[:off], 0o644); err != nil {
					t.Fatal(err)
				}
				rdb, err := OpenDB(dir, ropts)
				if err != nil {
					t.Fatalf("cut at byte %d: recovery failed: %v", off, err)
				}
				if got := rdb.Replayed(); got != int64(wantRecs) {
					t.Fatalf("cut at byte %d: replayed %d records, want %d", off, got, wantRecs)
				}
				assertStoresEqual(t, rdb.Store(), scriptState(t, kind, wantRecs),
					fmt.Sprintf("cut@%d", off))
				rdb.Close()
			}

			// One cut dir, taken further: the repaired log accepts new
			// writes and they survive the next restart.
			dir := t.TempDir()
			cut := ends[nOps/2] - 2 // mid-record
			if err := os.WriteFile(filepath.Join(dir, segName), raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			rdb := mustOpenDB(t, dir, ropts)
			survivors := nOps / 2 // records before the torn one
			for i := survivors; i < survivors+6; i++ {
				if err := scriptOp(i, rdb.Store()); err != nil {
					t.Fatal(err)
				}
			}
			if err := rdb.Close(); err != nil {
				t.Fatal(err)
			}
			rdb2 := mustOpenDB(t, dir, ropts)
			assertStoresEqual(t, rdb2.Store(), scriptState(t, kind, survivors+6), "write-after-cut")
			rdb2.Close()
		})
	}
}

// TestDBConcurrentWritesAndCheckpoints exercises the live path under
// -race: mutations from several goroutines race the checkpointer, and a
// clean close must still recover every acknowledged write.
func TestDBConcurrentWritesAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	opts := DBOptions{Kind: spatialdb.RTree, Universe: testUniverse,
		Log: Options{Policy: SyncNever, SegmentBytes: 4 << 10}}
	noCheckpoints(&opts)
	db := mustOpenDB(t, dir, opts)

	const workers, perWorker = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			layer := fmt.Sprintf("w%d", w)
			for i := 0; i < perWorker; i++ {
				x, y := float64((i*13)%900), float64((w*101+i*7)%900)
				_, err := db.Store().Insert(layer, fmt.Sprintf("o%d", i),
					region.FromBox(bbox.Rect(x, y, x+3, y+3)))
				if err != nil {
					t.Errorf("worker %d insert %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			if _, err := db.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenDB(t, dir, opts)
	defer db2.Close()
	for w := 0; w < workers; w++ {
		layer := fmt.Sprintf("w%d", w)
		if got := db2.Store().Layer(layer).Len(); got != perWorker {
			t.Errorf("layer %s recovered %d objects, want %d", layer, got, perWorker)
		}
	}
}
