package spatialdb

import (
	"fmt"

	"repro/internal/bbox"
	"repro/internal/region"
)

// BulkMode selects the failure semantics of Store.BulkInsert.
type BulkMode int

// Bulk insertion modes.
const (
	// BulkAtomic inserts every object or none: an invalid object or an
	// index rejection anywhere in the batch aborts it and leaves the
	// store's objects unchanged (a layer created for the batch persists —
	// it is idempotent metadata).
	BulkAtomic BulkMode = iota
	// BulkBestEffort inserts every insertable object and reports
	// per-object errors for the rest.
	BulkBestEffort
)

// String returns the wire name of the mode.
func (m BulkMode) String() string {
	if m == BulkBestEffort {
		return "best_effort"
	}
	return "atomic"
}

// BulkItem is one object of a batch insert. As with Insert, duplicate
// names are allowed; the batch's last occurrence wins name lookups.
type BulkItem struct {
	Name string
	Reg  *region.Region
}

// BulkResult is the outcome for one BulkItem, in batch order. Object is
// meaningful only when Err is nil and the batch (in atomic mode) was not
// aborted by another item.
type BulkResult struct {
	Object Object
	Err    error
}

// BulkReport summarizes one BulkInsert call.
type BulkReport struct {
	Results  []BulkResult // one per item, in batch order
	Inserted int          // objects actually inserted
	Epoch    uint64       // store epoch after the call
}

// BulkInsert adds a batch of named regions to a layer under ONE
// write-lock acquisition, bumping the epoch once for the whole batch
// instead of once per object. Backends implementing BulkLoader (R-tree
// and point R-tree via STR packing, grid file via pre-seeded scales,
// z-order via a single sorted build) rebuild their structure in one
// packed pass over the existing and new objects; other backends fall
// back to looped inserts.
//
// Validation (empty regions) happens before anything touches the index.
// In BulkAtomic mode any invalid object or index rejection aborts the
// batch with a non-nil error and leaves the layer's objects and the id
// counter as they were. In BulkBestEffort mode every insertable object
// is inserted, failures are reported per object in the report, and the
// error is nil.
//
//boolq:mutation
func (s *Store) BulkInsert(layer string, items []BulkItem, mode BulkMode) (BulkReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := BulkReport{Results: make([]BulkResult, len(items))}
	if err := s.admitMutationLocked(); err != nil {
		rep.Epoch = s.epoch.Load()
		return rep, err
	}
	_, existed := s.layers[layer]

	// Validate first: invalid objects never reach the index. The valid
	// ones take ids nextID+1, nextID+2, …; vidx maps their position back
	// to the item index.
	objs := make([]Object, 0, len(items))
	vidx := make([]int, 0, len(items))
	for i, it := range items {
		var boxes []bbox.Box
		if it.Reg != nil {
			boxes = it.Reg.Boxes()
		}
		id := s.nextID + int64(len(objs)) + 1
		o, err := s.newObject(id-1, MutObject{ID: id, Name: it.Name, Boxes: boxes})
		if err != nil {
			rep.Results[i].Err = fmt.Errorf("spatialdb: object %q: %w", it.Name, err)
			continue
		}
		objs = append(objs, o)
		vidx = append(vidx, i)
	}
	if invalid := len(items) - len(objs); mode == BulkAtomic && invalid > 0 {
		rep.Epoch = s.epoch.Load()
		return rep, fmt.Errorf("spatialdb: bulk insert into %q: %d of %d objects invalid",
			layer, invalid, len(items))
	}

	errs, err := s.applyMutationLocked(OpBulkInsert, layer, objs, 0, mode)
	for vi, e := range errs {
		if e != nil {
			rep.Results[vidx[vi]].Err = e
		}
	}
	if err != nil {
		// Atomic abort: nothing was inserted, but a layer created for the
		// batch persists, so its creation is applied and logged.
		if !existed {
			_, cerr := s.applyMutationLocked(OpCreateLayer, layer, nil, 0, BulkAtomic)
			if cerr == nil {
				s.epoch.Add(1)
				cerr = s.logMutation(&Mutation{Op: OpCreateLayer, Layer: layer})
			}
			if cerr != nil {
				err = fmt.Errorf("%v (%v)", err, cerr)
			}
		}
		rep.Epoch = s.epoch.Load()
		return rep, fmt.Errorf("spatialdb: bulk insert into %q: %w", layer, err)
	}
	// One record for the whole batch, carrying only the objects that made
	// it in (replay re-creates the layer implicitly). A batch that changed
	// nothing but the layer's existence logs the creation alone.
	m := &Mutation{Op: OpBulkInsert, Layer: layer}
	for vi, e := range errs {
		if e == nil {
			rep.Results[vidx[vi]].Object = objs[vi]
			m.Objects = append(m.Objects, mutObject(objs[vi]))
		}
	}
	rep.Inserted = len(m.Objects)
	if rep.Inserted > 0 || !existed {
		s.epoch.Add(1)
	}
	rep.Epoch = s.epoch.Load()
	var lerr error
	if rep.Inserted > 0 {
		lerr = s.logMutation(m)
	} else if !existed {
		lerr = s.logMutation(&Mutation{Op: OpCreateLayer, Layer: layer})
	}
	return rep, lerr
}

// bulkInsert adds objs (built by newObject, in ascending id order) to the
// layer.
// The returned slice parallels objs (nil entries succeeded). In atomic
// mode either every object is inserted or none, and the second return
// value carries the aborting error; otherwise index-rejected objects are
// skipped and it is nil.
//
// The caller must hold the store's write lock.
func (l *Layer) bulkInsert(objs []Object, atomic bool) ([]error, error) {
	errs := make([]error, len(objs))
	if len(objs) == 0 {
		return errs, nil
	}
	// Objects take the slots after the slab's, so their ids must follow.
	if n := len(l.slab); n > 0 && objs[0].ID <= l.slab[n-1].ID {
		return errs, fmt.Errorf("object %q: id %d not above the layer's %d", objs[0].Name, objs[0].ID, l.slab[n-1].ID)
	}
	// The packed path rebuilds the whole index (existing + new), so it
	// only pays off when the batch is a sizable fraction of the layer;
	// trickle batches into a big layer go through plain inserts instead
	// of an O(layer) rebuild per call.
	const bulkRebuildFraction = 4 // packed rebuild when new ≥ existing/4
	if bl, ok := l.idx.(BulkLoader); ok && len(objs)*bulkRebuildFraction >= len(l.slab) {
		n := len(l.slab)
		all := append(l.slab, objs...)
		if err := bl.BulkLoad(all); err == nil {
			l.slab = all[:n]
			for _, o := range objs {
				l.commit(o) // rewrites all[n+i] in place
			}
			return errs, nil
		}
		clear(all[n:]) // the slab keeps its length; drop the batch's references
		// The packed build failed (e.g. a box outside a z-order universe).
		// The BulkLoader contract leaves the live index at its pre-batch
		// contents, so fall through to looped inserts, which attribute the
		// error to the exact object.
	}
	slot := int64(len(l.slab))
	for i, o := range objs {
		if err := l.idx.insert(o, slot); err != nil {
			errs[i] = err
			if atomic {
				// Roll back the objects inserted so far: the slab is not
				// yet committed, so a rebuild over it restores exactly the
				// pre-batch index.
				if rerr := l.rebuildIndex(); rerr != nil {
					return errs, fmt.Errorf("object %q: %v (and rollback failed: %v)", o.Name, err, rerr)
				}
				return errs, fmt.Errorf("object %q: %w", o.Name, err)
			}
			continue
		}
		slot++ // a rejected object takes no slot
	}
	for i, o := range objs {
		if errs[i] == nil {
			l.commit(o)
		}
	}
	return errs, nil
}
