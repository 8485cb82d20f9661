package spatialdb

import (
	"fmt"

	"repro/internal/region"
)

// BulkMode selects the failure semantics of Store.BulkInsert.
type BulkMode int

// Bulk insertion modes.
const (
	// BulkAtomic inserts every object or none: an invalid object anywhere
	// in the batch aborts it and leaves the store unchanged.
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
// instead of once per object. A batch that is a sizable fraction of the
// layer rebuilds the index in one packed pass over the existing and new
// objects (STR packing for the R-tree backends, pre-seeded scales for the
// grid file, one sorted build for z-order); a smaller one is inserted
// object by object.
//
// Validation (newObject) is the only step that can refuse an object, and
// it runs before anything touches the layer. In BulkAtomic mode any
// invalid object aborts the batch with a non-nil error and leaves the
// store as it was. In BulkBestEffort mode every valid object is inserted,
// the invalid ones are reported per object in the report, and the error
// is nil.
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

	// The valid objects take ids nextID+1, nextID+2, …; vidx maps their
	// position back to the item index.
	objs := make([]Object, 0, len(items))
	vidx := make([]int, 0, len(items))
	for i, it := range items {
		id := s.nextID + int64(len(objs)) + 1
		o, err := s.newObject(id-1, MutObject{ID: id, Name: it.Name}, it.Reg)
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
	if err := s.applyMutationLocked(OpBulkInsert, layer, objs, 0); err != nil {
		rep.Epoch = s.epoch.Load()
		return rep, fmt.Errorf("spatialdb: bulk insert into %q: %w", layer, err)
	}
	rep.Inserted = len(objs)
	if rep.Inserted == 0 && existed {
		rep.Epoch = s.epoch.Load()
		return rep, nil
	}
	s.epoch.Add(1)
	rep.Epoch = s.epoch.Load()
	// One record for the whole batch, carrying the objects that went in
	// (replay re-creates the layer implicitly). A batch that changed
	// nothing but the layer's existence logs the creation alone.
	if rep.Inserted == 0 {
		return rep, s.logMutation(&Mutation{Op: OpCreateLayer, Layer: layer})
	}
	for vi, o := range objs {
		rep.Results[vidx[vi]].Object = o
	}
	if s.sink == nil {
		return rep, nil // no record to build: its box copies would go unread
	}
	m := &Mutation{Op: OpBulkInsert, Layer: layer, Objects: make([]MutObject, len(objs))}
	for vi, o := range objs {
		m.Objects[vi] = mutObject(o)
	}
	return rep, s.logMutation(m)
}

// bulkInsert adds objs (built by newObject, in ascending id order) to the
// layer. Their ids must follow the slab's, since they take the slots
// after it; that is the only error. The caller must hold the store's
// write lock.
func (l *Layer) bulkInsert(objs []Object) error {
	if n := len(l.slab); n > 0 && len(objs) > 0 && objs[0].ID <= l.slab[n-1].ID {
		return fmt.Errorf("object %q: id %d not above the layer's %d", objs[0].Name, objs[0].ID, l.slab[n-1].ID)
	}
	// The packed path rebuilds the whole index (existing + new), so it
	// only pays off when the batch is a sizable fraction of the layer;
	// trickle batches into a big layer go through plain inserts instead
	// of an O(layer) rebuild per call.
	const bulkRebuildFraction = 4 // packed rebuild when new ≥ existing/4
	n := len(l.slab)
	if len(objs)*bulkRebuildFraction >= n {
		all := append(l.slab, objs...)
		l.idx.bulkLoad(all)
		l.slab = all[:n] // commit rewrites all[n:] in place
	} else {
		for i, o := range objs {
			l.idx.insert(o, int64(n+i))
		}
	}
	for _, o := range objs {
		l.commit(o)
	}
	return nil
}
