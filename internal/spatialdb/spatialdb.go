// Package spatialdb provides the spatial database layer the compiled query
// plans run against: named layers of region-valued objects, answering the
// univariate range queries of §1/§4
//
//	x ∈ [a,b]   and   x ⊓ c ≠ ∅
//
// over the objects' bounding boxes, through a pluggable index. Five
// backends are provided, substantiating the paper's claim that the
// optimization "does not require a special purpose data structure":
//
//   - Scan: linear scan with direct RangeSpec filtering (the baseline);
//   - RTree: Guttman R-tree over the k-dim boxes with subtree pruning;
//   - PointRTree: R-tree over the 2k-dim point transform of each box,
//     answering every compiled spec with ONE range query (Figure 3);
//   - Grid: grid file over the 2k-dim points, same single-query property;
//   - ZOrderIdx: z-element decomposition in one sorted list — the
//     z-ordering extension the paper's conclusion sketches.
//
// All backends return exactly the objects whose bounding box matches the
// spec; they differ only in cost, which Stats exposes to the experiments.
// Backends sit behind the layerIndex interface (index.go), which also
// gives Store.BulkInsert (bulk.go) and index rebuilds after deletions a
// packed build. Every stored object lies inside the store universe, so no
// backend ever refuses one.
//
// A layer keeps its objects in one slab in ascending id order; an
// object's position in the slab is its slot, and the backends store slots,
// not ids, so a probe reads its matches straight out of the slab.
//
// DESIGN.md §2 ("Storage") places this package in the module map; §3
// describes the locking and epoch protocol the store enforces.
package spatialdb

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bbox"
	"repro/internal/region"
	"repro/internal/stats"
)

// IndexKind selects a layer's index backend.
type IndexKind int

// Available index backends.
const (
	Scan IndexKind = iota
	RTree
	PointRTree
	Grid
	// ZOrderIdx indexes boxes by their z-element decomposition — the
	// extension the paper's conclusion sketches ("it seems possible to
	// extend our approach to make use of z-ordering methods").
	ZOrderIdx
)

// String returns the backend name.
func (k IndexKind) String() string {
	switch k {
	case Scan:
		return "scan"
	case RTree:
		return "rtree"
	case PointRTree:
		return "point-rtree"
	case Grid:
		return "gridfile"
	case ZOrderIdx:
		return "zorder"
	default:
		return fmt.Sprintf("IndexKind(%d)", int(k))
	}
}

// ParseIndexKind returns the backend whose String is name.
func ParseIndexKind(name string) (IndexKind, error) {
	for k := Scan; k <= ZOrderIdx; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown index backend %q", name)
}

// Object is a stored spatial object: a region plus its cached bounding
// box.
type Object struct {
	ID   int64
	Name string
	Reg  *region.Region
	Box  bbox.Box
}

// Stats accumulates index cost counters for one layer.
type Stats struct {
	Queries  int // range queries executed
	Touched  int // index nodes/cells touched
	Scanned  int // candidate objects examined by the index
	Returned int // objects actually matching the spec
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.Queries += s2.Queries
	s.Touched += s2.Touched
	s.Scanned += s2.Scanned
	s.Returned += s2.Returned
}

// Layer is a named collection of objects with an index.
type Layer struct {
	name     string
	kind     IndexKind
	k        int
	universe bbox.Box
	slab     []Object         // the objects in ascending id order; an object's slot is its index
	byName   map[string]int64 // latest object id per name, for CRUD by name
	idx      layerIndex       // the backend behind kind, over slots; see index.go
	data     *stats.Layer     // planner statistics, maintained by commit/remove

	mu    sync.Mutex // guards stats: Search may run concurrently
	stats Stats
}

func newLayer(name string, k int, kind IndexKind, universe bbox.Box) *Layer {
	l := &Layer{name: name, kind: kind, k: k, universe: universe,
		byName: map[string]int64{}, data: stats.NewLayer(universe)}
	l.idx = newLayerIndex(l)
	return l
}

// rebuildIndex recreates the index over the slab in one packed build.
func (l *Layer) rebuildIndex() {
	l.idx = newLayerIndex(l)
	l.idx.bulkLoad(l.slab)
}

// Name returns the layer name.
func (l *Layer) Name() string { return l.name }

// Kind returns the index backend.
func (l *Layer) Kind() IndexKind { return l.kind }

// Len returns the number of stored objects.
func (l *Layer) Len() int { return len(l.slab) }

// DataStats returns the layer's planner statistics (count, per-axis edge
// histograms and edge sums). The returned object is the live one,
// mutated under the store's write lock; readers must hold the store's
// read guard, exactly as for Search.
func (l *Layer) DataStats() *stats.Layer { return l.data }

// Stats returns the accumulated cost counters.
func (l *Layer) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// ResetStats clears the counters.
func (l *Layer) ResetStats() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats = Stats{}
}

// commit appends an object to the slab after the index took it at slot
// len(slab). Every path that adds an object reaches it through
// bulkInsert (the packed or the looped variant), so the planner
// statistics stay consistent with the index without per-path hooks.
func (l *Layer) commit(o Object) {
	l.slab = append(l.slab, o)
	l.byName[o.Name] = o.ID
	l.data.Add(o.Box)
}

// slotOf returns the slot holding id.
func (l *Layer) slotOf(id int64) (int, bool) {
	return slices.BinarySearchFunc(l.slab, id, func(o Object, id int64) int { return cmp.Compare(o.ID, id) })
}

// remove deletes an object by id, compacting the slab, and rebuilds the
// index over the survivors (the index backends have no dynamic delete,
// and compaction renumbers the slots after the removed one).
func (l *Layer) remove(id int64) error {
	slot, ok := l.slotOf(id)
	if !ok {
		return fmt.Errorf("spatialdb: no object with id %d in layer %q", id, l.name)
	}
	o := l.slab[slot]
	l.slab = slices.Delete(l.slab, slot, slot+1)
	l.data.Remove(o.Box)
	if l.byName[o.Name] == id {
		delete(l.byName, o.Name)
		// Inserts allow duplicate names; repoint to the newest survivor
		// with this name so it stays reachable (and removable) by name.
		for i := len(l.slab) - 1; i >= 0; i-- {
			if l.slab[i].Name == o.Name {
				l.byName[o.Name] = l.slab[i].ID
				break
			}
		}
	}
	l.rebuildIndex()
	return nil
}

// Get returns an object by id.
func (l *Layer) Get(id int64) (Object, bool) {
	if slot, ok := l.slotOf(id); ok {
		return l.slab[slot], true
	}
	return Object{}, false
}

// GetByName returns the most recently inserted object with the given
// name.
func (l *Layer) GetByName(name string) (Object, bool) {
	id, ok := l.byName[name]
	if !ok {
		return Object{}, false
	}
	return l.Get(id)
}

// All visits all objects in ascending id order.
func (l *Layer) All(visit func(Object) bool) {
	for _, o := range l.slab {
		if !visit(o) {
			return
		}
	}
}

// Objects returns all objects in ascending id order.
func (l *Layer) Objects() []Object { return slices.Clone(l.slab) }

// Search visits every object whose bounding box matches the spec, in
// ascending id order, updating the layer's cost counters. Search is safe
// for concurrent use (the parallel executor issues range queries from
// several goroutines).
func (l *Layer) Search(spec bbox.RangeSpec, visit func(Object) bool) {
	l.SearchStats(spec, visit)
}

// SearchStats is Search returning the cost of this one call (which is
// also accumulated into the layer counters).
func (l *Layer) SearchStats(spec bbox.RangeSpec, visit func(Object) bool) Stats {
	var slots []int64
	s := l.SearchInto(spec, &slots, visit)
	l.AddStats(s)
	return s
}

// SearchInto is the executors' form of SearchStats: matching slots are
// gathered in the caller-owned *slots (reused from probe to probe, so a
// warm buffer makes the probe allocation-free), and the call's cost is
// returned WITHOUT being added to the layer counters. A run attributes
// index work to itself from the return values — exact even when many
// runs share a layer — and folds its total in with AddStats once, instead
// of taking the counter lock on every probe. A spec no stored box can
// match — an empty upper bound, or one bbox.RangeSpec.Unsatisfiable
// names — returns at once, touching nothing: stored boxes are never
// empty.
func (l *Layer) SearchInto(spec bbox.RangeSpec, slots *[]int64, visit func(Object) bool) Stats {
	s := Stats{Queries: 1}
	if spec.Upper.IsEmpty() || spec.Unsatisfiable() {
		return s
	}
	found, touched, scanned := l.idx.search(spec, (*slots)[:0])
	*slots = found
	slices.Sort(found) // ascending slots are ascending ids
	s.Touched, s.Scanned, s.Returned = touched, scanned, len(found)
	for _, slot := range found {
		if !visit(l.slab[slot]) {
			break
		}
	}
	return s
}

// AddStats folds index cost measured by SearchInto into the layer
// counters.
func (l *Layer) AddStats(s Stats) {
	l.mu.Lock()
	l.stats.Add(s)
	l.mu.Unlock()
}

// Store is a collection of layers over a shared universe.
//
// Concurrency: the store carries a readers–writer guard so that many
// goroutines can execute compiled plans while others mutate layers. The
// mutating entry points (Insert, BulkInsert, Upsert, Remove, layer
// creation, snapshot load) take the write lock internally; plan
// execution in internal/query holds
// the read lock for the whole run via RLock/RUnlock, giving each query a
// consistent view of the data. Every mutation bumps a monotone epoch
// counter, which cache layers use to invalidate compiled plans.
type Store struct {
	universe bbox.Box
	kind     IndexKind

	mu       sync.RWMutex // guards layers, names, nextID, sink
	epoch    atomic.Uint64
	degraded atomic.Bool       // read-only gate; see SetDegraded (mutlog.go)
	replica  atomic.Bool       // replica gate; see SetReplica (mutlog.go)
	layers   map[string]*Layer //boolq:guardedby mu
	names    []string          //boolq:guardedby mu
	nextID   int64             //boolq:guardedby mu

	// sink, when set, receives every mutation inside the critical section
	// that applied it — the durable write path's hook point (mutlog.go).
	sink func(*Mutation) error //boolq:guardedby mu
}

// NewStore returns an empty store; layers created through it use the given
// index backend.
func NewStore(universe bbox.Box, kind IndexKind) *Store {
	if universe.IsEmpty() {
		panic("spatialdb: empty universe")
	}
	return &Store{universe: universe, kind: kind, layers: map[string]*Layer{}}
}

// Universe returns the store's universe box.
func (s *Store) Universe() bbox.Box { return s.universe }

// K returns the dimensionality.
func (s *Store) K() int { return s.universe.K }

// Kind returns the index backend layers are created with.
func (s *Store) Kind() IndexKind { return s.kind }

// Epoch returns the store's mutation counter. It increases monotonically
// on every Insert, Remove and layer creation — and once per BulkInsert
// batch — so compiled-plan caches key on it to drop plans built against
// an older state.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// RLock acquires the store's read guard. Plan execution holds it for the
// whole run so that concurrent mutations cannot interleave with a query's
// range queries; any direct use of LayerIfExists or Layer.Search from
// multiple goroutines must do the same.
func (s *Store) RLock() { s.mu.RLock() }

// RUnlock releases the read guard.
func (s *Store) RUnlock() { s.mu.RUnlock() }

// Layer returns (creating if needed) the named layer. Creation counts as
// a mutation: it takes the write lock and bumps the epoch.
func (s *Store) Layer(name string) *Layer {
	s.mu.RLock()
	l, ok := s.layers[name]
	s.mu.RUnlock()
	if ok {
		return l
	}
	l, _, _ = s.CreateLayer(name)
	return l
}

// CreateLayer ensures the named layer exists and reports whether this
// call created it — atomically under the write lock, unlike a
// HasLayer/Layer pair, so concurrent creators agree on who created it.
// A non-nil error is always an ErrDurability: the layer exists in memory
// but its creation record could not be logged.
//
//boolq:mutation nostats
func (s *Store) CreateLayer(name string) (*Layer, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.layers[name]; ok {
		return l, false, nil
	}
	if err := s.admitMutationLocked(); err != nil {
		return nil, false, err
	}
	if err := s.applyMutationLocked(OpCreateLayer, name, nil, 0); err != nil {
		return nil, false, err
	}
	s.epoch.Add(1)
	err := s.logMutation(&Mutation{Op: OpCreateLayer, Layer: name})
	return s.layers[name], true, err
}

// LayerIfExists returns the named layer without creating it. Unlike the
// other accessors it does not take the store lock: it is meant for use
// under an explicit RLock (the query executors resolve their step layers
// through it while holding the read guard).
//
//boolq:rlocked mu
func (s *Store) LayerIfExists(name string) (*Layer, bool) {
	l, ok := s.layers[name]
	return l, ok
}

// HasLayer reports whether the named layer exists.
func (s *Store) HasLayer(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.layers[name]
	return ok
}

// LayerNames returns layer names in creation order.
func (s *Store) LayerNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.names...)
}

// Insert adds a named region to a layer and returns its object. It is
// safe for concurrent use; the epoch is bumped after the object is in
// place. An ErrDurability means the object was inserted (and is
// returned) but its record could not be logged.
//
//boolq:mutation
func (s *Store) Insert(layer, name string, r *region.Region) (Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitMutationLocked(); err != nil {
		return Object{}, err
	}
	o, err := s.newObject(s.nextID, MutObject{ID: s.nextID + 1, Name: name}, r)
	if err == nil {
		err = s.applyMutationLocked(OpInsert, layer, []Object{o}, 0)
	}
	if err != nil {
		return Object{}, fmt.Errorf("spatialdb: insert %q/%q: %w", layer, name, err)
	}
	s.epoch.Add(1)
	err = s.logMutation(&Mutation{Op: OpInsert, Layer: layer, Objects: []MutObject{mutObject(o)}})
	return o, err
}

// Upsert atomically replaces the named object in a layer: the new region
// is inserted and any existing object with that name removed under one
// write-lock acquisition, so concurrent upserts of the same name can
// never leave duplicates and concurrent readers never observe the name
// missing. A failed upsert leaves the old object untouched.
//
//boolq:mutation
func (s *Store) Upsert(layer, name string, r *region.Region) (Object, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitMutationLocked(); err != nil {
		return Object{}, false, err
	}
	replaced := false
	if l, ok := s.layers[layer]; ok {
		_, replaced = l.GetByName(name)
	}
	o, err := s.newObject(s.nextID, MutObject{ID: s.nextID + 1, Name: name}, r)
	if err == nil {
		err = s.applyMutationLocked(OpUpsert, layer, []Object{o}, 0)
	}
	if err != nil {
		return Object{}, false, fmt.Errorf("spatialdb: upsert %q/%q: %w", layer, name, err)
	}
	s.epoch.Add(1)
	err = s.logMutation(&Mutation{Op: OpUpsert, Layer: layer, Objects: []MutObject{mutObject(o)}})
	return o, replaced, err
}

// Remove deletes the named object from a layer. It reports whether an
// object with that name existed; removal bumps the epoch.
//
//boolq:mutation
func (s *Store) Remove(layer, name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitMutationLocked(); err != nil {
		return false, err
	}
	l, ok := s.layers[layer]
	if !ok {
		return false, nil
	}
	o, ok := l.GetByName(name)
	if !ok {
		return false, nil
	}
	if err := s.applyMutationLocked(OpRemove, layer, nil, o.ID); err != nil {
		return false, err
	}
	s.epoch.Add(1)
	err := s.logMutation(&Mutation{Op: OpRemove, Layer: layer, RemoveID: o.ID})
	return true, err
}

// MustInsert is Insert that panics on error; for tests and generators
// whose regions are nonempty by construction.
func (s *Store) MustInsert(layer, name string, r *region.Region) Object {
	o, err := s.Insert(layer, name, r)
	if err != nil {
		panic(err)
	}
	return o
}

// TotalStats sums the counters over all layers.
func (s *Store) TotalStats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var t Stats
	for _, name := range s.names {
		t.Add(s.layers[name].Stats())
	}
	return t
}

// ResetStats clears all layers' counters.
func (s *Store) ResetStats() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, name := range s.names {
		s.layers[name].ResetStats()
	}
}
