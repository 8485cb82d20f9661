package spatialdb

import (
	"repro/internal/bbox"
	"repro/internal/gridfile"
	"repro/internal/rtree"
	"repro/internal/zorder"
)

// layerIndex is the index backend behind one layer, over slots: the
// positions of the layer's objects in its slab. insert adds the object at
// slot; search appends to slots the slot of every object whose bounding
// box matches the spec, and no other (the layer orders them), and returns
// the grown slice with the backend cost counters: index nodes/cells
// touched and candidate objects examined.
type layerIndex interface {
	insert(o Object, slot int64) error
	search(spec bbox.RangeSpec, slots []int64) (found []int64, touched, scanned int)
}

// BulkLoader is the optional batch-ingestion path of an index backend:
// BulkLoad replaces the index contents with exactly the given objects in
// one packed build, objs[i] at slot i (the R-tree backends use
// Sort-Tile-Recursive packing, the grid file pre-seeds its scales from the
// full point set, the z-order index sorts its element list once).
// Store.BulkInsert and index rebuilds use it when available and fall back
// to looped inserts otherwise.
//
// Contract: on error the live index must be left unchanged — adapters
// build a fresh structure and swap it in only on success — so a failed
// bulk load can always fall back to per-object insertion for exact error
// attribution.
type BulkLoader interface {
	BulkLoad(objs []Object) error
}

// Per-backend tuning shared by the incremental and bulk constructors.
const (
	gridBucketCap = 16 // grid-file bucket capacity
	zorderBudget  = 16 // max z-elements per stored box
)

// newLayerIndex returns the backend for a layer's kind. The scan backend
// reads the layer's slab directly; the others own a structure.
func newLayerIndex(l *Layer) layerIndex {
	switch l.kind {
	case RTree:
		return &rtreeIndex{t: rtree.New(l.k), k: l.k}
	case PointRTree:
		return &pointIndex{t: rtree.New(2 * l.k), k: l.k}
	case Grid:
		return &gridIndex{g: gridfile.New(2*l.k, gridBucketCap), k: l.k}
	case ZOrderIdx:
		return &zorderIndex{zx: zorder.NewIndex(l.universe, zorderBudget), l: l}
	default:
		return scanIndex{l: l}
	}
}

// ---- scan ----

// scanIndex is the no-structure baseline: search examines every object in
// the slab. It has no BulkLoad — the looped fallback is already optimal
// when there is nothing to build.
type scanIndex struct{ l *Layer }

func (ix scanIndex) insert(Object, int64) error { return nil }

func (ix scanIndex) search(spec bbox.RangeSpec, slots []int64) (found []int64, touched, scanned int) {
	var buf [bbox.FlatRunsHint]float64
	f, ok := spec.Flatten(buf[:0])
	for slot, o := range ix.l.slab {
		if ok && f.Matches(o.Box.Lo, o.Box.Hi) {
			slots = append(slots, int64(slot))
		}
	}
	return slots, len(ix.l.slab), len(ix.l.slab)
}

// ---- R-tree over native boxes ----

// rtreeIndex is a Guttman R-tree over the objects' k-dim bounding boxes,
// answering compiled RangeSpecs with subtree pruning.
type rtreeIndex struct {
	t *rtree.Tree
	k int
}

func (ix *rtreeIndex) insert(o Object, slot int64) error { return ix.t.Insert(o.Box, slot) }

func (ix *rtreeIndex) search(spec bbox.RangeSpec, slots []int64) (found []int64, touched, scanned int) {
	n := len(slots)
	touched = ix.t.SearchSpec(spec, func(slot int64) bool {
		slots = append(slots, slot)
		return true
	})
	return slots, touched, len(slots) - n
}

// BulkLoad rebuilds the tree with STR packing (experiment E13: packed
// trees answer queries markedly cheaper than insertion-built ones).
func (ix *rtreeIndex) BulkLoad(objs []Object) error {
	runs := make([]float64, 0, 2*ix.k*len(objs))
	for _, o := range objs {
		runs = o.Box.AppendRun(runs)
	}
	t, err := rtree.BulkLoadRuns(ix.k, runs, iota64(len(objs)))
	if err != nil {
		return err
	}
	ix.t = t
	return nil
}

// iota64 returns the slots 0…n-1.
func iota64(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i)
	}
	return s
}

// ---- R-tree over point-transformed boxes ----

// pointIndex is an R-tree over the 2k-dim point transform of each box
// (Figure 3): every compiled spec becomes ONE overlap query.
type pointIndex struct {
	t *rtree.Tree
	k int // store dimensionality; the tree is 2k-dimensional
}

func (ix *pointIndex) insert(o Object, slot int64) error {
	p := bbox.PointTransform(o.Box)
	return ix.t.Insert(bbox.Box{K: len(p), Lo: p, Hi: p}, slot)
}

func (ix *pointIndex) search(spec bbox.RangeSpec, slots []int64) (found []int64, touched, scanned int) {
	var lo, hi [16]float64 // on the stack up to k = 8
	q, ok := spec.PointQueryTo(lo[:], hi[:])
	if !ok {
		return slots, 0, 0
	}
	n := len(slots)
	touched = ix.t.SearchOverlap(q, func(slot int64) bool {
		slots = append(slots, slot)
		return true
	})
	return slots, touched, len(slots) - n
}

// BulkLoad rebuilds the point tree with STR packing over the transformed
// boxes: the degenerate box of point (lo, hi) has the run lo, hi, lo, hi.
func (ix *pointIndex) BulkLoad(objs []Object) error {
	runs := make([]float64, 0, 4*ix.k*len(objs))
	for _, o := range objs {
		runs = o.Box.AppendRun(o.Box.AppendRun(runs))
	}
	t, err := rtree.BulkLoadRuns(2*ix.k, runs, iota64(len(objs)))
	if err != nil {
		return err
	}
	ix.t = t
	return nil
}

// ---- grid file ----

// gridIndex is a grid file over the 2k-dim point transform, same
// single-query property as pointIndex.
type gridIndex struct {
	g *gridfile.Grid
	k int
}

func (ix *gridIndex) insert(o Object, slot int64) error {
	return ix.g.Insert(bbox.PointTransform(o.Box), slot)
}

func (ix *gridIndex) search(spec bbox.RangeSpec, slots []int64) (found []int64, touched, scanned int) {
	var lo, hi [16]float64 // on the stack up to k = 8
	q, ok := spec.PointQueryTo(lo[:], hi[:])
	if !ok {
		return slots, 0, 0
	}
	n := len(slots)
	touched = ix.g.Search(q, func(_ []float64, slot int64) bool {
		slots = append(slots, slot)
		return true
	})
	return slots, touched, len(slots) - n
}

// BulkLoad rebuilds the grid with scales pre-seeded from the full point
// set, avoiding the per-overflow directory rehashes of an insert loop.
func (ix *gridIndex) BulkLoad(objs []Object) error {
	points := make([][]float64, len(objs))
	for i, o := range objs {
		points[i] = bbox.PointTransform(o.Box)
	}
	g, err := gridfile.BulkLoad(2*ix.k, gridBucketCap, points, iota64(len(objs)))
	if err != nil {
		return err
	}
	ix.g = g
	return nil
}

// ---- z-order ----

// zorderIndex decomposes each box into z-elements in one sorted list —
// the z-ordering extension the paper's conclusion sketches. Stored boxes
// must lie inside the universe.
type zorderIndex struct {
	zx *zorder.Index
	l  *Layer // its slab holds the boxes search re-checks
}

func (ix *zorderIndex) insert(o Object, slot int64) error { return ix.zx.Insert(o.Box, slot) }

// search is the one backend whose structure cannot answer a spec exactly:
// a z-order probe filters by a single overlap box (zorder.SearchSpec), so
// the candidates it scanned are checked against the whole spec here.
func (ix *zorderIndex) search(spec bbox.RangeSpec, slots []int64) (found []int64, touched, scanned int) {
	n := len(slots)
	slots, touched = ix.zx.SearchSpec(spec, slots)
	var buf [bbox.FlatRunsHint]float64
	f, _ := spec.Flatten(buf[:0]) // SearchInto probes only satisfiable specs
	found = slots[:n]
	for _, slot := range slots[n:] {
		if b := &ix.l.slab[slot].Box; f.Matches(b.Lo, b.Hi) {
			found = append(found, slot)
		}
	}
	return found, touched, len(slots) - n
}

// BulkLoad rebuilds the element list in one validated pass and sorts it
// once. An out-of-universe box fails the whole build (the caller falls
// back to looped inserts to attribute the error).
func (ix *zorderIndex) BulkLoad(objs []Object) error {
	boxes := make([]bbox.Box, len(objs))
	for i, o := range objs {
		boxes[i] = o.Box
	}
	zx, err := zorder.BulkLoad(ix.l.universe, zorderBudget, boxes, iota64(len(objs)))
	if err != nil {
		return err
	}
	ix.zx = zx
	return nil
}
