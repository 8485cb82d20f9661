package spatialdb

import (
	"repro/internal/bbox"
	"repro/internal/gridfile"
	"repro/internal/rtree"
	"repro/internal/zorder"
)

// layerIndex is the index backend behind one layer, over slots: the
// positions of the layer's objects in its slab. insert adds the object at
// slot; bulkLoad replaces the contents with exactly objs, objs[i] at slot
// i, in one packed build (the R-tree backends use Sort-Tile-Recursive
// packing, the grid file pre-seeds its scales from the full point set,
// the z-order index sorts its element list once); search appends to slots
// the slot of every object whose bounding box matches the spec, and no
// other (the layer orders them), and returns the grown slice with the
// backend cost counters: index nodes/cells touched and candidate objects
// examined.
//
// Every object reaching a backend was built by newObject — non-empty, of
// the store's dimensionality, inside the universe — so no backend can
// reject one. An adapter whose package still returns an error panics
// (must): that error means a broken invariant, not bad input.
type layerIndex interface {
	insert(o Object, slot int64)
	bulkLoad(objs []Object)
	search(spec bbox.RangeSpec, slots []int64) (found []int64, touched, scanned int)
}

// must panics on an index package's error; see layerIndex.
func must(err error) {
	if err != nil {
		panic("spatialdb: index refused a validated object: " + err.Error())
	}
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
// the slab, so there is nothing to insert into or build.
type scanIndex struct{ l *Layer }

func (ix scanIndex) insert(Object, int64) {}

func (ix scanIndex) bulkLoad([]Object) {}

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

func (ix *rtreeIndex) insert(o Object, slot int64) { must(ix.t.Insert(o.Box, slot)) }

func (ix *rtreeIndex) search(spec bbox.RangeSpec, slots []int64) (found []int64, touched, scanned int) {
	n := len(slots)
	touched = ix.t.SearchSpec(spec, func(slot int64) bool {
		slots = append(slots, slot)
		return true
	})
	return slots, touched, len(slots) - n
}

// bulkLoad rebuilds the tree with STR packing (experiment E13: packed
// trees answer queries markedly cheaper than insertion-built ones).
func (ix *rtreeIndex) bulkLoad(objs []Object) {
	runs := make([]float64, 0, 2*ix.k*len(objs))
	for _, o := range objs {
		runs = o.Box.AppendRun(runs)
	}
	t, err := rtree.BulkLoadRuns(ix.k, runs, iota64(len(objs)))
	must(err)
	ix.t = t
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

func (ix *pointIndex) insert(o Object, slot int64) {
	p := bbox.PointTransform(o.Box)
	must(ix.t.Insert(bbox.Box{K: len(p), Lo: p, Hi: p}, slot))
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

// bulkLoad rebuilds the point tree with STR packing over the transformed
// boxes: the degenerate box of point (lo, hi) has the run lo, hi, lo, hi.
func (ix *pointIndex) bulkLoad(objs []Object) {
	runs := make([]float64, 0, 4*ix.k*len(objs))
	for _, o := range objs {
		runs = o.Box.AppendRun(o.Box.AppendRun(runs))
	}
	t, err := rtree.BulkLoadRuns(2*ix.k, runs, iota64(len(objs)))
	must(err)
	ix.t = t
}

// ---- grid file ----

// gridIndex is a grid file over the 2k-dim point transform, same
// single-query property as pointIndex.
type gridIndex struct {
	g *gridfile.Grid
	k int
}

func (ix *gridIndex) insert(o Object, slot int64) {
	must(ix.g.Insert(bbox.PointTransform(o.Box), slot))
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

// bulkLoad rebuilds the grid with scales pre-seeded from the full point
// set, avoiding the per-overflow directory rehashes of an insert loop.
func (ix *gridIndex) bulkLoad(objs []Object) {
	points := make([][]float64, len(objs))
	for i, o := range objs {
		points[i] = bbox.PointTransform(o.Box)
	}
	g, err := gridfile.BulkLoad(2*ix.k, gridBucketCap, points, iota64(len(objs)))
	must(err)
	ix.g = g
}

// ---- z-order ----

// zorderIndex decomposes each box into z-elements in one sorted list —
// the z-ordering extension the paper's conclusion sketches. Its package
// refuses a box outside the universe, which newObject already has.
type zorderIndex struct {
	zx *zorder.Index
	l  *Layer // its slab holds the boxes search re-checks
}

func (ix *zorderIndex) insert(o Object, slot int64) { must(ix.zx.Insert(o.Box, slot)) }

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

// bulkLoad rebuilds the element list in one pass and sorts it once.
func (ix *zorderIndex) bulkLoad(objs []Object) {
	boxes := make([]bbox.Box, len(objs))
	for i, o := range objs {
		boxes[i] = o.Box
	}
	zx, err := zorder.BulkLoad(ix.l.universe, zorderBudget, boxes, iota64(len(objs)))
	must(err)
	ix.zx = zx
}
