package spatialdb

import (
	"repro/internal/bbox"
	"repro/internal/gridfile"
	"repro/internal/rtree"
	"repro/internal/zorder"
)

// layerIndex is the index backend behind one layer. insert adds a single
// object; search appends to ids the id of every object whose bounding box
// matches the spec (the layer applies the exact defense-in-depth filter
// and ordering) and returns the grown slice with the backend cost
// counters: index nodes/cells touched and candidate objects examined.
type layerIndex interface {
	insert(o Object) error
	search(spec bbox.RangeSpec, ids []int64) (found []int64, touched, scanned int)
}

// BulkLoader is the optional batch-ingestion path of an index backend:
// BulkLoad replaces the index contents with exactly the given objects in
// one packed build (the R-tree backends use Sort-Tile-Recursive packing,
// the grid file pre-seeds its scales from the full point set, the z-order
// index sorts its element list once). Store.BulkInsert and index rebuilds
// use it when available and fall back to looped inserts otherwise.
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
// reads the layer's object table directly; the others own a structure.
func newLayerIndex(l *Layer) layerIndex {
	switch l.kind {
	case RTree:
		return &rtreeIndex{t: rtree.New(l.k), k: l.k}
	case PointRTree:
		return &pointIndex{t: rtree.New(2 * l.k), k: l.k}
	case Grid:
		return &gridIndex{g: gridfile.New(2*l.k, gridBucketCap), k: l.k}
	case ZOrderIdx:
		return &zorderIndex{zx: zorder.NewIndex(l.universe, zorderBudget), universe: l.universe}
	default:
		return scanIndex{l: l}
	}
}

// ---- scan ----

// scanIndex is the no-structure baseline: search examines every object in
// insertion order. It has no BulkLoad — the looped fallback is already
// optimal when there is nothing to build.
type scanIndex struct{ l *Layer }

func (ix scanIndex) insert(Object) error { return nil }

func (ix scanIndex) search(spec bbox.RangeSpec, ids []int64) (found []int64, touched, scanned int) {
	for _, id := range ix.l.order {
		if spec.Matches(ix.l.objs[id].Box) {
			ids = append(ids, id)
		}
	}
	return ids, len(ix.l.order), len(ix.l.order)
}

// ---- R-tree over native boxes ----

// rtreeIndex is a Guttman R-tree over the objects' k-dim bounding boxes,
// answering compiled RangeSpecs with subtree pruning.
type rtreeIndex struct {
	t *rtree.Tree
	k int
}

func (ix *rtreeIndex) insert(o Object) error { return ix.t.Insert(o.Box, o.ID) }

func (ix *rtreeIndex) search(spec bbox.RangeSpec, ids []int64) (found []int64, touched, scanned int) {
	n := len(ids)
	touched = ix.t.SearchSpec(spec, func(e rtree.Entry) bool {
		ids = append(ids, e.ID)
		return true
	})
	return ids, touched, len(ids) - n
}

// BulkLoad rebuilds the tree with STR packing (experiment E13: packed
// trees answer queries markedly cheaper than insertion-built ones).
func (ix *rtreeIndex) BulkLoad(objs []Object) error {
	entries := make([]rtree.Entry, len(objs))
	for i, o := range objs {
		entries[i] = rtree.Entry{Box: o.Box, ID: o.ID}
	}
	t, err := rtree.BulkLoad(ix.k, entries)
	if err != nil {
		return err
	}
	ix.t = t
	return nil
}

// ---- R-tree over point-transformed boxes ----

// pointIndex is an R-tree over the 2k-dim point transform of each box
// (Figure 3): every compiled spec becomes ONE overlap query.
type pointIndex struct {
	t *rtree.Tree
	k int // store dimensionality; the tree is 2k-dimensional
}

func (ix *pointIndex) insert(o Object) error {
	p := bbox.PointTransform(o.Box)
	return ix.t.Insert(bbox.New(p, p), o.ID)
}

func (ix *pointIndex) search(spec bbox.RangeSpec, ids []int64) (found []int64, touched, scanned int) {
	q, ok := spec.PointQuery()
	if !ok {
		return ids, 0, 0
	}
	n := len(ids)
	touched = ix.t.SearchOverlap(q, func(e rtree.Entry) bool {
		ids = append(ids, e.ID)
		return true
	})
	return ids, touched, len(ids) - n
}

// BulkLoad rebuilds the point tree with STR packing over the transformed
// boxes.
func (ix *pointIndex) BulkLoad(objs []Object) error {
	entries := make([]rtree.Entry, len(objs))
	for i, o := range objs {
		p := bbox.PointTransform(o.Box)
		entries[i] = rtree.Entry{Box: bbox.New(p, p), ID: o.ID}
	}
	t, err := rtree.BulkLoad(2*ix.k, entries)
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

func (ix *gridIndex) insert(o Object) error {
	return ix.g.Insert(bbox.PointTransform(o.Box), o.ID)
}

func (ix *gridIndex) search(spec bbox.RangeSpec, ids []int64) (found []int64, touched, scanned int) {
	q, ok := spec.PointQuery()
	if !ok {
		return ids, 0, 0
	}
	n := len(ids)
	touched = ix.g.Search(q, func(_ []float64, id int64) bool {
		ids = append(ids, id)
		return true
	})
	return ids, touched, len(ids) - n
}

// BulkLoad rebuilds the grid with scales pre-seeded from the full point
// set, avoiding the per-overflow directory rehashes of an insert loop.
func (ix *gridIndex) BulkLoad(objs []Object) error {
	points := make([][]float64, len(objs))
	ids := make([]int64, len(objs))
	for i, o := range objs {
		points[i] = bbox.PointTransform(o.Box)
		ids[i] = o.ID
	}
	g, err := gridfile.BulkLoad(2*ix.k, gridBucketCap, points, ids)
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
	zx       *zorder.Index
	universe bbox.Box
}

func (ix *zorderIndex) insert(o Object) error { return ix.zx.Insert(o.Box, o.ID) }

func (ix *zorderIndex) search(spec bbox.RangeSpec, ids []int64) (found []int64, touched, scanned int) {
	if spec.Unsatisfiable() {
		return ids, 0, 0
	}
	n := len(ids)
	touched = ix.zx.SearchOverlap(zorderFilter(spec), func(id int64) bool {
		ids = append(ids, id)
		return true
	})
	return ids, touched, len(ids) - n
}

// BulkLoad rebuilds the element list in one validated pass and sorts it
// once. An out-of-universe box fails the whole build (the caller falls
// back to looped inserts to attribute the error).
func (ix *zorderIndex) BulkLoad(objs []Object) error {
	boxes := make([]bbox.Box, len(objs))
	ids := make([]int64, len(objs))
	for i, o := range objs {
		boxes[i] = o.Box
		ids[i] = o.ID
	}
	zx, err := zorder.BulkLoad(ix.universe, zorderBudget, boxes, ids)
	if err != nil {
		return err
	}
	ix.zx = zx
	return nil
}
