// Package gridfile implements the grid file of Nievergelt, Hinterberger
// and Sevcik [TODS 1984] — the second range-query data structure the paper
// cites (§1, reference [9]).
//
// A grid file indexes k-dimensional *points* with a directory of grid
// cells defined by per-dimension linear scales. The spatial layer uses it
// in point-transform mode: a k-dim bounding box becomes a 2k-dim point
// (Figure 3), and every compiled range query becomes one box query here.
//
// This implementation keeps one bucket per directory cell and refines the
// scales on bucket overflow by a median cut in the most spread-out
// dimension, rehashing affected points. Duplicate-heavy buckets that
// cannot be cut are allowed to overflow (the classical fallback).
//
// DESIGN.md §2 ("Storage") places this package in the module map.
package gridfile

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/bbox"
)

type entry struct {
	p  []float64
	id int64
}

type bucket struct {
	entries []entry
}

// Grid is a grid file over k-dimensional points. The zero value is
// unusable; call New.
type Grid struct {
	k      int
	cap    int
	scales [][]float64 // sorted interior cut points per dimension
	dir    map[string]*bucket
	size   int
	splits int
}

// New returns an empty grid file for k-dimensional points with the given
// bucket capacity (≥ 2).
func New(k, bucketCap int) *Grid {
	if k < 1 || bucketCap < 2 {
		panic(fmt.Sprintf("gridfile: invalid k=%d cap=%d", k, bucketCap))
	}
	return &Grid{
		k:      k,
		cap:    bucketCap,
		scales: make([][]float64, k),
		dir:    map[string]*bucket{},
	}
}

// K returns the dimensionality.
func (g *Grid) K() int { return g.k }

// Len returns the number of stored points.
func (g *Grid) Len() int { return g.size }

// Splits returns the number of scale refinements performed (a cost
// metric).
func (g *Grid) Splits() int { return g.splits }

// cellIndex returns the interval index of v on dimension d's scale.
func (g *Grid) cellIndex(d int, v float64) int {
	return sort.SearchFloat64s(g.scales[d], v) // cuts strictly greater stay right
}

func (g *Grid) keyOf(p []float64) string {
	idx := make([]int, g.k)
	for d := range idx {
		idx[d] = g.cellIndex(d, p[d])
	}
	return string(appendKey(nil, idx))
}

// appendKey appends the directory key of the cell with per-dimension
// interval indices idx: the indices in decimal, comma-separated.
func appendKey(dst []byte, idx []int) []byte {
	for d, i := range idx {
		if d > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(i), 10)
	}
	return dst
}

// Insert adds a point.
func (g *Grid) Insert(p []float64, id int64) error {
	if len(p) != g.k {
		return fmt.Errorf("gridfile: point dimension %d, grid dimension %d", len(p), g.k)
	}
	q := append([]float64(nil), p...)
	key := g.keyOf(q)
	b := g.dir[key]
	if b == nil {
		b = &bucket{}
		g.dir[key] = b
	}
	b.entries = append(b.entries, entry{p: q, id: id})
	g.size++
	if len(b.entries) > g.cap {
		g.splitBucket(key, b)
	}
	return nil
}

// BulkLoad builds a grid file over all points at once: the per-dimension
// scales are pre-seeded with quantile cuts sized for the final point
// count, so loading proceeds with few or no overflow splits — each split
// rehashes the whole directory, which is what makes an insert loop into a
// cold grid O(n²)-ish on adversarial orders. points and ids are parallel
// slices; every point must be k-dimensional.
func BulkLoad(k, bucketCap int, points [][]float64, ids []int64) (*Grid, error) {
	if len(points) != len(ids) {
		return nil, fmt.Errorf("gridfile: %d points but %d ids", len(points), len(ids))
	}
	g := New(k, bucketCap)
	for i, p := range points {
		if len(p) != k {
			return nil, fmt.Errorf("gridfile: point %d dimension %d, grid dimension %d", i, len(p), k)
		}
	}
	g.seedScales(points)
	for i, p := range points {
		if err := g.Insert(p, ids[i]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// seedScales installs quantile cut points sized so that, under a roughly
// uniform spread, the directory has about one bucket's worth of points
// per cell. Residual overflows are relieved by the normal split path.
func (g *Grid) seedScales(points [][]float64) {
	n := len(points)
	if n <= g.cap {
		return
	}
	cells := int(math.Ceil(math.Pow(float64(n)/float64(g.cap), 1/float64(g.k))))
	if cells < 2 {
		return
	}
	vals := make([]float64, n)
	for d := 0; d < g.k; d++ {
		for i, p := range points {
			vals[i] = p[d]
		}
		sort.Float64s(vals)
		var cuts []float64
		for c := 1; c < cells; c++ {
			v := vals[c*n/cells]
			// Keep cuts strictly increasing and strictly above the minimum:
			// a cut at or below the minimum bounds an empty cell.
			if v > vals[0] && (len(cuts) == 0 || v > cuts[len(cuts)-1]) {
				cuts = append(cuts, v)
			}
		}
		g.scales[d] = cuts
	}
}

// splitBucket refines the scales to relieve an overflowing bucket. If no
// cut separates the bucket's points (all duplicates), the bucket simply
// overflows.
func (g *Grid) splitBucket(key string, b *bucket) {
	// Pick the dimension with the widest spread inside the bucket.
	bestDim, bestSpread := -1, 0.0
	for d := 0; d < g.k; d++ {
		lo, hi := b.entries[0].p[d], b.entries[0].p[d]
		for _, e := range b.entries[1:] {
			if e.p[d] < lo {
				lo = e.p[d]
			}
			if e.p[d] > hi {
				hi = e.p[d]
			}
		}
		if spread := hi - lo; spread > bestSpread {
			bestDim, bestSpread = d, spread
		}
	}
	if bestDim < 0 {
		return // all points identical: overflow in place
	}
	// Median cut.
	vals := make([]float64, len(b.entries))
	for i, e := range b.entries {
		vals[i] = e.p[bestDim]
	}
	sort.Float64s(vals)
	cut := vals[len(vals)/2]
	if cut == vals[0] {
		// Median equals minimum; use the first strictly larger value so
		// both sides are nonempty.
		for _, v := range vals {
			if v > cut {
				cut = v
				break
			}
		}
	}
	// Insert the cut into the scale (idempotent).
	sc := g.scales[bestDim]
	pos := sort.SearchFloat64s(sc, cut)
	if pos < len(sc) && sc[pos] == cut {
		return // cut already exists; cell boundaries unchanged
	}
	g.scales[bestDim] = append(sc[:pos:pos], append([]float64{cut}, sc[pos:]...)...)
	g.rehash()
	_ = key
	g.splits++
}

// rehash rebuilds the directory against the current scales. O(n), invoked
// once per scale refinement.
func (g *Grid) rehash() {
	old := g.dir
	g.dir = map[string]*bucket{}
	for _, b := range old {
		for _, e := range b.entries {
			key := g.keyOf(e.p)
			nb := g.dir[key]
			if nb == nil {
				nb = &bucket{}
				g.dir[key] = nb
			}
			nb.entries = append(nb.entries, e)
		}
	}
}

// searchStack bounds the dimensionality whose cell odometer and key fit
// Search's stack arrays; a larger grid allocates them.
const searchStack = 16

// Search visits every stored point inside the query box. The visitor
// returns false to stop. It reports the number of directory cells touched.
// Up to searchStack dimensions it allocates nothing.
func (g *Grid) Search(q bbox.Box, visit func(p []float64, id int64) bool) int {
	if q.IsEmpty() {
		return 0
	}
	if q.K != g.k {
		panic(fmt.Sprintf("gridfile: query dimension %d, grid dimension %d", q.K, g.k))
	}
	// Determine the index range per dimension.
	var loA, hiA, idxA [searchStack]int
	var keyA [8 * searchStack]byte
	lo, hi, idx := loA[:], hiA[:], idxA[:]
	if g.k > searchStack {
		lo, hi, idx = make([]int, g.k), make([]int, g.k), make([]int, g.k)
	}
	lo, hi, idx = lo[:g.k], hi[:g.k], idx[:g.k]
	for d := 0; d < g.k; d++ {
		lo[d] = g.cellIndex(d, q.Lo[d])
		hi[d] = g.cellIndex(d, q.Hi[d])
	}
	touched := 0
	copy(idx, lo)
	for {
		// A map index by string(bytes) does not allocate the string.
		if b := g.dir[string(appendKey(keyA[:0], idx))]; b != nil {
			touched++
			for _, e := range b.entries {
				if q.ContainsPoint(e.p) {
					if !visit(e.p, e.id) {
						return touched
					}
				}
			}
		}
		// Advance the odometer.
		d := 0
		for ; d < g.k; d++ {
			idx[d]++
			if idx[d] <= hi[d] {
				break
			}
			idx[d] = lo[d]
		}
		if d == g.k {
			return touched
		}
	}
}

// All visits every stored point.
func (g *Grid) All(visit func(p []float64, id int64) bool) {
	for _, b := range g.dir {
		for _, e := range b.entries {
			if !visit(e.p, e.id) {
				return
			}
		}
	}
}

// NumCells returns the number of occupied directory cells.
func (g *Grid) NumCells() int { return len(g.dir) }
