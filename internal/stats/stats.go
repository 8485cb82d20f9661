// Package stats maintains per-layer data statistics for the adaptive
// planner: an object count, per-axis histograms of box edge coordinates,
// and a coarse grid-occupancy summary. The statistics are cheap to update
// incrementally (O(1) per mutation), are serialized into both snapshot
// codecs, and support estimating the number of stored boxes matching a
// bbox.RangeSpec — the planner's per-step selectivity oracle.
//
// The estimate decomposes the spec per axis using only the marginal
// distributions of box lower and upper edges:
//
//	overlap witness c:  P(x ⊓ c ≠ ∅) = 1 − P(Lo > c.Hi) − P(Hi < c.Lo)
//	                    (exact from the marginals: the two failure events
//	                    are disjoint on one axis)
//	x ⊑ Upper:          P(Lo ≥ U.Lo) · P(Hi ≤ U.Hi)   (independence approx)
//	Lower ⊑ x:          P(Lo ≤ L.Lo) · P(Hi ≥ L.Hi)   (independence approx)
//
// and multiplies the per-axis selectivities together and by the count.
// DESIGN.md §7 ("Adaptive planning") describes how the planner uses this.
package stats

import (
	"math"

	"repro/internal/bbox"
)

// DefaultBuckets is the per-histogram bucket count. 32 buckets × 2 edges
// × k axes keeps a layer's statistics a few KB while resolving the
// workload-scale skew the planner cares about.
const DefaultBuckets = 32

// clampSpan bounds the histogram domain when the store universe is
// unbounded on an axis: coordinates outside ±clampSpan land in the edge
// buckets.
const clampSpan = 1e6

// Histogram is an equi-width histogram over the fixed span [Lo, Hi].
// Values outside the span are clamped into the edge buckets, so the CDF
// is exact at and beyond the span boundaries. A degenerate span
// (Lo == Hi) behaves as a single point mass.
type Histogram struct {
	Lo, Hi float64
	N      uint64
	Counts []uint64
}

func newHistogram(lo, hi float64, buckets int) Histogram {
	if buckets < 1 {
		buckets = 1
	}
	return Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, buckets)}
}

func (h *Histogram) bucket(v float64) int {
	if math.IsNaN(v) || v <= h.Lo || h.Hi <= h.Lo {
		return 0
	}
	if v >= h.Hi {
		return len(h.Counts) - 1
	}
	b := int((v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	return b
}

// Add records one value.
func (h *Histogram) Add(v float64) {
	h.N++
	h.Counts[h.bucket(v)]++
}

// Remove un-records one value previously passed to Add. It is a no-op on
// an empty histogram, and tolerates a drained bucket (which can only
// happen on unpaired removes) rather than underflowing.
func (h *Histogram) Remove(v float64) {
	if h.N == 0 {
		return
	}
	b := h.bucket(v)
	if h.Counts[b] == 0 {
		return
	}
	h.N--
	h.Counts[b]--
}

// CDF returns P(V ≤ x) under linear interpolation within buckets. Exact
// at the span edges: x below the span → 0, x at or above it → 1.
func (h *Histogram) CDF(x float64) float64 {
	if h.N == 0 || math.IsNaN(x) {
		return 0
	}
	if x < h.Lo {
		return 0
	}
	if x >= h.Hi {
		return 1
	}
	pos := (x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts))
	b := int(pos)
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	var below uint64
	for i := 0; i < b; i++ {
		below += h.Counts[i]
	}
	frac := pos - float64(b)
	return (float64(below) + frac*float64(h.Counts[b])) / float64(h.N)
}

// CCDF returns P(V ≥ x), the closed-interval complement of CDF: x at or
// below the span → 1, x above it → 0. CDF and CCDF both count the point
// mass at x, so they are not complements at interior points; each caller
// picks the side whose boundary semantics match its constraint.
func (h *Histogram) CCDF(x float64) float64 {
	if h.N == 0 || math.IsNaN(x) {
		return 0
	}
	if x <= h.Lo {
		return 1
	}
	if x > h.Hi {
		return 0
	}
	pos := (x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts))
	b := int(pos)
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	var above uint64
	for i := b + 1; i < len(h.Counts); i++ {
		above += h.Counts[i]
	}
	frac := pos - float64(b)
	return (float64(above) + (1-frac)*float64(h.Counts[b])) / float64(h.N)
}

// Axis carries the marginal distributions of box edges along one axis.
type Axis struct {
	Lo, Hi       Histogram // distributions of box lower/upper edges
	SumLo, SumHi float64   // running sums for the mean box
}

// Grid is a coarse occupancy grid over the first one or two axes: each
// cell counts the stored boxes overlapping it. It summarizes clustering
// alongside the per-axis histograms.
type Grid struct {
	Axes      int // 0 (disabled), 1 or 2
	Side      int
	Lo, Width []float64 // per grid axis; Width > 0
	Counts    []uint32  // Side^Axes cells, row-major
}

// GridSide is the per-axis cell count of the occupancy grid.
const GridSide = 16

func newGrid(universe bbox.Box) Grid {
	axes := universe.K
	if axes > 2 {
		axes = 2
	}
	if axes == 0 || universe.IsEmpty() {
		return Grid{}
	}
	g := Grid{Axes: axes, Side: GridSide}
	g.Lo = make([]float64, axes)
	g.Width = make([]float64, axes)
	cells := 1
	for a := 0; a < axes; a++ {
		lo, hi := clampCoord(universe.Lo[a]), clampCoord(universe.Hi[a])
		if hi <= lo {
			hi = lo + 1
		}
		g.Lo[a] = lo
		g.Width[a] = (hi - lo) / float64(g.Side)
		cells *= g.Side
	}
	g.Counts = make([]uint32, cells)
	return g
}

// cellRange returns the clamped cell interval covered by [lo, hi] on
// grid axis a.
func (g *Grid) cellRange(a int, lo, hi float64) (int, int) {
	c0 := int(math.Floor((lo - g.Lo[a]) / g.Width[a]))
	c1 := int(math.Floor((hi - g.Lo[a]) / g.Width[a]))
	if c0 < 0 {
		c0 = 0
	}
	if c1 >= g.Side {
		c1 = g.Side - 1
	}
	if c1 < c0 {
		c0, c1 = c1, c0
		if c0 < 0 {
			c0 = 0
		}
		if c1 >= g.Side {
			c1 = g.Side - 1
		}
	}
	return c0, c1
}

func (g *Grid) apply(b bbox.Box, delta int) {
	if g.Axes == 0 || b.IsEmpty() {
		return
	}
	x0, x1 := g.cellRange(0, b.Lo[0], b.Hi[0])
	if g.Axes == 1 {
		for x := x0; x <= x1; x++ {
			g.bump(x, delta)
		}
		return
	}
	y0, y1 := g.cellRange(1, b.Lo[1], b.Hi[1])
	for y := y0; y <= y1; y++ {
		row := y * g.Side
		for x := x0; x <= x1; x++ {
			g.bump(row+x, delta)
		}
	}
}

func (g *Grid) bump(cell, delta int) {
	if delta > 0 {
		g.Counts[cell]++
	} else if g.Counts[cell] > 0 {
		g.Counts[cell]--
	}
}

// Occupied returns the number of non-empty grid cells.
func (g *Grid) Occupied() int {
	n := 0
	for _, c := range g.Counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// MaxLoad returns the largest per-cell count.
func (g *Grid) MaxLoad() uint32 {
	var m uint32
	for _, c := range g.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// Layer is the full statistics block for one spatial layer.
type Layer struct {
	k     int
	count uint64
	axes  []Axis
	grid  Grid
}

func clampCoord(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return math.Min(math.Max(v, -clampSpan), clampSpan)
}

// NewLayer returns empty statistics for a layer with the given universe
// box (which fixes the dimensionality and the histogram spans; unbounded
// axes are clamped to ±1e6).
func NewLayer(universe bbox.Box) *Layer {
	k := universe.K
	s := &Layer{k: k, axes: make([]Axis, k), grid: newGrid(universe)}
	for a := 0; a < k; a++ {
		lo, hi := -clampSpan, clampSpan
		if !universe.IsEmpty() {
			lo, hi = clampCoord(universe.Lo[a]), clampCoord(universe.Hi[a])
		}
		s.axes[a].Lo = newHistogram(lo, hi, DefaultBuckets)
		s.axes[a].Hi = newHistogram(lo, hi, DefaultBuckets)
	}
	return s
}

// K returns the dimensionality.
func (s *Layer) K() int { return s.k }

// Count returns the number of boxes recorded.
func (s *Layer) Count() uint64 { return s.count }

// Grid returns the occupancy grid (read-only view).
func (s *Layer) Grid() *Grid { return &s.grid }

// Add records one stored box. Empty boxes are counted but contribute no
// edge mass (a layer object always has a nonempty bounding box in
// practice).
//
//boolq:statsink
func (s *Layer) Add(b bbox.Box) {
	s.count++
	if b.IsEmpty() || b.K != s.k {
		return
	}
	for a := 0; a < s.k; a++ {
		s.axes[a].Lo.Add(b.Lo[a])
		s.axes[a].Hi.Add(b.Hi[a])
		s.axes[a].SumLo += clampCoord(b.Lo[a])
		s.axes[a].SumHi += clampCoord(b.Hi[a])
	}
	s.grid.apply(b, +1)
}

// Remove un-records a box previously passed to Add.
//
//boolq:statsink
func (s *Layer) Remove(b bbox.Box) {
	if s.count == 0 {
		return
	}
	s.count--
	if b.IsEmpty() || b.K != s.k {
		return
	}
	for a := 0; a < s.k; a++ {
		s.axes[a].Lo.Remove(b.Lo[a])
		s.axes[a].Hi.Remove(b.Hi[a])
		s.axes[a].SumLo -= clampCoord(b.Lo[a])
		s.axes[a].SumHi -= clampCoord(b.Hi[a])
	}
	s.grid.apply(b, -1)
}

// MeanBox returns the average stored box (mean lower and upper corners),
// the planner's stand-in for "a typical object of this layer". Empty
// when no boxes are recorded.
func (s *Layer) MeanBox() bbox.Box {
	if s.count == 0 || s.k == 0 {
		return bbox.Empty(s.k)
	}
	lo := make([]float64, s.k)
	hi := make([]float64, s.k)
	n := float64(s.count)
	for a := 0; a < s.k; a++ {
		lo[a] = s.axes[a].SumLo / n
		hi[a] = s.axes[a].SumHi / n
		if lo[a] > hi[a] { // float drift on heavy add/remove churn
			mid := (lo[a] + hi[a]) / 2
			lo[a], hi[a] = mid, mid
		}
	}
	return bbox.Box{K: s.k, Lo: lo, Hi: hi}
}

// Selectivity returns EstimateSpec(spec) / Count(), in [0, 1] (0 for an
// empty layer).
func (s *Layer) Selectivity(spec bbox.RangeSpec) float64 {
	if s.count == 0 {
		return 0
	}
	return s.EstimateSpec(spec) / float64(s.count)
}

// EstimateSpec estimates how many recorded boxes match the spec. The
// result is always finite and within [0, Count()].
func (s *Layer) EstimateSpec(spec bbox.RangeSpec) float64 {
	if s.count == 0 {
		return 0
	}
	total := float64(s.count)
	if spec.K != s.k {
		return total // dimension mismatch: no information, assume all
	}
	if spec.Upper.IsEmpty() {
		return 0 // only the empty box fits inside ∅
	}
	sel := 1.0
	for a := 0; a < s.k; a++ {
		ax := &s.axes[a]
		// x ⊑ Upper (skip unbounded sides: they never reject).
		if !spec.Upper.IsUniv() {
			p := ax.Lo.CCDF(spec.Upper.Lo[a]) * ax.Hi.CDF(spec.Upper.Hi[a])
			sel *= clamp01(p)
		}
		// Lower ⊑ x.
		if !spec.Lower.IsEmpty() {
			p := ax.Lo.CDF(spec.Lower.Lo[a]) * ax.Hi.CCDF(spec.Lower.Hi[a])
			sel *= clamp01(p)
		}
		// Overlap witnesses: exact per axis from the marginals, since
		// "Lo > c.Hi" and "Hi < c.Lo" are disjoint failure events.
		for _, c := range spec.Overlaps {
			if c.IsEmpty() {
				return 0
			}
			p := ax.Lo.CDF(c.Hi[a]) + ax.Hi.CCDF(c.Lo[a]) - 1
			sel *= clamp01(p)
		}
		if sel == 0 {
			return 0
		}
	}
	est := sel * total
	if math.IsNaN(est) || est < 0 {
		return 0
	}
	if est > total {
		return total
	}
	return est
}

func clamp01(p float64) float64 {
	if math.IsNaN(p) || p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Equal reports whether two statistics blocks are identical (same
// geometry and same recorded mass). Used by tests to pin that recovery
// paths rebuild statistics exactly.
func (s *Layer) Equal(t *Layer) bool {
	if s == nil || t == nil {
		return s == t
	}
	if s.k != t.k || s.count != t.count || len(s.axes) != len(t.axes) {
		return false
	}
	for a := range s.axes {
		if !histEqual(&s.axes[a].Lo, &t.axes[a].Lo) || !histEqual(&s.axes[a].Hi, &t.axes[a].Hi) {
			return false
		}
		if s.axes[a].SumLo != t.axes[a].SumLo || s.axes[a].SumHi != t.axes[a].SumHi {
			return false
		}
	}
	return gridEqual(&s.grid, &t.grid)
}

func histEqual(a, b *Histogram) bool {
	if a.Lo != b.Lo || a.Hi != b.Hi || a.N != b.N || len(a.Counts) != len(b.Counts) {
		return false
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	return true
}

func gridEqual(a, b *Grid) bool {
	if a.Axes != b.Axes || a.Side != b.Side || len(a.Counts) != len(b.Counts) {
		return false
	}
	for i := range a.Lo {
		if a.Lo[i] != b.Lo[i] || a.Width[i] != b.Width[i] {
			return false
		}
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	return true
}
