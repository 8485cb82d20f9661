// Package stats maintains per-layer data statistics for the adaptive
// planner: an object count, per-axis histograms of box edge coordinates
// and exact fixed-point sums of those edges. The statistics are cheap to
// update incrementally (O(1) per mutation) and support estimating the
// number of stored boxes matching a bbox.RangeSpec — the planner's
// per-step selectivity oracle.
//
// Every part is exact, so Add and Remove are inverses and a Layer depends
// only on the multiset of boxes recorded, never on the order of the
// mutations that produced it. Statistics are therefore derived state, like
// an index: snapshots do not carry them, and every restore, replay or
// replica apply recomputes exactly what the live store holds.
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
	SumLo, SumHi int64     // exact edge sums for the mean box, in fixed point
}

// fixedOne is the fixed-point scale of the edge sums: an edge v is summed
// as round(clampCoord(v)·2^20). Scaling by a power of two is exact, so the
// one rounding is per edge and the sums are exact integers whatever the
// mutation history. |v| ≤ 1e6 < 2^20 keeps each term below 2^40, so a
// layer of fewer than 2^23 boxes cannot overflow.
const fixedOne = 1 << 20

func fixed(v float64) int64 { return int64(math.Round(clampCoord(v) * fixedOne)) }

// Layer is the full statistics block for one spatial layer.
type Layer struct {
	k     int
	count uint64
	axes  []Axis
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
	s := &Layer{k: k, axes: make([]Axis, k)}
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
		s.axes[a].SumLo += fixed(b.Lo[a])
		s.axes[a].SumHi += fixed(b.Hi[a])
	}
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
		s.axes[a].SumLo -= fixed(b.Lo[a])
		s.axes[a].SumHi -= fixed(b.Hi[a])
	}
}

// MeanBox returns the average stored box (mean lower and upper corners),
// the planner's stand-in for "a typical object of this layer". Empty
// when no boxes are recorded. Every recorded box has lo ≤ hi and the
// fixed-point rounding is monotone, so SumLo ≤ SumHi and the mean box is
// never inverted.
func (s *Layer) MeanBox() bbox.Box {
	var b bbox.Box
	s.MeanBoxInto(&b)
	return b
}

// MeanBoxInto is MeanBox written into dst, reusing its arrays.
func (s *Layer) MeanBoxInto(dst *bbox.Box) {
	if s.count == 0 || s.k == 0 {
		dst.SetEmpty(s.k)
		return
	}
	dst.SetUniv(s.k) // sizes dst's arrays
	scale := fixedOne * float64(s.count)
	for a := 0; a < s.k; a++ {
		dst.Lo[a] = float64(s.axes[a].SumLo) / scale
		dst.Hi[a] = float64(s.axes[a].SumHi) / scale
	}
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
// geometry and same recorded mass). Used by tests to pin that every
// recovery path rebuilds the live store's statistics exactly.
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
	return true
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
