// Package bbox implements k-dimensional bounding boxes, bounding-box
// functions, and the paper's Algorithm 2: the best lower (L_f) and upper
// (U_f) bounding-box approximations of a Boolean function, read off its
// Blake canonical form (Theorems 14 and 15).
//
// A bounding box ⌈x⌉ is the minimal axis-parallel box enclosing a region x.
// The box operators are ⊓ (Meet, ordinary intersection), ⊔ (Join, the
// minimal box enclosing the union — not set union), and ⊑ (Contains,
// containment). Queries combining box constraints of the forms ⌈x⌉ ⊑ a,
// b ⊑ ⌈x⌉ and ⌈x⌉ ⊓ c ≠ ∅ are answered by a *single* range query on points
// in 2k dimensions (Figure 3); see PointTransform and RangeSpec.
//
// DESIGN.md §2 ("Foundations") places this package in the module map; §1 sketches the compilation pipeline it serves.
package bbox

import (
	"fmt"
	"math"
	"strings"
)

// Box is an axis-parallel box in k dimensions, possibly empty. The empty
// box (Lo == nil) is the identity of ⊔ and the absorbing element of ⊓; it
// is the bounding box of the empty region. Coordinates may be ±Inf: the
// universe box Univ(k) is the bounding box of the whole space.
type Box struct {
	K      int       // dimensionality
	Lo, Hi []float64 // nil iff empty; otherwise len K with Lo[i] ≤ Hi[i]
}

// Empty returns the empty box in k dimensions.
func Empty(k int) Box { return Box{K: k} }

// Univ returns the box covering all of R^k.
func Univ(k int) Box {
	lo, hi := make([]float64, k), make([]float64, k)
	for i := range lo {
		lo[i], hi[i] = math.Inf(-1), math.Inf(1)
	}
	return Box{K: k, Lo: lo, Hi: hi}
}

// New returns the box [lo, hi]. It panics if the slices disagree in length
// or lo[i] > hi[i]; callers constructing boxes from unvalidated input
// should use Make.
func New(lo, hi []float64) Box {
	b, err := Make(lo, hi)
	if err != nil {
		panic(err)
	}
	return b
}

// Make returns the box [lo, hi], validating the input.
func Make(lo, hi []float64) (Box, error) {
	if len(lo) != len(hi) {
		return Box{}, fmt.Errorf("bbox: corner dimensions differ: %d vs %d", len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Box{}, fmt.Errorf("bbox: inverted interval in dim %d: [%g,%g]", i, lo[i], hi[i])
		}
	}
	l := append([]float64(nil), lo...)
	h := append([]float64(nil), hi...)
	return Box{K: len(lo), Lo: l, Hi: h}, nil
}

// Rect is a 2-D convenience constructor.
func Rect(x0, y0, x1, y1 float64) Box {
	return New([]float64{x0, y0}, []float64{x1, y1})
}

// IsEmpty reports whether b is the empty box. Emptiness is a length-zero
// (usually nil) Lo slice: the in-place operations (MeetInto and friends)
// mark a destination empty by truncating its Lo/Hi to length 0, which
// keeps the backing arrays available for reuse.
//
//boolq:noalloc
func (b Box) IsEmpty() bool { return len(b.Lo) == 0 }

// IsUniv reports whether b is Univ(b.K), i.e. unbounded in every
// dimension. Unlike Equal(Univ(k)) it allocates nothing.
//
//boolq:noalloc
func (b Box) IsUniv() bool {
	if b.IsEmpty() {
		return false
	}
	for i := 0; i < b.K; i++ {
		if !math.IsInf(b.Lo[i], -1) || !math.IsInf(b.Hi[i], 1) {
			return false
		}
	}
	return true
}

// Meet returns b ⊓ c, the intersection. Boxes of mismatched dimension
// panic: that is always a programming error in the compiler. Disjoint
// operands short-circuit to the empty box without allocating.
func (b Box) Meet(c Box) Box {
	b.checkDim(c)
	if b.IsEmpty() || c.IsEmpty() {
		return Empty(b.K)
	}
	for i := 0; i < b.K; i++ {
		if math.Max(b.Lo[i], c.Lo[i]) > math.Min(b.Hi[i], c.Hi[i]) {
			return Empty(b.K)
		}
	}
	lo, hi := make([]float64, b.K), make([]float64, b.K)
	for i := 0; i < b.K; i++ {
		lo[i] = math.Max(b.Lo[i], c.Lo[i])
		hi[i] = math.Min(b.Hi[i], c.Hi[i])
	}
	return Box{K: b.K, Lo: lo, Hi: hi}
}

// Join returns b ⊔ c, the minimal box enclosing both (bounding-box union).
func (b Box) Join(c Box) Box {
	b.checkDim(c)
	if b.IsEmpty() {
		return c
	}
	if c.IsEmpty() {
		return b
	}
	lo, hi := make([]float64, b.K), make([]float64, b.K)
	for i := 0; i < b.K; i++ {
		lo[i] = math.Min(b.Lo[i], c.Lo[i])
		hi[i] = math.Max(b.Hi[i], c.Hi[i])
	}
	return Box{K: b.K, Lo: lo, Hi: hi}
}

// Contains reports b ⊒ c, i.e. c ⊑ b. The empty box is contained in every
// box.
//
//boolq:noalloc
func (b Box) Contains(c Box) bool {
	b.checkDim(c)
	if c.IsEmpty() {
		return true
	}
	if b.IsEmpty() {
		return false
	}
	for i := 0; i < b.K; i++ {
		if c.Lo[i] < b.Lo[i] || c.Hi[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Overlaps reports b ⊓ c ≠ ∅ without materializing the meet.
//
//boolq:noalloc
func (b Box) Overlaps(c Box) bool {
	b.checkDim(c)
	if b.IsEmpty() || c.IsEmpty() {
		return false
	}
	for i := 0; i < b.K; i++ {
		if b.Lo[i] > c.Hi[i] || c.Lo[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Equal reports coordinate equality (or both empty).
func (b Box) Equal(c Box) bool {
	if b.K != c.K {
		return false
	}
	if b.IsEmpty() || c.IsEmpty() {
		return b.IsEmpty() == c.IsEmpty()
	}
	for i := 0; i < b.K; i++ {
		if b.Lo[i] != c.Lo[i] || b.Hi[i] != c.Hi[i] {
			return false
		}
	}
	return true
}

// Volume returns the k-dimensional volume (0 for the empty box, +Inf for
// unbounded boxes).
func (b Box) Volume() float64 {
	if b.IsEmpty() {
		return 0
	}
	v := 1.0
	for i := 0; i < b.K; i++ {
		v *= b.Hi[i] - b.Lo[i]
	}
	return v
}

// Margin returns the sum of edge lengths (used by R-tree split heuristics).
func (b Box) Margin() float64 {
	if b.IsEmpty() {
		return 0
	}
	m := 0.0
	for i := 0; i < b.K; i++ {
		m += b.Hi[i] - b.Lo[i]
	}
	return m
}

// Center returns the center point of the box (undefined for empty boxes).
func (b Box) Center() []float64 {
	c := make([]float64, b.K)
	for i := 0; i < b.K; i++ {
		c[i] = (b.Lo[i] + b.Hi[i]) / 2
	}
	return c
}

// ContainsPoint reports whether p lies in b.
func (b Box) ContainsPoint(p []float64) bool {
	if b.IsEmpty() || len(p) != b.K {
		return false
	}
	for i := 0; i < b.K; i++ {
		if p[i] < b.Lo[i] || p[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Enlarge returns the volume increase of b ⊔ c over b (Guttman's insertion
// heuristic).
func (b Box) Enlarge(c Box) float64 {
	return b.Join(c).Volume() - b.Volume()
}

//boolq:noalloc
func (b Box) checkDim(c Box) {
	if b.K != c.K {
		panic(fmt.Sprintf("bbox: dimension mismatch %d vs %d", b.K, c.K))
	}
}

// In-place box arithmetic. These are the allocation-free core the compiled
// box-function programs (Program.Eval) run on: a destination box is reused
// across operations, growing its Lo/Hi backing arrays once and then
// truncating them to length 0 whenever a result is empty, so steady-state
// evaluation allocates nothing. The destination must own its backing
// arrays — it may alias one of the operands (the writes are pointwise),
// but never a box the caller still needs afterwards.

// ensureLen returns s resized to length k, reusing its backing array when
// the capacity allows.
//
//boolq:noalloc
func ensureLen(s []float64, k int) []float64 {
	if cap(s) >= k {
		return s[:k]
	}
	return make([]float64, k) //boolq:allowalloc grow-once: a warm destination never takes this branch
}

// SetEmpty makes dst the empty box in k dimensions, keeping its backing
// arrays for reuse.
//
//boolq:noalloc
func (dst *Box) SetEmpty(k int) {
	dst.K = k
	if dst.Lo != nil {
		dst.Lo, dst.Hi = dst.Lo[:0], dst.Hi[:0]
	}
}

// SetUniv makes dst the universe box in k dimensions, reusing its backing
// arrays when possible.
//
//boolq:noalloc
func (dst *Box) SetUniv(k int) {
	dst.K = k
	dst.Lo, dst.Hi = ensureLen(dst.Lo, k), ensureLen(dst.Hi, k)
	for i := 0; i < k; i++ {
		dst.Lo[i], dst.Hi[i] = math.Inf(-1), math.Inf(1)
	}
}

// CopyInto copies b into dst, reusing dst's backing arrays when possible.
//
//boolq:noalloc
func (b Box) CopyInto(dst *Box) {
	if b.IsEmpty() {
		dst.SetEmpty(b.K)
		return
	}
	dst.K = b.K
	dst.Lo, dst.Hi = ensureLen(dst.Lo, b.K), ensureLen(dst.Hi, b.K)
	copy(dst.Lo, b.Lo)
	copy(dst.Hi, b.Hi)
}

// MeetInto stores b ⊓ c into dst without allocating (after dst's arrays
// have grown to dimension K once). dst may alias b or c.
//
//boolq:noalloc
func (b Box) MeetInto(c Box, dst *Box) {
	b.checkDim(c)
	if b.IsEmpty() || c.IsEmpty() {
		dst.SetEmpty(b.K)
		return
	}
	dst.K = b.K
	dst.Lo, dst.Hi = ensureLen(dst.Lo, b.K), ensureLen(dst.Hi, b.K)
	for i := 0; i < b.K; i++ {
		lo := math.Max(b.Lo[i], c.Lo[i])
		hi := math.Min(b.Hi[i], c.Hi[i])
		if lo > hi {
			dst.SetEmpty(b.K)
			return
		}
		dst.Lo[i], dst.Hi[i] = lo, hi
	}
}

// MeetTo returns b ⊓ c built in the backing arrays of lo and hi, which
// are reused when they hold k floats: Meet without the allocation.
// Unlike MeetInto it stores through no pointer, so lo and hi may be
// arrays on the caller's stack without escaping to the heap.
//
//boolq:noalloc
func (b Box) MeetTo(c Box, lo, hi []float64) Box {
	b.checkDim(c)
	if b.IsEmpty() || c.IsEmpty() {
		return Box{K: b.K} //boolq:allowalloc value literal of the empty box
	}
	lo, hi = ensureLen(lo, b.K), ensureLen(hi, b.K)
	for i := 0; i < b.K; i++ {
		lo[i], hi[i] = math.Max(b.Lo[i], c.Lo[i]), math.Min(b.Hi[i], c.Hi[i])
		if lo[i] > hi[i] {
			return Box{K: b.K} //boolq:allowalloc value literal of the empty box
		}
	}
	return Box{K: b.K, Lo: lo, Hi: hi} //boolq:allowalloc value literal over the caller's arrays
}

// JoinInto stores b ⊔ c into dst without allocating (after dst's arrays
// have grown to dimension K once). dst may alias b or c.
//
//boolq:noalloc
func (b Box) JoinInto(c Box, dst *Box) {
	b.checkDim(c)
	if b.IsEmpty() {
		c.CopyInto(dst)
		return
	}
	if c.IsEmpty() {
		b.CopyInto(dst)
		return
	}
	dst.K = b.K
	dst.Lo, dst.Hi = ensureLen(dst.Lo, b.K), ensureLen(dst.Hi, b.K)
	for i := 0; i < b.K; i++ {
		dst.Lo[i] = math.Min(b.Lo[i], c.Lo[i])
		dst.Hi[i] = math.Max(b.Hi[i], c.Hi[i])
	}
}

// String renders the box as [lo1,hi1]x[lo2,hi2]…
func (b Box) String() string {
	if b.IsEmpty() {
		return "∅"
	}
	var sb strings.Builder
	for i := 0; i < b.K; i++ {
		if i > 0 {
			sb.WriteString("x")
		}
		fmt.Fprintf(&sb, "[%g,%g]", b.Lo[i], b.Hi[i])
	}
	return sb.String()
}

// JoinAll returns the ⊔ of all boxes (empty if none).
func JoinAll(k int, boxes ...Box) Box {
	acc := Empty(k)
	for _, b := range boxes {
		acc = acc.Join(b)
	}
	return acc
}
