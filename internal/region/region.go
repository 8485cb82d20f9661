// Package region implements a rectilinear region algebra over R^k: regions
// are finite unions of axis-parallel boxes, identified up to null sets.
//
// This is the paper's spatial data model: the Boolean algebra of measurable
// subsets of R^k modulo "equal almost everywhere" (§3), which is *atomless*
// — every nonempty region has a proper nonempty subregion — and therefore
// admits exact quantifier elimination for constraint systems (Theorems 5–6).
// Restricting to rectilinear regions keeps every operation exact and
// decidable while preserving atomlessness in every way the engine relies
// on: regions can always be split (Split), and emptiness means zero
// measure, so lower-dimensional artifacts of the closed-box representation
// (shared faces, degenerate slivers) do not count.
//
// The invariant throughout: a Region's boxes are pairwise interior-disjoint
// and all have positive volume, so Measure is a plain sum.
//
// DESIGN.md §2 ("Foundations") places this package in the module map.
package region

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/bbox"
)

// Region is a finite union of interior-disjoint positive-volume boxes.
// The zero value is the empty region in 0 dimensions; use Empty(k) for a
// typed empty region.
type Region struct {
	k     int
	boxes []bbox.Box
}

// Empty returns the empty region in k dimensions.
func Empty(k int) *Region { return &Region{k: k} }

// FromBox returns the region consisting of a single box (empty if the box
// is empty or degenerate).
func FromBox(b bbox.Box) *Region {
	r := &Region{k: b.K}
	if positiveVolume(b) {
		r.boxes = []bbox.Box{b}
	}
	return r
}

// FromBoxes returns the union of the given (possibly overlapping) boxes.
// The union starts from the first box's own region, which is what the
// empty region's Union with it returns.
func FromBoxes(k int, boxes ...bbox.Box) *Region {
	if len(boxes) == 0 || boxes[0].K != k {
		return Empty(k).unionBoxes(boxes)
	}
	return FromBox(boxes[0]).unionBoxes(boxes[1:])
}

// unionBoxes folds boxes into r one Union at a time.
func (r *Region) unionBoxes(boxes []bbox.Box) *Region {
	for _, b := range boxes {
		r = r.Union(FromBox(b))
	}
	return r
}

// SetBox makes r the region of the single box b, as FromBox does, reusing
// r's box list: for a caller-owned Region that stands for a changing box
// (the planner's representative of a bound variable). Only its owner may
// call it; every other Region is immutable. The box r held before is
// dropped, so SetBox(bbox.Box{}) leaves r referring to nothing.
//
//boolq:noalloc
func (r *Region) SetBox(b bbox.Box) {
	clear(r.boxes[:cap(r.boxes)])
	r.k, r.boxes = b.K, r.boxes[:0]
	if positiveVolume(b) {
		r.boxes = append(r.boxes, b) //boolq:allowalloc grow-once: the owner reuses r
	}
}

// K returns the dimensionality.
func (r *Region) K() int { return r.k }

// Boxes returns a copy of the disjoint box decomposition.
func (r *Region) Boxes() []bbox.Box {
	return append([]bbox.Box(nil), r.boxes...)
}

// NumBoxes returns the size of the decomposition (a complexity measure).
func (r *Region) NumBoxes() int { return len(r.boxes) }

// Box returns box i of the decomposition, 0 ≤ i < NumBoxes, without
// copying the list. The box shares its coordinates with r: read only.
//
//boolq:noalloc
func (r *Region) Box(i int) bbox.Box { return r.boxes[i] }

// IsEmpty reports whether the region has measure zero.
//
//boolq:noalloc
func (r *Region) IsEmpty() bool { return len(r.boxes) == 0 }

// Measure returns the k-dimensional volume.
func (r *Region) Measure() float64 {
	m := 0.0
	for _, b := range r.boxes {
		m += b.Volume()
	}
	return m
}

// BoundingBox returns ⌈r⌉, the minimal enclosing box.
func (r *Region) BoundingBox() bbox.Box {
	return bbox.JoinAll(r.k, r.boxes...)
}

// positiveVolume reports whether b has strictly positive volume (nonempty
// interior).
//
//boolq:noalloc
func positiveVolume(b bbox.Box) bool {
	if b.IsEmpty() {
		return false
	}
	for i := 0; i < b.K; i++ {
		if b.Hi[i] <= b.Lo[i] {
			return false
		}
	}
	return true
}

// subtractBox returns the interior-disjoint decomposition of a \ b as up
// to 2k boxes (the classical slab split).
func subtractBox(a, b bbox.Box) []bbox.Box {
	return appendSubtractBox(nil, a, b, nil)
}

// appendSubtractBox appends the decomposition of a \ b to dst and returns
// it. The emitted slabs take their coordinates from ar (the heap when ar
// is nil); a box untouched by b is appended as is, sharing its
// coordinates. The per-call working bounds live on the stack for k ≤ 4.
//
//boolq:noalloc
func appendSubtractBox(dst []bbox.Box, a, b bbox.Box, ar *arena) []bbox.Box {
	if !positiveVolume(a) {
		return dst
	}
	if !positiveVolume(b) || !interiorOverlaps(a, b) {
		return append(dst, a) //boolq:allowalloc emitted result: dst is the caller's reusable buffer
	}
	// cur tracks the shrinking remainder of a; stack-allocated up to 4-D.
	var loArr, hiArr [4]float64
	var curLo, curHi []float64
	if a.K <= len(loArr) {
		curLo, curHi = loArr[:a.K], hiArr[:a.K]
	} else {
		curLo, curHi = make([]float64, a.K), make([]float64, a.K) //boolq:allowalloc k > 4 falls off the stack-array fast path
	}
	copy(curLo, a.Lo)
	copy(curHi, a.Hi)
	for i := 0; i < a.K; i++ {
		ilo := math.Max(a.Lo[i], b.Lo[i])
		ihi := math.Min(a.Hi[i], b.Hi[i])
		if ilo > curLo[i] {
			dst = appendSlab(dst, curLo, curHi, i, curLo[i], ilo, ar)
			curLo[i] = ilo
		}
		if ihi < curHi[i] {
			dst = appendSlab(dst, curLo, curHi, i, ihi, curHi[i], ar)
			curHi[i] = ihi
		}
	}
	return dst
}

// appendSlab appends the box (curLo, curHi) with dimension i replaced by
// [lo, hi], skipping degenerate slabs.
//
//boolq:noalloc
func appendSlab(dst []bbox.Box, curLo, curHi []float64, i int, lo, hi float64, ar *arena) []bbox.Box {
	if hi <= lo {
		return dst
	}
	for d := range curLo {
		if d != i && curHi[d] <= curLo[d] {
			return dst
		}
	}
	slab := ar.box(len(curLo))
	copy(slab.Lo, curLo)
	copy(slab.Hi, curHi)
	slab.Lo[i], slab.Hi[i] = lo, hi
	return append(dst, slab) //boolq:allowalloc emitted result: dst is the caller's reusable buffer
}

func cloneBox(b bbox.Box) bbox.Box {
	return bbox.Box{
		K:  b.K,
		Lo: append([]float64(nil), b.Lo...),
		Hi: append([]float64(nil), b.Hi...),
	}
}

// Difference returns r \ s. A region untouched by s comes back as r
// itself, allocation-free.
func (r *Region) Difference(s *Region) *Region {
	r.checkDim(s)
	var t pingpong
	boxes, changed := appendDifference(nil, r.boxes, s.boxes, &t, nil)
	if !changed {
		return r
	}
	out := &Region{k: r.k, boxes: boxes}
	out.compact()
	return out
}

// interiorOverlaps reports that a ⊓ b has positive volume, allocating
// nothing.
//
//boolq:noalloc
func interiorOverlaps(a, b bbox.Box) bool {
	for i := 0; i < a.K; i++ {
		if a.Lo[i] >= b.Hi[i] || b.Lo[i] >= a.Hi[i] {
			return false
		}
	}
	return true
}

// overlapsAny reports whether b's interior meets any box in boxes.
//
//boolq:noalloc
func overlapsAny(b bbox.Box, boxes []bbox.Box) bool {
	for _, rb := range boxes {
		if interiorOverlaps(b, rb) {
			return true
		}
	}
	return false
}

// Union returns r ∪ s.
func (r *Region) Union(s *Region) *Region {
	r.checkDim(s)
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	var t pingpong
	out := &Region{k: r.k, boxes: appendUnion(nil, r.boxes, s.boxes, &t, nil)}
	out.compact()
	return out
}

// Intersect returns r ∩ s. Box pairs without interior overlap are skipped
// before any allocation happens.
func (r *Region) Intersect(s *Region) *Region {
	r.checkDim(s)
	res := &Region{k: r.k, boxes: appendIntersect(nil, r.boxes, s.boxes, nil)}
	res.compact()
	return res
}

// ComplementIn returns universe \ r.
func (r *Region) ComplementIn(universe bbox.Box) *Region {
	return FromBox(universe).Difference(r)
}

// Equal reports equality up to null sets.
func (r *Region) Equal(s *Region) bool {
	return r.Difference(s).IsEmpty() && s.Difference(r).IsEmpty()
}

// Leq reports r ⊑ s up to null sets. A box of r that misses every box of
// s refutes containment immediately, without materializing the difference
// — the common case for the executor's per-candidate exact filter.
func (r *Region) Leq(s *Region) bool {
	r.checkDim(s)
	if r.IsEmpty() {
		return true
	}
	for _, rb := range r.boxes {
		if !overlapsAny(rb, s.boxes) {
			return false
		}
	}
	return r.Difference(s).IsEmpty()
}

// LeqIn reports r ⊑ s relative to the universe box u: (r \ s) ∩ u has
// measure zero. This is containment as the region *algebra* sees it —
// elements live inside the universe, and any excess outside it is a null
// set there.
func (r *Region) LeqIn(u bbox.Box, s *Region) bool {
	r.checkDim(s)
	var t pingpong
	return coveredIn(u, r.boxes, s.boxes, nil, &t, nil)
}

// Overlaps reports that r ∩ s has positive measure, without materializing
// the intersection.
func (r *Region) Overlaps(s *Region) bool {
	r.checkDim(s)
	for _, rb := range r.boxes {
		if overlapsAny(rb, s.boxes) {
			return true
		}
	}
	return false
}

// ContainsPoint reports whether p lies in (the closure of) the region.
func (r *Region) ContainsPoint(p []float64) bool {
	for _, b := range r.boxes {
		if b.ContainsPoint(p) {
			return true
		}
	}
	return false
}

// Split returns a proper nonempty subregion of r (half of its first box,
// cut along the box's longest axis). It panics on the empty region. This
// witnesses atomlessness: no region is an atom.
func (r *Region) Split() *Region {
	if r.IsEmpty() {
		panic("region: Split of empty region")
	}
	b := r.boxes[0]
	axis, best := 0, math.Inf(-1)
	for i := 0; i < b.K; i++ {
		if w := b.Hi[i] - b.Lo[i]; w > best {
			axis, best = i, w
		}
	}
	half := cloneBox(b)
	half.Hi[axis] = (b.Lo[axis] + b.Hi[axis]) / 2
	return FromBox(half)
}

// compact merges pairs of boxes that tile a larger box (equal in all
// dimensions but one, adjacent in that one). This keeps decompositions
// small under repeated complement/union without affecting semantics.
//
// Instead of the quadratic scan-all-pairs-and-restart loop this sweeps one
// axis at a time: boxes are sorted so that boxes sharing their projection
// on every *other* axis are contiguous and ordered along the merge axis,
// then a single pass fuses adjacent runs. The sweep repeats over the axes
// until a full round merges nothing (a merge along one axis can enable one
// along another), which is the same fixpoint the old loop reached —
// O(rounds · k · n log n) instead of O(merges · n²).
func (r *Region) compact() {
	if len(r.boxes) < 2 {
		return
	}
	for changed := true; changed; {
		changed = false
		for d := 0; d < r.k && len(r.boxes) > 1; d++ {
			if r.mergeAxis(d) {
				changed = true
			}
		}
	}
	slices.SortFunc(r.boxes, boxCompare)
}

// mergeAxis fuses boxes adjacent along axis d in one sorted pass. Equal
// boxes (which tile trivially) are deduplicated as the old pairwise merge
// did. A fused box gets fresh backing arrays — the inputs may share theirs
// with other regions — but a run of fusions clones only once.
func (r *Region) mergeAxis(d int) bool {
	boxes := r.boxes
	slices.SortFunc(boxes, func(a, b bbox.Box) int { return profileCompare(a, b, d) })
	out := boxes[:0]
	merged := false
	lastOwned := false
	for _, b := range boxes {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if sameProfile(*last, b, d) {
				if last.Lo[d] == b.Lo[d] && last.Hi[d] == b.Hi[d] {
					merged = true // duplicate box: drop it
					continue
				}
				if last.Hi[d] == b.Lo[d] {
					if !lastOwned {
						*last = cloneBox(*last)
						lastOwned = true
					}
					last.Hi[d] = b.Hi[d]
					merged = true
					continue
				}
			}
		}
		out = append(out, b)
		lastOwned = false
	}
	r.boxes = out
	return merged
}

// profileCompare orders boxes lexicographically by their intervals on
// every axis except d, then by their Lo on d — putting merge candidates
// for axis d next to each other.
func profileCompare(a, b bbox.Box, d int) int {
	for i := 0; i < a.K; i++ {
		if i == d {
			continue
		}
		if a.Lo[i] != b.Lo[i] {
			return cmp.Compare(a.Lo[i], b.Lo[i])
		}
		if a.Hi[i] != b.Hi[i] {
			return cmp.Compare(a.Hi[i], b.Hi[i])
		}
	}
	return cmp.Compare(a.Lo[d], b.Lo[d])
}

// sameProfile reports that a and b agree on every axis except d.
func sameProfile(a, b bbox.Box, d int) bool {
	for i := 0; i < a.K; i++ {
		if i == d {
			continue
		}
		if a.Lo[i] != b.Lo[i] || a.Hi[i] != b.Hi[i] {
			return false
		}
	}
	return true
}

// boxCompare is the canonical order of a compacted decomposition.
func boxCompare(a, b bbox.Box) int {
	for i := 0; i < a.K; i++ {
		if a.Lo[i] != b.Lo[i] {
			return cmp.Compare(a.Lo[i], b.Lo[i])
		}
		if a.Hi[i] != b.Hi[i] {
			return cmp.Compare(a.Hi[i], b.Hi[i])
		}
	}
	return 0
}

//boolq:noalloc
func (r *Region) checkDim(s *Region) {
	if r.k != s.k {
		panic(fmt.Sprintf("region: dimension mismatch %d vs %d", r.k, s.k))
	}
}

// String renders the region as its box decomposition.
func (r *Region) String() string {
	if r.IsEmpty() {
		return "∅"
	}
	parts := make([]string, len(r.boxes))
	for i, b := range r.boxes {
		parts[i] = b.String()
	}
	return strings.Join(parts, " ∪ ")
}
