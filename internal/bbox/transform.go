package bbox

import "math"

// RangeSpec is the univariate range query of §4/Figure 3: the conjunction
//
//	Lower ⊑ ⌈x⌉  ∧  ⌈x⌉ ⊑ Upper  ∧  ⌈x⌉ ⊓ c ≠ ∅ for every c in Overlaps.
//
// This is exactly the query class "current spatial databases" support; the
// compiler emits one RangeSpec per retrieval step.
type RangeSpec struct {
	K        int
	Lower    Box   // b ⊑ ⌈x⌉; empty box means no lower-bound constraint
	Upper    Box   // ⌈x⌉ ⊑ a; Univ(k) means no upper-bound constraint
	Overlaps []Box // ⌈x⌉ ⊓ c ≠ ∅ for each c
}

// AllSpec returns the unconstrained spec (matches every box).
func AllSpec(k int) RangeSpec {
	return RangeSpec{K: k, Lower: Empty(k), Upper: Univ(k)}
}

// Matches reports whether box x satisfies the spec.
//
//boolq:noalloc
func (s RangeSpec) Matches(x Box) bool {
	if !x.Contains(s.Lower) {
		return false
	}
	if !s.Upper.Contains(x) {
		return false
	}
	for _, c := range s.Overlaps {
		if !x.Overlaps(c) {
			return false
		}
	}
	return true
}

// Unsatisfiable reports a cheap static check: the spec can match no box at
// all (e.g. required lower bound outside the upper bound, or an overlap
// witness that is empty).
//
//boolq:noalloc
func (s RangeSpec) Unsatisfiable() bool {
	if !s.Upper.Contains(s.Lower) {
		return true
	}
	for _, c := range s.Overlaps {
		if c.IsEmpty() {
			return true
		}
		// Every matching x lies inside Upper; if Upper misses c entirely no
		// x can overlap c.
		if s.Upper.IsEmpty() || !s.Upper.Overlaps(c) {
			return true
		}
	}
	return false
}

// PointTransform maps a k-dim box to the 2k-dim point
// (Lo₁,…,Lo_k, Hi₁,…,Hi_k) — the representation of rectangles as points
// used by Figure 3. Empty boxes have no point representation; callers must
// check IsEmpty first.
func PointTransform(b Box) []float64 {
	p := make([]float64, 2*b.K)
	copy(p, b.Lo)
	copy(p[b.K:], b.Hi)
	return p
}

// PointQuery compiles the spec to a single 2k-dimensional box such that a
// box x matches the spec iff PointTransform(x) lies inside it — Figure 3's
// reduction of the combined containment/overlap constraints to one range
// query on the point space. The second result is false when the spec is
// statically unsatisfiable.
//
// Derivation per dimension i (x = [lo,hi]):
//
//	x ⊑ Upper:      Upper.Lo[i] ≤ lo        and hi ≤ Upper.Hi[i]
//	Lower ⊑ x:      lo ≤ Lower.Lo[i]        and Lower.Hi[i] ≤ hi
//	x ⊓ c ≠ ∅:      lo ≤ c.Hi[i]            and c.Lo[i] ≤ hi
//
// so lo ranges over [Upper.Lo[i], min(Lower.Lo[i], min_c c.Hi[i])] and
// hi over [max(Lower.Hi[i], max_c c.Lo[i]), Upper.Hi[i]].
func (s RangeSpec) PointQuery() (Box, bool) { return s.PointQueryTo(nil, nil) }

// PointQueryTo is PointQuery building the query box's corners in the
// backing arrays of lo and hi, allocating only when they hold fewer than
// 2k floats.
//
//boolq:noalloc
func (s RangeSpec) PointQueryTo(lo, hi []float64) (q Box, ok bool) {
	k := s.K
	up := s.Upper
	if up.IsEmpty() {
		return q, false // only the empty box ⊑ ∅, and it has no point
	}
	lo, hi = ensureLen(lo, 2*k), ensureLen(hi, 2*k)
	for i := 0; i < k; i++ {
		loMin, loMax := up.Lo[i], math.Inf(1)
		hiMin, hiMax := math.Inf(-1), up.Hi[i]
		if !s.Lower.IsEmpty() {
			loMax = math.Min(loMax, s.Lower.Lo[i])
			hiMin = math.Max(hiMin, s.Lower.Hi[i])
		}
		for _, c := range s.Overlaps {
			if c.IsEmpty() {
				return q, false
			}
			loMax = math.Min(loMax, c.Hi[i])
			hiMin = math.Max(hiMin, c.Lo[i])
		}
		if loMin > loMax || hiMin > hiMax {
			return q, false
		}
		lo[i], hi[i] = loMin, loMax
		lo[k+i], hi[k+i] = hiMin, hiMax
	}
	return Box{K: 2 * k, Lo: lo, Hi: hi}, true //boolq:allowalloc value literal over the caller's arrays
}

// AppendRun appends b's coordinate run — Lo then Hi, the 2k floats of
// PointTransform — to dst. b must be non-empty.
//
//boolq:noalloc
func (b Box) AppendRun(dst []float64) []float64 {
	dst = append(dst, b.Lo...)  //boolq:allowalloc grows only past the caller's capacity
	return append(dst, b.Hi...) //boolq:allowalloc grows only past the caller's capacity
}

// FlatSpec is a RangeSpec laid out as coordinate runs (see AppendRun), the
// form the index probes test boxes against: no Box headers to chase and no
// per-test dimension checks. Built by Flatten.
type FlatSpec struct {
	K     int
	Lower []float64 // the lower bound's run; nil when there is none
	Upper []float64 // the upper bound's run; nil when it is Univ
	Over  []float64 // the overlap witnesses' runs, back to back
}

// FlatRunsHint is the float count that holds the flat form of a
// two-dimensional spec with up to six overlap witnesses: callers flatten
// into a stack array of this size and Flatten allocates only beyond it.
const FlatRunsHint = 32

// Flatten lays s out as runs in buf's backing array, growing it only when
// it is too small. ok is false when no non-empty box can match: the
// upper bound is empty or the spec is Unsatisfiable. The result aliases
// buf.
//
//boolq:noalloc
func (s RangeSpec) Flatten(buf []float64) (f FlatSpec, ok bool) {
	if s.Upper.IsEmpty() || s.Unsatisfiable() {
		return f, false
	}
	f.K = s.K
	buf = buf[:0]
	if !s.Lower.IsEmpty() {
		buf = s.Lower.AppendRun(buf)
	}
	if !s.Upper.IsUniv() {
		buf = s.Upper.AppendRun(buf)
	}
	for _, c := range s.Overlaps {
		buf = c.AppendRun(buf)
	}
	n, w := 0, 2*s.K
	if !s.Lower.IsEmpty() {
		f.Lower, n = buf[:w:w], w
	}
	if !s.Upper.IsUniv() {
		f.Upper, n = buf[n:n+w:n+w], n+w
	}
	f.Over = buf[n:]
	return f, true
}

// Matches reports whether the non-empty box with corners lo and hi
// satisfies the spec: RangeSpec.Matches on flat coordinates.
//
//boolq:noalloc
func (f *FlatSpec) Matches(lo, hi []float64) bool {
	k := f.K
	lo, hi = lo[:k], hi[:k]
	if l := f.Lower; l != nil {
		l = l[:2*k]
		for i := range lo {
			if lo[i] > l[i] || hi[i] < l[k+i] {
				return false
			}
		}
	}
	if u := f.Upper; u != nil {
		u = u[:2*k]
		for i := range lo {
			if lo[i] < u[i] || hi[i] > u[k+i] {
				return false
			}
		}
	}
	return f.overlapsAll(lo, hi)
}

// Admits reports whether a subtree whose boxes all lie inside the box
// with corners lo and hi can hold a match: the box contains the lower
// bound and overlaps the upper bound and every witness. These are an
// R-tree's three sound pruning tests.
//
//boolq:noalloc
func (f *FlatSpec) Admits(lo, hi []float64) bool {
	k := f.K
	lo, hi = lo[:k], hi[:k]
	if l := f.Lower; l != nil {
		l = l[:2*k]
		for i := range lo {
			if lo[i] > l[i] || hi[i] < l[k+i] {
				return false
			}
		}
	}
	if u := f.Upper; u != nil {
		u = u[:2*k]
		for i := range lo {
			if lo[i] > u[k+i] || u[i] > hi[i] {
				return false
			}
		}
	}
	return f.overlapsAll(lo, hi)
}

//boolq:noalloc
func (f *FlatSpec) overlapsAll(lo, hi []float64) bool {
	k := f.K
	for o := f.Over; len(o) >= 2*k; o = o[2*k:] {
		for i := range lo {
			if lo[i] > o[k+i] || o[i] > hi[i] {
				return false
			}
		}
	}
	return true
}
