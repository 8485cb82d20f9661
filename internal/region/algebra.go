package region

import (
	"fmt"
	"math"

	"repro/internal/bbox"
	"repro/internal/boolalg"
)

// Algebra is the Boolean algebra of rectilinear regions inside a fixed
// universe box, with elements identified up to null sets. It implements
// boolalg.Algebra, so constraint formulas evaluate directly on regions.
//
// An element is a region or the lazily taken complement of one: ¬ flips a
// sign and allocates nothing, ∧ and ∨ of a plain and a complemented
// operand are a Difference, two complemented operands go through De
// Morgan, and the predicates dispatch on the signs — so the universe is
// never subtracted from. The sign is private to this package: callers see
// only boolalg.Element and get a *Region back through Region, which takes
// the complement when there is one. An operand may extend beyond the
// universe (the store refuses such objects, but the algebra does not rely
// on it); every predicate ignores that excess (coveredIn, overlapsIn),
// exactly as a materialised complement would.
//
// Within its universe the algebra is atomless in the operational sense the
// paper needs (Theorem 5's Independence): every nonzero element can be
// properly split (see Region.Split), so disequation witnesses can always be
// refined.
type Algebra struct {
	universe bbox.Box
	unit     []bbox.Box // the universe as a box list
	bottom   *Region    // the shared empty element
	scr      *Scratch   // nil: results are heap-allocated and compacted
}

// coRegion is the complement, within the universe, of the region it
// wraps. Converting between *Region and *coRegion costs nothing, which is
// what makes Complement free.
type coRegion Region

// NewAlgebra returns the region algebra over the given universe box.
func NewAlgebra(universe bbox.Box) *Algebra {
	if universe.IsEmpty() {
		panic("region: empty universe")
	}
	return &Algebra{universe: universe, unit: []bbox.Box{universe}, bottom: Empty(universe.K)}
}

// Bind returns the same algebra writing its results into scr instead of
// the heap: the executor's form. Elements it returns are uncompacted,
// alias scr, and are valid until scr's next Reset (see Scratch).
func (a *Algebra) Bind(scr *Scratch) Algebra {
	b := *a
	b.scr = scr
	return b
}

// Universe returns the universe box.
func (a *Algebra) Universe() bbox.Box { return a.universe }

// K returns the dimensionality.
func (a *Algebra) K() int { return a.universe.K }

// split returns the region an element wraps and whether the element is
// its complement.
//
//boolq:noalloc
func split(e boolalg.Element) (*Region, bool) {
	switch v := e.(type) {
	case *Region:
		return v, false
	case *coRegion:
		return (*Region)(v), true
	}
	panic(fmt.Sprintf("region: %T is not an element of the region algebra", e))
}

// signed is the inverse of split.
//
//boolq:noalloc
func signed(r *Region, complemented bool) boolalg.Element {
	if complemented {
		return (*coRegion)(r)
	}
	return r
}

// Region converts an element back to *Region, taking the complement
// within the universe when the element carries one. A plain element comes
// back as is (clip it with Clip if it may exceed the universe).
func (a *Algebra) Region(e boolalg.Element) *Region {
	r, complemented := split(e)
	if complemented {
		return r.ComplementIn(a.universe)
	}
	return r
}

// Clip returns r ∩ universe as an element of this algebra.
func (a *Algebra) Clip(r *Region) boolalg.Element {
	return r.Intersect(FromBox(a.universe))
}

// LowerBoxInto stores ⌈e ∧ u⌉, the bounding box of e within the
// universe u, into dst and reports true. That box is a sound lower bound
// on the bounding box of any x with e ⊑ x: each box of e ∧ u has positive
// volume, and a positive-volume box that x covers up to a null set lies
// in x. A complemented element reports false, leaving dst as it was: its
// box decomposition is not at hand, so it yields no bound. An element
// that is 0 within u leaves dst empty, which bounds nothing.
//
//boolq:noalloc
func (a *Algebra) LowerBoxInto(e boolalg.Element, dst *bbox.Box) bool {
	r, complemented := split(e)
	if complemented {
		return false
	}
	u := a.universe
	dst.SetEmpty(u.K)
	for _, b := range r.boxes {
		if !interiorOverlaps(b, u) {
			continue // outside u, or meeting it in a null set
		}
		if dst.IsEmpty() {
			b.MeetInto(u, dst)
			continue
		}
		for i := 0; i < u.K; i++ {
			dst.Lo[i] = math.Min(dst.Lo[i], math.Max(b.Lo[i], u.Lo[i]))
			dst.Hi[i] = math.Max(dst.Hi[i], math.Min(b.Hi[i], u.Hi[i]))
		}
	}
	return true
}

// Bottom implements boolalg.Algebra.
//
//boolq:noalloc
func (a *Algebra) Bottom() boolalg.Element { return a.bottom }

// Top implements boolalg.Algebra.
//
//boolq:noalloc
func (a *Algebra) Top() boolalg.Element { return (*coRegion)(a.bottom) }

// Complement implements boolalg.Algebra.
//
//boolq:noalloc
func (a *Algebra) Complement(x boolalg.Element) boolalg.Element {
	r, complemented := split(x)
	return signed(r, !complemented)
}

// Meet implements boolalg.Algebra.
//
//boolq:noalloc
func (a *Algebra) Meet(x, y boolalg.Element) boolalg.Element {
	r, rc := split(x)
	s, sc := split(y)
	switch {
	case !rc && !sc:
		return a.intersect(r, s)
	case !rc:
		return a.difference(r, s)
	case !sc:
		return a.difference(s, r)
	default: // ¬r ∧ ¬s = ¬(r ∨ s)
		return (*coRegion)(a.union(r, s))
	}
}

// Join implements boolalg.Algebra.
//
//boolq:noalloc
func (a *Algebra) Join(x, y boolalg.Element) boolalg.Element {
	r, rc := split(x)
	s, sc := split(y)
	switch {
	case !rc && !sc:
		return a.union(r, s)
	case !rc: // r ∨ ¬s = ¬(s \ r)
		return (*coRegion)(a.difference(s, r))
	case !sc:
		return (*coRegion)(a.difference(r, s))
	default: // ¬r ∨ ¬s = ¬(r ∧ s)
		return (*coRegion)(a.intersect(r, s))
	}
}

//boolq:noalloc
func (a *Algebra) intersect(r, s *Region) *Region {
	r.checkDim(s)
	if r.IsEmpty() || s.IsEmpty() {
		return a.bottom
	}
	if a.scr == nil {
		return r.Intersect(s) //boolq:allowalloc unbound algebra: results live on the heap
	}
	return a.scr.keep(r.k, appendIntersect(a.scr.dst(), r.boxes, s.boxes, &a.scr.vals))
}

//boolq:noalloc
func (a *Algebra) difference(r, s *Region) *Region {
	r.checkDim(s)
	if a.scr == nil {
		return r.Difference(s) //boolq:allowalloc unbound algebra: results live on the heap
	}
	boxes, changed := appendDifference(a.scr.dst(), r.boxes, s.boxes, &a.scr.t, &a.scr.vals)
	if !changed {
		return r
	}
	return a.scr.keep(r.k, boxes)
}

//boolq:noalloc
func (a *Algebra) union(r, s *Region) *Region {
	r.checkDim(s)
	switch {
	case r.IsEmpty():
		return s
	case s.IsEmpty():
		return r
	case a.scr == nil:
		return r.Union(s) //boolq:allowalloc unbound algebra: results live on the heap
	}
	return a.scr.keep(r.k, appendUnion(a.scr.dst(), r.boxes, s.boxes, &a.scr.t, &a.scr.vals))
}

// covered reports that r is covered by s1 ∪ s2 within the universe.
//
//boolq:noalloc
func (a *Algebra) covered(r, s1, s2 []bbox.Box) bool {
	if a.scr == nil {
		var t pingpong
		return coveredIn(a.universe, r, s1, s2, &t, nil)
	}
	a.scr.tmp.buf = a.scr.tmp.buf[:0]
	return coveredIn(a.universe, r, s1, s2, &a.scr.t, &a.scr.tmp)
}

// IsBottom implements boolalg.Algebra: x = 0 within the universe.
//
//boolq:noalloc
func (a *Algebra) IsBottom(x boolalg.Element) bool {
	r, complemented := split(x)
	if complemented { // ¬r = 0 ⇔ the universe is covered by r
		return a.covered(a.unit, r.boxes, nil)
	}
	return a.covered(r.boxes, nil, nil)
}

// Leq implements boolalg.Leqer: x ⊑ y within the universe, decided from
// box geometry without building x ∧ ¬y. This is the executor's
// per-candidate containment test.
//
//boolq:noalloc
func (a *Algebra) Leq(x, y boolalg.Element) bool {
	r, rc := split(x)
	s, sc := split(y)
	r.checkDim(s)
	switch {
	case !rc && !sc:
		return a.covered(r.boxes, s.boxes, nil)
	case !rc: // r ⊑ ¬s ⇔ r ∧ s = 0
		return !overlapsIn(a.universe, r.boxes, s.boxes)
	case !sc: // ¬r ⊑ s ⇔ r ∨ s = 1
		return a.covered(a.unit, r.boxes, s.boxes)
	default: // ¬r ⊑ ¬s ⇔ s ⊑ r
		return a.covered(s.boxes, r.boxes, nil)
	}
}

// Overlaps implements boolalg.Overlapper: x ∧ y ≠ 0 within the universe,
// without materializing the meet.
//
//boolq:noalloc
func (a *Algebra) Overlaps(x, y boolalg.Element) bool {
	r, rc := split(x)
	s, sc := split(y)
	r.checkDim(s)
	switch {
	case !rc && !sc:
		return overlapsIn(a.universe, r.boxes, s.boxes)
	case !rc: // r ∧ ¬s ≠ 0 ⇔ r ⋢ s
		return !a.covered(r.boxes, s.boxes, nil)
	case !sc:
		return !a.covered(s.boxes, r.boxes, nil)
	default: // ¬r ∧ ¬s ≠ 0 ⇔ r ∨ s ≠ 1
		return !a.covered(a.unit, r.boxes, s.boxes)
	}
}

// Equal implements boolalg.Algebra: equality up to null sets, within the
// universe.
func (a *Algebra) Equal(x, y boolalg.Element) bool { return a.Leq(x, y) && a.Leq(y, x) }
