package region

import (
	"math"

	"repro/internal/bbox"
)

// This file holds the box-list kernels every region operation is built
// from, and the caller-owned Scratch they write into on the executor's
// hot path. A kernel appends its result to a destination buffer and takes
// the coordinates of the boxes it creates from an arena; with a nil arena
// and a nil destination the same kernel serves the allocating Region
// methods. Kernels never complement against a universe and never compact:
// compaction shrinks a decomposition without changing the set, so only
// results that outlive an evaluation (the Region methods) pay for it.

// arena hands out coordinate storage for emitted boxes from one growing
// chunk. A nil *arena allocates each box on the heap.
type arena struct {
	buf []float64
}

// arenaChunk is the first chunk's size in coordinates (64 2-D boxes).
const arenaChunk = 256

// box returns a box of dimension k with writable, unset coordinates.
//
//boolq:noalloc
func (a *arena) box(k int) bbox.Box {
	var c []float64
	switch {
	case a == nil:
		c = make([]float64, 2*k) //boolq:allowalloc heap mode: the allocating Region methods own their result
	case cap(a.buf)-len(a.buf) < 2*k:
		// Boxes carved from the old chunk keep it alive; after the next
		// reset only the larger chunk is reused.
		a.buf = make([]float64, 2*k, max(2*cap(a.buf), arenaChunk, 2*k)) //boolq:allowalloc grow-once: a warm arena skips the branch
		c = a.buf
	default:
		n := len(a.buf)
		a.buf = a.buf[:n+2*k]
		c = a.buf[n:]
	}
	return bbox.Box{K: k, Lo: c[:k:k], Hi: c[k : 2*k : 2*k]} //boolq:allowalloc value literal over arena storage; stays on the stack
}

// pingpong is the pair of buffers remainder alternates between.
type pingpong struct {
	a, b []bbox.Box
}

// remainder returns the decomposition of rb \ ⋃s1 \ ⋃s2. The result
// aliases t and is valid until t's next use.
//
//boolq:noalloc
func (t *pingpong) remainder(rb bbox.Box, s1, s2 []bbox.Box, ar *arena) []bbox.Box {
	rem := append(t.a[:0], rb) //boolq:allowalloc grow-once: t's buffers are reused across calls
	spare := t.b[:0]
	s := s1
	for pass := 0; pass < 2 && len(rem) > 0; pass++ {
		for _, sb := range s {
			if !overlapsAny(sb, rem) {
				continue
			}
			spare = spare[:0]
			for _, x := range rem {
				spare = appendSubtractBox(spare, x, sb, ar)
			}
			rem, spare = spare, rem
			if len(rem) == 0 {
				break
			}
		}
		s = s2
	}
	t.a, t.b = rem, spare
	return rem
}

// appendDifference appends r \ s to dst. When no box of r meets s it
// appends nothing and returns r itself with changed == false, so callers
// can share the operand instead of copying it.
//
//boolq:noalloc
func appendDifference(dst, r, s []bbox.Box, t *pingpong, ar *arena) (out []bbox.Box, changed bool) {
	for i, rb := range r {
		if !overlapsAny(rb, s) {
			if changed {
				dst = append(dst, rb) //boolq:allowalloc emitted result: dst is the caller's reusable buffer
			}
			continue
		}
		if !changed {
			dst = append(dst, r[:i]...) //boolq:allowalloc emitted result: dst is the caller's reusable buffer
			changed = true
		}
		dst = append(dst, t.remainder(rb, s, nil, ar)...) //boolq:allowalloc emitted result: dst is the caller's reusable buffer
	}
	if !changed {
		return r, false
	}
	return dst, true
}

// appendUnion appends r ∪ s to dst as r followed by s \ r, which keeps
// the decomposition interior-disjoint.
//
//boolq:noalloc
func appendUnion(dst, r, s []bbox.Box, t *pingpong, ar *arena) []bbox.Box {
	dst = append(dst, r...) //boolq:allowalloc emitted result: dst is the caller's reusable buffer
	if d, changed := appendDifference(dst, s, r, t, ar); changed {
		return d
	}
	return append(dst, s...) //boolq:allowalloc emitted result: dst is the caller's reusable buffer
}

// appendIntersect appends r ∩ s to dst, one box per interior-overlapping
// pair. A box of r inside the box of s it meets is appended as is.
//
//boolq:noalloc
func appendIntersect(dst, r, s []bbox.Box, ar *arena) []bbox.Box {
	for _, rb := range r {
		for _, sb := range s {
			if !interiorOverlaps(rb, sb) {
				continue
			}
			if sb.Contains(rb) {
				dst = append(dst, rb) //boolq:allowalloc emitted result: dst is the caller's reusable buffer
				continue
			}
			m := ar.box(rb.K)
			for i := 0; i < rb.K; i++ {
				m.Lo[i] = math.Max(rb.Lo[i], sb.Lo[i])
				m.Hi[i] = math.Min(rb.Hi[i], sb.Hi[i])
			}
			dst = append(dst, m) //boolq:allowalloc emitted result: dst is the caller's reusable buffer
		}
	}
	return dst
}

// coveredIn reports that (⋃r \ ⋃s1 \ ⋃s2) ∩ u has measure zero: within
// the universe box u, r is covered by s1 ∪ s2. Every universe-relative
// predicate of the algebra reduces to it or to overlapsIn, which is what
// keeps them consistent for regions that extend beyond u. It stops at the
// first box of r with an uncovered remainder and materialises nothing
// beyond that box's own slabs.
//
//boolq:noalloc
func coveredIn(u bbox.Box, r, s1, s2 []bbox.Box, t *pingpong, ar *arena) bool {
	for _, rb := range r {
		if !interiorOverlaps(rb, u) {
			continue
		}
		if !u.Contains(rb) {
			clip := ar.box(rb.K)
			for i := 0; i < rb.K; i++ {
				clip.Lo[i] = math.Max(rb.Lo[i], u.Lo[i])
				clip.Hi[i] = math.Min(rb.Hi[i], u.Hi[i])
			}
			rb = clip
		}
		if len(t.remainder(rb, s1, s2, ar)) > 0 {
			return false
		}
	}
	return true
}

// overlapsIn reports that ⋃r ∩ ⋃s ∩ u has positive measure, box-pairwise
// and without materialising anything.
//
//boolq:noalloc
func overlapsIn(u bbox.Box, r, s []bbox.Box) bool {
	for _, rb := range r {
		if !interiorOverlaps(rb, u) {
			continue
		}
		for _, sb := range s {
			if interiorOverlaps3(rb, sb, u) {
				return true
			}
		}
	}
	return false
}

// interiorOverlaps3 reports that a ⊓ b ⊓ c has positive volume.
//
//boolq:noalloc
func interiorOverlaps3(a, b, c bbox.Box) bool {
	for i := 0; i < a.K; i++ {
		lo := math.Max(a.Lo[i], math.Max(b.Lo[i], c.Lo[i]))
		hi := math.Min(a.Hi[i], math.Min(b.Hi[i], c.Hi[i]))
		if lo >= hi {
			return false
		}
	}
	return true
}

// Scratch is the caller-owned storage a bound Algebra (Algebra.Bind)
// writes its results into: box lists, their coordinates and the Region
// headers of the elements it returns. Buffers grow on first use and are
// reused after Reset, so a warm Scratch makes the algebra's operations
// allocation-free.
//
// Ownership: every element a bound algebra returns aliases its Scratch
// and is valid until the next Reset; predicates (Leq, Overlaps, IsBottom,
// Equal) use separate temporary storage and invalidate nothing. A Scratch
// serves one goroutine at a time.
type Scratch struct {
	vals  arena        // coordinates of live elements
	tmp   arena        // coordinates a predicate needs while it runs
	t     pingpong     // working buffers of the operation in progress
	lists [][]bbox.Box // lists[:nl] hold live elements' boxes
	regs  []*Region    // regs[:nr] are live elements' headers
	nl    int
	nr    int
}

// Reset invalidates every element produced since the last Reset and makes
// their storage available again.
//
//boolq:noalloc
func (s *Scratch) Reset() {
	s.vals.buf = s.vals.buf[:0]
	s.nl, s.nr = 0, 0
}

// Cap reports how many coordinates and boxes the scratch retains, for
// pools that drop oversized scratch instead of keeping it.
func (s *Scratch) Cap() int {
	n := cap(s.vals.buf) + cap(s.tmp.buf) + cap(s.t.a) + cap(s.t.b)
	for _, l := range s.lists {
		n += cap(l)
	}
	return n
}

// dst returns the next free box list, emptied.
//
//boolq:noalloc
func (s *Scratch) dst() []bbox.Box {
	if s.nl == len(s.lists) {
		s.lists = append(s.lists, nil) //boolq:allowalloc grow-once: a warm scratch holds a list per live element
	}
	return s.lists[s.nl][:0]
}

// keep records boxes — built on dst — as a live element and returns its
// header.
//
//boolq:noalloc
func (s *Scratch) keep(k int, boxes []bbox.Box) *Region {
	s.lists[s.nl] = boxes
	s.nl++
	if s.nr == len(s.regs) {
		s.regs = append(s.regs, new(Region)) //boolq:allowalloc grow-once: a warm scratch holds a header per live element
	}
	r := s.regs[s.nr]
	s.nr++
	r.k, r.boxes = k, boxes
	return r
}
