// Package zorder implements z-order (Morton) encoding and the
// Orenstein–Manola style spatial join the paper discusses as the only
// other application-independent approach to multivariable spatial queries
// (§1, reference [10], PROBE).
//
// Two-dimensional space is recursively quartered down to a fixed depth;
// every cell at depth d has a z-code — the bit-interleaving of its row and
// column indices — and all its descendants share that code as a prefix.
// A box decomposes into a small set of maximal cells ("z-elements");
// a spatial join sorts the z-elements of both inputs and sweeps them with
// a stack, reporting pairs whose z-elements are in a prefix relation.
// These are exactly the candidate pairs whose boxes may overlap; a final
// exact box test removes false positives (which arise because a box is
// over-approximated by its covering cells).
//
// DESIGN.md §2 ("Storage") places this package in the module map.
package zorder

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bbox"
)

// MaxLevel is the quadtree depth used for decomposition: 16 levels give a
// 65536×65536 grid, plenty for the synthetic workloads.
const MaxLevel = 16

// Interleave2 spreads the low 16 bits of x and y into even/odd bit
// positions (Morton code).
func Interleave2(x, y uint32) uint64 {
	return spread(uint64(x)) | spread(uint64(y))<<1
}

// spread inserts a zero bit between each of the low 16 bits.
func spread(v uint64) uint64 {
	v &= 0xffff
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// Deinterleave2 is the inverse of Interleave2.
func Deinterleave2(code uint64) (x, y uint32) {
	return uint32(compact(code)), uint32(compact(code >> 1))
}

func compact(v uint64) uint64 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0f0f0f0f0f0f0f0f
	v = (v | v>>4) & 0x00ff00ff00ff00ff
	v = (v | v>>8) & 0x0000ffff0000ffff
	v = (v | v>>16) & 0x00000000ffffffff
	return v
}

// Element is a z-element: a quadtree cell identified by the Morton code of
// its top-left grid cell and its level (0 = whole space, MaxLevel =
// single grid cell). Its z-interval is [Code, Code + 4^(MaxLevel-Level)).
type Element struct {
	Code  uint64
	Level int
}

// Size returns the length of the element's z-interval.
func (e Element) Size() uint64 { return 1 << uint(2*(MaxLevel-e.Level)) }

// End returns the exclusive end of the z-interval.
func (e Element) End() uint64 { return e.Code + e.Size() }

// ContainsElem reports whether e's z-interval contains f's (prefix
// relation).
func (e Element) ContainsElem(f Element) bool {
	return e.Code <= f.Code && f.End() <= e.End()
}

// Space maps a universe box onto the 2^MaxLevel grid.
type Space struct {
	universe bbox.Box
	cell     [2]float64 // cell width per dimension
}

// NewSpace returns a z-order space over the given 2-D universe.
func NewSpace(universe bbox.Box) *Space {
	if universe.IsEmpty() || universe.K != 2 {
		panic("zorder: universe must be a nonempty 2-D box")
	}
	n := float64(uint32(1) << MaxLevel)
	return &Space{
		universe: universe,
		cell: [2]float64{
			(universe.Hi[0] - universe.Lo[0]) / n,
			(universe.Hi[1] - universe.Lo[1]) / n,
		},
	}
}

// gridRange clamps box coordinates to grid cell indices [lo, hi]
// (inclusive).
func (s *Space) gridRange(b bbox.Box) (x0, y0, x1, y1 uint32, ok bool) {
	if b.IsEmpty() {
		return 0, 0, 0, 0, false
	}
	var lo, hi [2]float64 // b ⊓ universe, without allocating the meet
	for d := range lo {
		lo[d], hi[d] = max(b.Lo[d], s.universe.Lo[d]), min(b.Hi[d], s.universe.Hi[d])
		if lo[d] > hi[d] {
			return 0, 0, 0, 0, false
		}
	}
	n := uint32(1)<<MaxLevel - 1
	toCell := func(v, lo, w float64) uint32 {
		c := int64((v - lo) / w)
		if c < 0 {
			c = 0
		}
		if c > int64(n) {
			c = int64(n)
		}
		return uint32(c)
	}
	x0 = toCell(lo[0], s.universe.Lo[0], s.cell[0])
	y0 = toCell(lo[1], s.universe.Lo[1], s.cell[1])
	// Upper edges: a coordinate exactly on a cell boundary belongs to the
	// lower cell so that touching boxes still share a cell (closed-box
	// overlap semantics).
	x1 = toCell(hi[0], s.universe.Lo[0], s.cell[0])
	y1 = toCell(hi[1], s.universe.Lo[1], s.cell[1])
	return x0, y0, x1, y1, true
}

// Decompose covers the box with maximal z-elements, recursing at most to
// maxElems leaf splits (coarser covers are still correct — they only add
// candidate pairs). maxElems ≤ 0 means no budget limit.
func (s *Space) Decompose(b bbox.Box, maxElems int) []Element {
	return s.decompose(b, maxElems, nil)
}

// decompose is Decompose into dst's backing array (reset to length 0),
// growing it only past its capacity.
func (s *Space) decompose(b bbox.Box, maxElems int, dst []Element) []Element {
	x0, y0, x1, y1, ok := s.gridRange(b)
	if !ok {
		return nil
	}
	c := coverer{x0: x0, y0: y0, x1: x1, y1: y1, budget: maxElems}
	return mergeElems(c.cover(dst[:0], 0, 0, 0))
}

// coverer is one decomposition's box and budget.
type coverer struct {
	x0, y0, x1, y1 uint32 // the box's grid cell range, inclusive
	budget         int
}

// cover visits the cell (cx, cy) at level and returns out extended by its
// share of the cover: a disjoint cell adds nothing, a covered cell (or
// one at the depth or budget limit) adds itself, and the rest are
// quartered.
func (c *coverer) cover(out []Element, cx, cy uint32, level int) []Element {
	// Cell spans grid rows [cy*size, (cy+1)*size) etc. at this level.
	size := uint32(1) << uint(MaxLevel-level)
	gx0, gy0 := cx*size, cy*size
	gx1, gy1 := gx0+size-1, gy0+size-1
	if gx1 < c.x0 || gx0 > c.x1 || gy1 < c.y0 || gy0 > c.y1 {
		return out // disjoint
	}
	fullyInside := gx0 >= c.x0 && gx1 <= c.x1 && gy0 >= c.y0 && gy1 <= c.y1
	if fullyInside || level == MaxLevel || (c.budget > 0 && len(out) >= c.budget) {
		return append(out, Element{Code: Interleave2(gx0, gy0), Level: level})
	}
	out = c.cover(out, cx*2, cy*2, level+1)
	out = c.cover(out, cx*2+1, cy*2, level+1)
	out = c.cover(out, cx*2, cy*2+1, level+1)
	return c.cover(out, cx*2+1, cy*2+1, level+1)
}

// mergeElems merges four sibling cells into their parent where possible
// and drops elements contained in others.
func mergeElems(es []Element) []Element {
	if len(es) < 2 {
		return es
	}
	slices.SortFunc(es, func(a, b Element) int {
		if c := cmp.Compare(a.Code, b.Code); c != 0 {
			return c
		}
		return cmp.Compare(a.Level, b.Level)
	})
	// Drop contained elements (they follow their container in z-order).
	out := es[:0]
	for _, e := range es {
		if len(out) > 0 && out[len(out)-1].ContainsElem(e) {
			continue
		}
		out = append(out, e)
	}
	// Merge complete sibling quartets repeatedly.
	for {
		merged := false
		next := out[:0:cap(out)]
		i := 0
		for i < len(out) {
			e := out[i]
			if e.Level > 0 && i+3 < len(out) {
				parentSize := e.Size() * 4
				if e.Code%parentSize == 0 &&
					out[i+1] == (Element{e.Code + e.Size(), e.Level}) &&
					out[i+2] == (Element{e.Code + 2*e.Size(), e.Level}) &&
					out[i+3] == (Element{e.Code + 3*e.Size(), e.Level}) {
					next = append(next, Element{Code: e.Code, Level: e.Level - 1})
					i += 4
					merged = true
					continue
				}
			}
			next = append(next, e)
			i++
		}
		out = next
		if !merged {
			return out
		}
	}
}

// Item is a join input: an identified box.
type Item struct {
	ID  int64
	Box bbox.Box
}

// Pair is a join result.
type Pair struct {
	A, B int64
}

// JoinStats reports the work a Join performed.
type JoinStats struct {
	ElementsA, ElementsB int // z-elements generated
	Candidates           int // prefix-matching pairs before the exact test
	Results              int
}

// Join computes all pairs (a ∈ as, b ∈ bs) with overlapping boxes using the
// z-order sweep, with maxElems budget per box decomposition (0 = default
// of 32).
func (s *Space) Join(as, bs []Item, maxElems int) ([]Pair, JoinStats) {
	if maxElems <= 0 {
		maxElems = 32
	}
	type tagged struct {
		elem Element
		side int // 0 = as, 1 = bs
		id   int64
	}
	var stats JoinStats
	var all []tagged
	for _, it := range as {
		for _, e := range s.Decompose(it.Box, maxElems) {
			all = append(all, tagged{e, 0, it.ID})
			stats.ElementsA++
		}
	}
	for _, it := range bs {
		for _, e := range s.Decompose(it.Box, maxElems) {
			all = append(all, tagged{e, 1, it.ID})
			stats.ElementsB++
		}
	}
	sort.Slice(all, func(i, j int) bool {
		ei, ej := all[i].elem, all[j].elem
		if ei.Code != ej.Code {
			return ei.Code < ej.Code
		}
		if ei.Level != ej.Level {
			return ei.Level < ej.Level // container before contained
		}
		return all[i].side < all[j].side
	})
	boxOf := map[[2]int64]bbox.Box{}
	for _, it := range as {
		boxOf[[2]int64{0, it.ID}] = it.Box
	}
	for _, it := range bs {
		boxOf[[2]int64{1, it.ID}] = it.Box
	}
	seen := map[Pair]bool{}
	var stack []tagged
	for _, cur := range all {
		for len(stack) > 0 && !stack[len(stack)-1].elem.ContainsElem(cur.elem) {
			stack = stack[:len(stack)-1]
		}
		for _, anc := range stack {
			if anc.side == cur.side {
				continue
			}
			var p Pair
			if cur.side == 0 {
				p = Pair{A: cur.id, B: anc.id}
			} else {
				p = Pair{A: anc.id, B: cur.id}
			}
			if seen[p] {
				continue
			}
			seen[p] = true
			stats.Candidates++
		}
		stack = append(stack, cur)
	}
	var pairs []Pair
	for p := range seen {
		ab := boxOf[[2]int64{0, p.A}]
		bb := boxOf[[2]int64{1, p.B}]
		if ab.Overlaps(bb) {
			pairs = append(pairs, p)
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	stats.Results = len(pairs)
	return pairs, stats
}

// String renders an element for debugging.
func (e Element) String() string {
	return fmt.Sprintf("z%0*x@%d", 2, e.Code, e.Level)
}
