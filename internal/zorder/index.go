package zorder

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/bbox"
)

// Index is a z-order spatial index: each stored box is decomposed into
// z-elements kept in one sorted list, and an overlap query decomposes its
// filter box the same way and reports every stored element whose
// z-interval intersects the filter's — descendants by binary search over
// the code range, ancestors by probing the filter cells' prefixes.
//
// This realizes the paper's concluding remark that the constraint-
// compilation approach "can be extended to make use of z-ordering
// methods": internal/spatialdb plugs this index in as a fifth backend for
// the same compiled range-query plans.
type Index struct {
	space  *Space
	budget int
	elems  []indexElem
	boxes  map[int64]bbox.Box
	// Concurrent searches (under the store's read guard) may race to sort
	// elems lazily after an Insert; sortMu lets one of them do it.
	sortMu sync.Mutex
	sorted bool
}

type indexElem struct {
	code  uint64
	level int
	id    int64
}

// NewIndex returns an empty z-order index over the universe. budget caps
// the number of z-elements per stored box (0 = default 16).
func NewIndex(universe bbox.Box, budget int) *Index {
	if budget <= 0 {
		budget = 16
	}
	return &Index{
		space:  NewSpace(universe),
		budget: budget,
		boxes:  map[int64]bbox.Box{},
	}
}

// Len returns the number of indexed boxes.
func (ix *Index) Len() int { return len(ix.boxes) }

// BulkLoad builds an index over all boxes at once. Inserts already defer
// sorting (the element list is sorted lazily on first search), so the
// batch path costs the same as an insert loop; what BulkLoad adds is
// all-or-nothing construction — any box outside the universe fails the
// whole build, leaving no partially filled index — and a single upfront
// sort so the first search pays no hidden cost. boxes and ids are
// parallel slices.
func BulkLoad(universe bbox.Box, budget int, boxes []bbox.Box, ids []int64) (*Index, error) {
	if len(boxes) != len(ids) {
		return nil, fmt.Errorf("zorder: %d boxes but %d ids", len(boxes), len(ids))
	}
	ix := NewIndex(universe, budget)
	for i, b := range boxes {
		if err := ix.Insert(b, ids[i]); err != nil {
			return nil, err
		}
	}
	ix.ensureSorted()
	return ix, nil
}

// Insert adds a box. The box must lie inside the universe: z-codes only
// cover the gridded space, so outside parts would be silently unsearchable.
func (ix *Index) Insert(b bbox.Box, id int64) error {
	if b.IsEmpty() {
		return fmt.Errorf("zorder: cannot index an empty box")
	}
	if !ix.space.universe.Contains(b) {
		return fmt.Errorf("zorder: box %v outside the universe %v", b, ix.space.universe)
	}
	for _, e := range ix.space.Decompose(b, ix.budget) {
		ix.elems = append(ix.elems, indexElem{code: e.Code, level: e.Level, id: id})
	}
	ix.boxes[id] = b
	ix.sorted = false
	return nil
}

func (ix *Index) ensureSorted() {
	ix.sortMu.Lock()
	defer ix.sortMu.Unlock()
	if ix.sorted {
		return
	}
	sort.Slice(ix.elems, func(i, j int) bool {
		if ix.elems[i].code != ix.elems[j].code {
			return ix.elems[i].code < ix.elems[j].code
		}
		return ix.elems[i].level < ix.elems[j].level
	})
	ix.sorted = true
}

// coverStack is the element count of the stack array a search decomposes
// its filter into; a larger cover allocates.
const coverStack = 64

// SearchOverlap appends to ids the id of every stored box that overlaps
// the filter box, each once and in ascending order, and returns the grown
// slice with the number of z-elements touched — the index cost metric.
// Candidates are gathered in ids' spare capacity, so with a warm buffer
// the search allocates nothing.
func (ix *Index) SearchOverlap(filter bbox.Box, ids []int64) ([]int64, int) {
	ix.ensureSorted()
	touched := 0
	var coverBuf [coverStack]Element
	n := len(ids)
	for _, f := range ix.space.decompose(filter, ix.budget, coverBuf[:0]) {
		// Descendants and equals: stored codes in [f.Code, f.End()).
		for i := ix.firstAtOrAbove(f.Code); i < len(ix.elems) && ix.elems[i].code < f.End(); i++ {
			touched++
			if f.ContainsElem(Element{Code: ix.elems[i].code, Level: ix.elems[i].level}) {
				ids = append(ids, ix.elems[i].id)
			}
		}
		// Ancestors: the prefix cells of f at every coarser level.
		for level := f.Level - 1; level >= 0; level-- {
			size := Element{Level: level}.Size()
			anc := f.Code - f.Code%size
			for i := ix.firstAtOrAbove(anc); i < len(ix.elems) && ix.elems[i].code == anc; i++ {
				touched++
				if ix.elems[i].level == level {
					ids = append(ids, ix.elems[i].id)
				}
			}
		}
	}
	// Deduplicate, order, and filter exactly, in place.
	cand := ids[n:]
	slices.Sort(cand)
	ids = ids[:n]
	for _, id := range slices.Compact(cand) {
		if ix.boxes[id].Overlaps(filter) {
			ids = append(ids, id)
		}
	}
	return ids, touched
}

// SearchSpec appends to ids the id of every stored box the range spec's
// single overlap filter lets through (see specFilter), as SearchOverlap
// does; the caller applies the spec itself to the candidates. A
// statically unsatisfiable spec touches nothing.
func (ix *Index) SearchSpec(spec bbox.RangeSpec, ids []int64) ([]int64, int) {
	if spec.Unsatisfiable() {
		return ids, 0
	}
	var lo, hi [2]float64
	return ix.SearchOverlap(specFilter(spec, lo[:], hi[:]), ids)
}

// specFilter returns the single overlap filter a z-order search can use
// for spec: every box matching the spec must overlap it. Preference order:
// the required lower bound (a match contains it, hence overlaps it), then
// the most selective witness meet the upper bound (a match inside Upper
// overlapping w also overlaps w ⊓ Upper), built in lo and hi, then the
// upper bound itself.
func specFilter(spec bbox.RangeSpec, lo, hi []float64) bbox.Box {
	if !spec.Lower.IsEmpty() {
		return spec.Lower
	}
	if len(spec.Overlaps) == 0 {
		return spec.Upper
	}
	best := spec.Overlaps[0]
	for _, w := range spec.Overlaps[1:] {
		if w.Volume() < best.Volume() {
			best = w
		}
	}
	return best.MeetTo(spec.Upper, lo, hi)
}

// firstAtOrAbove returns the index of the first element with code ≥ code.
func (ix *Index) firstAtOrAbove(code uint64) int {
	i, _ := slices.BinarySearchFunc(ix.elems, code, func(e indexElem, code uint64) int {
		return cmp.Compare(e.code, code)
	})
	return i
}

// All visits every stored id in ascending order.
func (ix *Index) All(visit func(id int64) bool) {
	ids := make([]int64, 0, len(ix.boxes))
	for id := range ix.boxes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !visit(id) {
			return
		}
	}
}
