package zorder

import (
	"fmt"
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

// SearchOverlap visits the id of every stored box that overlaps the filter
// box (each id once, ascending). It returns the number of z-elements
// touched — the index cost metric.
func (ix *Index) SearchOverlap(filter bbox.Box, visit func(id int64) bool) int {
	ix.ensureSorted()
	touched := 0
	cover := ix.space.Decompose(filter, ix.budget)
	cand := map[int64]bool{}
	for _, f := range cover {
		// Descendants and equals: stored codes in [f.Code, f.End()).
		lo := sort.Search(len(ix.elems), func(i int) bool {
			return ix.elems[i].code >= f.Code
		})
		for i := lo; i < len(ix.elems) && ix.elems[i].code < f.End(); i++ {
			touched++
			if f.ContainsElem(Element{Code: ix.elems[i].code, Level: ix.elems[i].level}) {
				cand[ix.elems[i].id] = true
			}
		}
		// Ancestors: the prefix cells of f at every coarser level.
		for level := f.Level - 1; level >= 0; level-- {
			size := Element{Level: level}.Size()
			anc := f.Code - f.Code%size
			lo := sort.Search(len(ix.elems), func(i int) bool {
				return ix.elems[i].code >= anc
			})
			for i := lo; i < len(ix.elems) && ix.elems[i].code == anc; i++ {
				touched++
				if ix.elems[i].level == level {
					cand[ix.elems[i].id] = true
				}
			}
		}
	}
	// Exact filter and deterministic order.
	ids := make([]int64, 0, len(cand))
	for id := range cand {
		if ix.boxes[id].Overlaps(filter) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !visit(id) {
			break
		}
	}
	return touched
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
