// Package rtree implements Guttman's R-tree [SIGMOD 1984], the dynamic
// spatial index the paper cites as a canonical provider of range queries
// over bounding boxes (§1, reference [6]).
//
// The tree stores (box, id) entries and answers the range-query primitives
// the compiled plans need: overlap search and the combined RangeSpec
// search (containment, overlap and lower-bound constraints) with subtree
// pruning. Insertion uses Guttman's least-enlargement descent; node
// splitting offers the quadratic (default) and linear algorithms from the
// original paper. There is no delete: the store removes an object by
// rebuilding its layer's index.
//
// Nodes keep their slots' boxes flat: one []float64 holding a run of 2k
// floats (lo₁…lo_k, hi₁…hi_k) per slot — an entry's box in a leaf, a
// child's MBR in an internal node. A search tests those runs against a
// spec flattened once (bbox.FlatSpec) and allocates nothing.
//
// DESIGN.md §2 ("Storage") places this package in the module map.
package rtree

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bbox"
)

// SplitStrategy selects a node-splitting algorithm.
type SplitStrategy int

// Split strategies from Guttman's paper.
const (
	QuadraticSplit SplitStrategy = iota
	LinearSplit
)

// Entry is a stored (bounding box, identifier) pair.
type Entry struct {
	Box bbox.Box
	ID  int64
}

// node is one tree node. runs holds 2k floats per slot; ids (leaf) or
// children (internal) parallels it. A node's own MBR lives in its
// parent's run for it, the root's in Tree.rootRun.
type node struct {
	leaf     bool
	runs     []float64
	ids      []int64
	children []*node
}

func (n *node) len() int {
	if n.leaf {
		return len(n.ids)
	}
	return len(n.children)
}

// run returns slot i's run; w is 2k.
func (n *node) run(i, w int) []float64 { return n.runs[i*w : i*w+w : i*w+w] }

// mbr writes the join of n's runs into dst (len 2k); n must be non-empty.
func (n *node) mbr(dst []float64, k int) {
	copy(dst, n.runs[:2*k])
	for r := n.runs[2*k:]; len(r) > 0; r = r[2*k:] {
		join(dst, r, k)
	}
}

// Run arithmetic. The operation order matches bbox.Box's Join, Volume and
// Enlarge, so a tree built here is shaped exactly as one built over Box
// values.

// join widens dst to cover r.
func join(dst, r []float64, k int) {
	for i := 0; i < k; i++ {
		dst[i] = min(dst[i], r[i])
		dst[k+i] = max(dst[k+i], r[k+i])
	}
}

func volume(r []float64, k int) float64 {
	v := 1.0
	for i := 0; i < k; i++ {
		v *= r[k+i] - r[i]
	}
	return v
}

// joinVolume is the volume of the join of a and b.
func joinVolume(a, b []float64, k int) float64 {
	v := 1.0
	for i := 0; i < k; i++ {
		v *= max(a[k+i], b[k+i]) - min(a[i], b[i])
	}
	return v
}

// enlarge is the volume increase of a ⊔ b over a (Guttman's insertion
// heuristic).
func enlarge(a, b []float64, k int) float64 { return joinVolume(a, b, k) - volume(a, k) }

// runBox copies a run into a fresh Box.
func runBox(r []float64, k int) bbox.Box {
	return bbox.New(r[:k], r[k:2*k])
}

// Tree is an R-tree over k-dimensional boxes. The zero value is unusable;
// call New.
type Tree struct {
	k        int
	min, max int
	split    SplitStrategy
	root     *node
	rootRun  []float64 // the root's MBR; nil while the tree is empty
	size     int

	// Insert scratch. A tree has one writer at a time (the store mutates
	// an index under its write lock), so Insert keeps its working storage
	// here instead of allocating it per call: the new entry's run, the
	// descent path and the slot taken at each step, a split's groups and
	// their MBRs, and the run of the slot a split adds to the parent.
	run        []float64
	path       []*node
	slots      []int
	ga, gb     []int
	boxA, boxB []float64
	up         []float64
}

// Option configures a Tree.
type Option func(*Tree)

// WithBranching sets the minimum and maximum node fanout (Guttman's m and
// M); defaults are 2 and 8.
func WithBranching(min, max int) Option {
	return func(t *Tree) { t.min, t.max = min, max }
}

// WithSplit selects the split algorithm.
func WithSplit(s SplitStrategy) Option {
	return func(t *Tree) { t.split = s }
}

// New returns an empty R-tree over k-dimensional boxes.
func New(k int, opts ...Option) *Tree {
	t := &Tree{k: k, min: 2, max: 8, split: QuadraticSplit}
	for _, o := range opts {
		o(t)
	}
	if t.min < 1 || t.max < 2*t.min {
		panic(fmt.Sprintf("rtree: invalid branching m=%d M=%d (need M ≥ 2m)", t.min, t.max))
	}
	t.root = &node{leaf: true}
	return t
}

// K returns the dimensionality.
func (t *Tree) K() int { return t.k }

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 for a single leaf).
func (t *Tree) Height() int {
	h, n := 1, t.root
	for !n.leaf {
		h++
		n = n.children[0]
	}
	return h
}

// checkBox validates a box for storage.
func (t *Tree) checkBox(box bbox.Box) error {
	if box.IsEmpty() {
		return fmt.Errorf("rtree: cannot index an empty box")
	}
	if box.K != t.k {
		return fmt.Errorf("rtree: box dimension %d, tree dimension %d", box.K, t.k)
	}
	return nil
}

// Insert adds an entry. Empty boxes are rejected: they match no range
// query and would poison MBRs. Only the runs on the insertion path that
// the new box widens are rewritten.
func (t *Tree) Insert(box bbox.Box, id int64) error {
	if err := t.checkBox(box); err != nil {
		return err
	}
	t.run = box.AppendRun(t.run[:0])
	t.insertRun(t.run, id)
	return nil
}

// insertRun adds the entry with run r, which it copies.
func (t *Tree) insertRun(r []float64, id int64) {
	path, slots := t.chooseLeafPath(r)
	w := 2 * t.k
	for i, s := range slots {
		join(path[i].run(s, w), r, t.k)
	}
	if t.rootRun == nil {
		t.rootRun = slices.Clone(r)
	} else {
		join(t.rootRun, r, t.k)
	}
	t.size++
	t.addSlot(path, slots, r, id)
}

// chooseLeafPath descends by least enlargement (ties by smaller volume)
// and returns the root-to-leaf path with the slot taken at each internal
// node, in the tree's scratch (valid until the next insert).
func (t *Tree) chooseLeafPath(r []float64) (path []*node, slots []int) {
	path, slots = append(t.path[:0], t.root), t.slots[:0]
	defer func() { t.path, t.slots = path, slots }()
	n, w := t.root, 2*t.k
	for !n.leaf {
		best := -1
		bestEnl, bestVol := 0.0, 0.0
		for i := range n.children {
			c := n.run(i, w)
			enl := enlarge(c, r, t.k)
			vol := volume(c, t.k)
			if best < 0 || enl < bestEnl || (enl == bestEnl && vol < bestVol) {
				best, bestEnl, bestVol = i, enl, vol
			}
		}
		slots = append(slots, best)
		n = n.children[best]
		path = append(path, n)
	}
	return path, slots
}

// addSlot adds the entry (r, id) to the leaf that ends path. A node with
// M slots splits instead of growing past them: two new nodes share its
// slots and the new one, the first takes its place in the parent, and
// the second's slot is added to the parent the same way, up to a new
// root. A split node's two halves cover exactly what it covered, so no
// run above the split changes.
func (t *Tree) addSlot(path []*node, slots []int, r []float64, id int64) {
	w := 2 * t.k
	var child *node // the slot's node, above the leaf
	for i := len(path) - 1; ; i-- {
		n := path[i]
		if n.len() < t.max {
			n.runs = append(n.runs, r...)
			if n.leaf {
				n.ids = append(n.ids, id)
			} else {
				n.children = append(n.children, child)
			}
			return
		}
		a, b := t.splitNode(n, r, id, child)
		if i == 0 {
			root := newNode(false, 2, w)
			root.runs = root.runs[:2*w]
			a.mbr(root.runs[:w], t.k)
			b.mbr(root.runs[w:], t.k)
			root.children = append(root.children, a, b)
			t.root = root
			return
		}
		parent, s := path[i-1], slots[i-1]
		parent.children[s] = a
		a.mbr(parent.run(s, w), t.k)
		t.up = slices.Grow(t.up[:0], w)[:w]
		b.mbr(t.up, t.k)
		r, child = t.up, b
	}
}

// newNode returns an empty node for slots slots of w floats, with room
// for the next power of two of them: what appending them one at a time
// reaches, so a split node holds no more memory than a node filled by
// appends, and is filled without reallocating.
func newNode(leaf bool, slots, w int) *node {
	room := 1 << bits.Len(uint(slots-1))
	n := &node{leaf: leaf, runs: make([]float64, 0, room*w)}
	if leaf {
		n.ids = make([]int64, 0, room)
	} else {
		n.children = make([]*node, 0, room)
	}
	return n
}

// flatStack is the float count of the stack arrays searches flatten their
// query into; larger queries allocate.
const flatStack = 2 * bbox.FlatRunsHint

// SearchOverlap visits the id of every entry whose box overlaps q. The
// visitor returns false to stop early. It reports the number of tree
// nodes touched (the index-cost metric used by the experiments).
//
//boolq:noalloc
func (t *Tree) SearchOverlap(q bbox.Box, visit func(id int64) bool) int {
	if q.IsEmpty() {
		return 1
	}
	var buf [flatStack]float64
	var f bbox.FlatSpec
	f.K, f.Over = t.k, q.AppendRun(buf[:0])
	return t.search(&f, visit)
}

// SearchSpec visits the id of every entry whose box satisfies the
// combined range spec (containment + overlap constraints), pruning
// subtrees by three sound MBR tests:
//
//   - an entry must contain spec.Lower, so its subtree MBR must too;
//   - an entry must lie inside spec.Upper, so its subtree MBR must
//     overlap spec.Upper;
//   - an entry must overlap each witness c, so its subtree MBR must too.
//
// A spec no stored box can match (bbox.RangeSpec.Flatten) touches
// nothing.
//
//boolq:noalloc
func (t *Tree) SearchSpec(spec bbox.RangeSpec, visit func(id int64) bool) int {
	var buf [flatStack]float64
	f, ok := spec.Flatten(buf[:0])
	if !ok {
		return 0
	}
	return t.search(&f, visit)
}

// search runs a flat query from the root and returns the nodes touched:
// the root, then every child slot considered, pruned or not.
//
//boolq:noalloc
func (t *Tree) search(f *bbox.FlatSpec, visit func(id int64) bool) int {
	touched := 1
	if t.rootRun != nil && f.Admits(t.rootRun[:t.k], t.rootRun[t.k:]) {
		t.searchNode(t.root, f, visit, &touched)
	}
	return touched
}

//boolq:noalloc
func (t *Tree) searchNode(n *node, f *bbox.FlatSpec, visit func(id int64) bool, touched *int) bool {
	k, w := t.k, 2*t.k
	if n.leaf {
		for i, id := range n.ids {
			r := n.runs[i*w : i*w+w]
			if f.Matches(r[:k], r[k:]) && !visit(id) {
				return false
			}
		}
		return true
	}
	for i, c := range n.children {
		*touched++
		r := n.runs[i*w : i*w+w]
		if f.Admits(r[:k], r[k:]) && !t.searchNode(c, f, visit, touched) {
			return false
		}
	}
	return true
}

// All visits every entry. The boxes are fresh copies.
func (t *Tree) All(visit func(Entry) bool) {
	var rec func(n *node) bool
	rec = func(n *node) bool {
		if n.leaf {
			for i, id := range n.ids {
				if !visit(Entry{Box: runBox(n.run(i, 2*t.k), t.k), ID: id}) {
					return false
				}
			}
			return true
		}
		for _, c := range n.children {
			if !rec(c) {
				return false
			}
		}
		return true
	}
	rec(t.root)
}

// checkInvariants verifies structural invariants — every run of an
// internal node is exactly its child's MBR, the root run the root's, and
// all leaves sit at one depth; used by tests.
func (t *Tree) checkInvariants() error {
	w := 2 * t.k
	got := make([]float64, w)
	var rec func(n *node, depth int) (int, error)
	rec = func(n *node, depth int) (int, error) {
		if len(n.runs) != n.len()*w {
			return 0, fmt.Errorf("node holds %d floats for %d slots", len(n.runs), n.len())
		}
		if n.leaf {
			return depth, nil
		}
		if len(n.children) == 0 {
			return 0, fmt.Errorf("internal node with no children")
		}
		first := -1
		for i, c := range n.children {
			if c.len() == 0 {
				return 0, fmt.Errorf("empty child node")
			}
			c.mbr(got, t.k)
			if !slices.Equal(n.run(i, w), got) {
				return 0, fmt.Errorf("run %v is not child MBR %v", n.run(i, w), got)
			}
			d, err := rec(c, depth+1)
			if err != nil {
				return 0, err
			}
			if first < 0 {
				first = d
			} else if d != first {
				return 0, fmt.Errorf("leaves at different depths: %d vs %d", first, d)
			}
		}
		return first, nil
	}
	if t.root.len() == 0 {
		if t.rootRun != nil {
			return fmt.Errorf("empty tree with root run %v", t.rootRun)
		}
	} else if t.root.mbr(got, t.k); !slices.Equal(t.rootRun, got) {
		return fmt.Errorf("root run %v is not root MBR %v", t.rootRun, got)
	}
	_, err := rec(t.root, 0)
	return err
}

// splitNode divides n's slots plus the slot being added — run r with id
// in a leaf, child above — into two new nodes per the configured
// strategy. Slot len(n) is the new one.
func (t *Tree) splitNode(n *node, r []float64, id int64, child *node) (*node, *node) {
	w, m := 2*t.k, n.len()
	runOf := func(i int) []float64 {
		if i == m {
			return r
		}
		return n.run(i, w)
	}
	ga, gb := t.splitGroups(m+1, runOf)
	a, b := newNode(n.leaf, len(ga), w), newNode(n.leaf, len(gb), w)
	for _, g := range [2]struct {
		dst *node
		idx []int
	}{{a, ga}, {b, gb}} {
		for _, i := range g.idx {
			g.dst.runs = append(g.dst.runs, runOf(i)...)
			switch {
			case n.leaf && i == m:
				g.dst.ids = append(g.dst.ids, id)
			case n.leaf:
				g.dst.ids = append(g.dst.ids, n.ids[i])
			case i == m:
				g.dst.children = append(g.dst.children, child)
			default:
				g.dst.children = append(g.dst.children, n.children[i])
			}
		}
	}
	return a, b
}

// splitGroups partitions indices 0..n-1 into two groups using the chosen
// strategy, respecting the minimum fill. The groups live in the tree's
// scratch until the next split.
func (t *Tree) splitGroups(n int, runOf func(int) []float64) ([]int, []int) {
	k := t.k
	var seedA, seedB int
	if t.split == QuadraticSplit {
		seedA, seedB = quadraticSeeds(n, k, runOf)
	} else {
		seedA, seedB = linearSeeds(n, k, runOf)
	}
	ga, gb := append(t.ga[:0], seedA), append(t.gb[:0], seedB)
	boxA, boxB := append(t.boxA[:0], runOf(seedA)...), append(t.boxB[:0], runOf(seedB)...)
	defer func() { t.ga, t.gb, t.boxA, t.boxB = ga, gb, boxA, boxB }()
	for i := 0; i < n; i++ {
		if i == seedA || i == seedB {
			continue
		}
		assigned := len(ga) + len(gb)
		remaining := n - assigned - 1 // not counting i
		switch {
		case len(ga)+remaining+1 <= t.min:
			// Everything left must go to group A to reach minimum fill.
			ga = append(ga, i)
			join(boxA, runOf(i), k)
			continue
		case len(gb)+remaining+1 <= t.min:
			gb = append(gb, i)
			join(boxB, runOf(i), k)
			continue
		}
		dA := enlarge(boxA, runOf(i), k)
		dB := enlarge(boxB, runOf(i), k)
		if dA < dB || (dA == dB && volume(boxA, k) <= volume(boxB, k)) {
			ga = append(ga, i)
			join(boxA, runOf(i), k)
		} else {
			gb = append(gb, i)
			join(boxB, runOf(i), k)
		}
	}
	return ga, gb
}

// quadraticSeeds picks the pair wasting the most volume together
// (Guttman's quadratic PickSeeds).
func quadraticSeeds(n, k int, runOf func(int) []float64) (int, int) {
	sa, sb, worst := 0, 1, 0.0
	first := true
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			bi, bj := runOf(i), runOf(j)
			waste := joinVolume(bi, bj, k) - volume(bi, k) - volume(bj, k)
			if first || waste > worst {
				sa, sb, worst = i, j, waste
				first = false
			}
		}
	}
	return sa, sb
}

// linearSeeds picks the pair with greatest normalized separation along any
// dimension (Guttman's linear PickSeeds).
func linearSeeds(n, k int, runOf func(int) []float64) (int, int) {
	bestSep := 0.0
	bestLo, bestHi := -1, -1
	for d := 0; d < k; d++ {
		hiLo, loHi := 0, 0
		minLo, maxHi := runOf(0)[d], runOf(0)[k+d]
		for i := 1; i < n; i++ {
			b := runOf(i)
			if b[d] > runOf(hiLo)[d] {
				hiLo = i
			}
			if b[k+d] < runOf(loHi)[k+d] {
				loHi = i
			}
			if b[d] < minLo {
				minLo = b[d]
			}
			if b[k+d] > maxHi {
				maxHi = b[k+d]
			}
		}
		width := maxHi - minLo
		if width <= 0 {
			width = 1
		}
		sep := (runOf(hiLo)[d] - runOf(loHi)[k+d]) / width
		if hiLo != loHi && (bestLo < 0 || sep > bestSep) {
			bestSep = sep
			bestLo, bestHi = hiLo, loHi
		}
	}
	if bestLo < 0 || bestLo == bestHi {
		return 0, 1
	}
	return bestLo, bestHi
}
