package query

import (
	"math"

	"repro/internal/spatialdb"
)

// SuggestOrder reorders the query's retrieval bindings with a greedy
// selectivity heuristic and returns the reordered copy. The paper picks
// its retrieval order "arbitrarily" (§2); the order strongly affects how
// early the triangular form can prune, so this planner prefers, at each
// position, the variable that is
//
//  1. most connected to what is already bound (parameters and earlier
//     variables) — more binding constraints mean a tighter range query —
//     and among equally connected variables,
//  2. drawn from the smallest layer (fewer candidates to extend).
//
// The heuristic needs only the store's layer sizes, no data statistics,
// which is why CompileAdaptive keeps it as the fallback for queries with
// too many retrieval variables to enumerate. Experiment E12 measures it
// against all permutations.
func SuggestOrder(q *Query, store *spatialdb.Store) *Query {
	if len(q.Retrieve) < 2 {
		return q
	}
	// Variable ids per binding and the parameter set.
	ids := make([]int, len(q.Retrieve))
	for i, b := range q.Retrieve {
		ids[i], _ = q.Sys.Vars.Lookup(b.Var)
	}
	bound := map[int]bool{}
	for _, p := range paramIDs(q) {
		bound[p] = true
	}

	// Layer sizes, read once under the guard (and without store.Layer,
	// which would create layers the query merely names). A missing layer
	// must plan as infinitely large, not zero: size 0 would make it
	// maximally attractive to the greedy order, silently front-loading a
	// step that can only fail. Compile rejects the query anyway; until
	// then the order keeps the existing layers' ranking intact.
	sizes := make([]int, len(q.Retrieve))
	store.RLock()
	for i, b := range q.Retrieve {
		if l, ok := store.LayerIfExists(b.Layer); ok {
			sizes[i] = l.Len()
		} else {
			sizes[i] = math.MaxInt
		}
	}
	store.RUnlock()

	remaining := make([]int, len(ids)) // indices into q.Retrieve
	for i := range remaining {
		remaining[i] = i
	}
	var orderIdx []int
	for len(remaining) > 0 {
		bestPos, bestConn, bestSize := -1, -1, 0
		for pos, ri := range remaining {
			v := ids[ri]
			conn := connectivity(q, v, bound)
			size := sizes[ri]
			better := conn > bestConn ||
				(conn == bestConn && size < bestSize) ||
				(conn == bestConn && size == bestSize && bestPos > pos)
			if bestPos < 0 || better {
				bestPos, bestConn, bestSize = pos, conn, size
			}
		}
		ri := remaining[bestPos]
		orderIdx = append(orderIdx, ri)
		bound[ids[ri]] = true
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
	}

	out := &Query{Sys: q.Sys}
	for _, ri := range orderIdx {
		out.Retrieve = append(out.Retrieve, q.Retrieve[ri])
	}
	return out
}

// connectivity counts constraints that mention v and otherwise only bound
// variables — the constraints that become range-query content when v is
// retrieved next.
func connectivity(q *Query, v int, bound map[int]bool) int {
	n := 0
	for _, c := range q.Sys.Cons {
		usesV := c.Lhs.Uses(v) || c.Rhs.Uses(v)
		if !usesV {
			continue
		}
		grounded := true
		for _, fv := range append(c.Lhs.FreeVars(), c.Rhs.FreeVars()...) {
			if fv != v && !bound[fv] {
				grounded = false
				break
			}
		}
		if grounded {
			n++
		}
	}
	return n
}

// permRank is perm's position in the enumeration CompileAdaptive's tie
// rule follows: position 0 chooses first, and each position k chooses
// among the bindings not yet placed in the order a swap-based generator
// meets them — swap cur[k] with cur[k], cur[k+1], …, recurse, swap back.
// perm is a permutation of 0..len(perm)-1, len(perm) ≤ maxAdaptivePermute.
func permRank(perm []int) int {
	var cur [maxAdaptivePermute]int
	n := len(perm)
	for i := range n {
		cur[i] = i
	}
	rank := 0
	for k := range n {
		i := k
		for cur[i] != perm[k] {
			i++
		}
		rank = rank*(n-k) + i - k
		cur[k], cur[i] = cur[i], cur[k]
	}
	return rank
}
