package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/query"
)

// PlanCache is an LRU cache of compiled query plans keyed by the
// normalized query text (lang.Normalize), validated against the store
// epoch the plan was compiled at. A hit skips Parse and Compile — the
// whole §3/§4 pipeline — and goes straight to Plan.RunStream.
//
// Epoch handling: each entry remembers the store generation (bumped when
// the server swaps its store on snapshot load — epochs of different
// stores are not comparable) and the epoch it was compiled at. A lookup
// with a different generation or epoch deletes the entry and reports a
// miss, so a store mutation invalidates every cached plan lazily, without
// a sweep, and an in-flight Put racing a store swap can never be served
// against the new store. A plan depends on the store's data, not only
// its schema: the adaptive planner ranks retrieval orders by the layers'
// statistics and the tuner's epoch-stamped observations, so every
// mutation invalidates it.
type PlanCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheEntry struct {
	text  string
	gen   uint64
	epoch uint64
	plan  *query.Plan
}

// DefaultCacheSize is the plan capacity used when Options.CacheSize ≤ 0.
const DefaultCacheSize = 128

// NewPlanCache returns an empty cache holding up to capacity plans.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &PlanCache{cap: capacity, ll: list.New(), m: map[string]*list.Element{}}
}

// Get returns the plan cached for the normalized text if it was compiled
// at the given store generation and epoch. An entry from another
// generation or an older epoch is evicted and counts as a miss. An entry
// from a NEWER epoch also misses but is left in place: it happens when a
// batch request pinned to a pre-mutation epoch races fresh single-query
// traffic, and evicting would let the stale reader thrash entries the
// live traffic keeps rebuilding.
func (c *PlanCache) Get(text string, gen, epoch uint64) (*query.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[text]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	ent := e.Value.(*cacheEntry)
	if ent.gen != gen || ent.epoch != epoch {
		if ent.gen != gen || ent.epoch < epoch {
			c.ll.Remove(e)
			delete(c.m, text)
		}
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(e)
	c.hits.Add(1)
	return ent.plan, true
}

// Put stores a plan compiled at the given store generation and epoch,
// evicting the least recently used entry when full. A plan compiled at
// an older epoch than the entry already cached is dropped (the
// stale-pinned batch case; see Get).
func (c *PlanCache) Put(text string, gen, epoch uint64, plan *query.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[text]; ok {
		ent := e.Value.(*cacheEntry)
		if ent.gen == gen && ent.epoch > epoch {
			return
		}
		ent.gen, ent.epoch, ent.plan = gen, epoch, plan
		c.ll.MoveToFront(e)
		return
	}
	c.m[text] = c.ll.PushFront(&cacheEntry{text: text, gen: gen, epoch: epoch, plan: plan})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).text)
	}
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cap returns the capacity.
func (c *PlanCache) Cap() int { return c.cap }

// Clear drops all entries (used when the backing store is swapped by a
// snapshot load, since epochs are only comparable within one store).
func (c *PlanCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.m = map[string]*list.Element{}
}

// Hits returns the number of cache hits served.
func (c *PlanCache) Hits() uint64 { return c.hits.Load() }

// Misses returns the number of lookups that required a compile.
func (c *PlanCache) Misses() uint64 { return c.misses.Load() }
