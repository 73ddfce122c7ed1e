package server

import (
	"container/list"
	"sync"

	"kvcc"
	"kvcc/cohesion"
)

// cacheKey identifies one enumeration: a named graph at a specific
// registration generation, the cohesion measure, the connectivity
// parameter, and the algorithm variant. Two requests with the same key are
// guaranteed the same result because every loaded graph is immutable and
// all four variants are exact (they differ only in pruning). The
// generation ties the key to one AddGraph or Edits call, so an enumeration
// still in flight when its graph is replaced can never serve (or cache)
// results under the new graph's name. The measure's zero value is
// cohesion.KVCC, so every key minted before the measure field existed
// keeps its identity.
type cacheKey struct {
	graph   string
	gen     uint64
	measure cohesion.Measure
	k       int
	algo    kvcc.Algorithm
}

// slot returns the key with its generation cleared: the one cache slot
// its query owns at every generation.
func (k cacheKey) slot() cacheKey {
	k.gen = 0
	return k
}

// resultCache is a thread-safe LRU cache of enumeration results with one
// slot per (graph, measure, k, algorithm). A slot's entry carries the
// generation it was computed on: it is current while that generation is
// the graph's, and stale once an edit batch that affected its k has
// installed a newer one. Only kvcc entries are kept stale (see migrate);
// a stale entry never answers get, but it seeds the next incremental
// enumeration of its query and is the degraded answer when fresh compute
// cannot run. Entries are counted, not sized: a *kvcc.Result shares
// subgraph storage with the enumeration that produced it, so entry count
// is the knob the operator reasons about. Current and stale entries share
// the one capacity.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List                 // front = most recently used
	entries  map[cacheKey]*list.Element // keyed by cacheKey.slot()

	hits      int64
	misses    int64
	evictions int64
}

// cacheEntry is one slot's content; key.gen is the generation res was
// computed on.
type cacheEntry struct {
	key cacheKey
	res *kvcc.Result
}

func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[cacheKey]*list.Element, capacity),
	}
}

// current returns key's result if its slot holds key's generation,
// promoting it to most recently used. Callers hold c.mu.
func (c *resultCache) current(key cacheKey) (*kvcc.Result, bool) {
	el, ok := c.entries[key.slot()]
	if !ok || el.Value.(*cacheEntry).key.gen != key.gen {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// get returns the cached result for key, promoting it to most recently
// used, and records a hit or miss. A stale entry is a miss.
func (c *resultCache) get(key cacheKey) (*kvcc.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.current(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return res, ok
}

// getIfPresent returns the cached result, promoting it and counting a hit
// when present, but — unlike get — not counting a miss when absent. Used
// by the flight leader's double-check: a caller that misses the cache and
// then wins the flight race after another leader already finished must
// not recompute, and should be accounted as the cache hit it effectively
// is (its earlier miss was already counted by get).
func (c *resultCache) getIfPresent(key cacheKey) (*kvcc.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.current(key)
	if ok {
		c.hits++
	}
	return res, ok
}

// stale returns the result in key's slot when it was computed on an
// older generation than key's, without promoting or counting it.
func (c *resultCache) stale(key cacheKey) *kvcc.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key.slot()]; ok && el.Value.(*cacheEntry).key.gen < key.gen {
		return el.Value.(*cacheEntry).res
	}
	return nil
}

// put stores res in key's slot, replacing an entry of key's or an older
// generation but never a newer one (a leader pinned to a retired
// generation must not overwrite the current result), and evicts the least
// recently used entry when over capacity.
func (c *resultCache) put(key cacheKey, res *kvcc.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key.slot()]; ok {
		entry := el.Value.(*cacheEntry)
		if entry.key.gen > key.gen {
			return
		}
		entry.key, entry.res = key, res
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key.slot()] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key.slot())
		c.evictions++
	}
}

// migrate moves the named graph's cache from oldGen to newGen in place.
// An entry of oldGen at a k the affected predicate does not flag is
// provably identical on the new snapshot, so it is re-stamped with newGen
// and keeps serving with its LRU position intact (kept). An affected one
// (invalidated) goes stale: a kvcc entry stays in its slot to seed the
// incremental path, an entry of another measure is removed — as is any
// older non-kvcc entry. Entries newer than oldGen were computed on the
// just-installed snapshot (a fast flight leader can beat this migration)
// and are already current. This is the version-scoped invalidation behind
// Edits.
func (c *resultCache) migrate(name string, oldGen, newGen uint64, affected func(k int) bool) (kept, invalidated int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for slot, el := range c.entries {
		entry := el.Value.(*cacheEntry)
		if slot.graph != name || entry.key.gen > oldGen {
			continue
		}
		if entry.key.gen == oldGen {
			if !affected(slot.k) {
				entry.key.gen = newGen
				kept++
				continue
			}
			invalidated++
		}
		if slot.measure != kvcc.MeasureKVCC {
			c.ll.Remove(el)
			delete(c.entries, slot)
		}
	}
	return kept, invalidated
}

// invalidateGraph drops every entry computed on the named graph, stale
// ones included. Called when a graph is replaced or removed at runtime.
func (c *resultCache) invalidateGraph(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for slot, el := range c.entries {
		if slot.graph == name {
			c.ll.Remove(el)
			delete(c.entries, slot)
		}
	}
}

// CacheStats is a point-in-time snapshot of the cache counters. Size
// counts current and stale entries alike.
type CacheStats struct {
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
