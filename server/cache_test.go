package server

import (
	"testing"

	"kvcc"
	"kvcc/cohesion"
)

func key(graph string, k int) cacheKey {
	return cacheKey{graph: graph, k: k, algo: kvcc.VCCEStar}
}

func result(k int) *kvcc.Result { return &kvcc.Result{K: k} }

func TestCacheHitMissCounters(t *testing.T) {
	c := newResultCache(4)
	if _, ok := c.get(key("g", 3)); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.put(key("g", 3), result(3))
	if _, ok := c.get(key("g", 3)); !ok {
		t.Fatal("cached entry not found")
	}
	s := c.stats()
	if s.Hits != 1 || s.Misses != 1 || s.Size != 1 {
		t.Fatalf("stats = %+v, want hits=1 misses=1 size=1", s)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := newResultCache(2)
	c.put(key("g", 2), result(2))
	c.put(key("g", 3), result(3))
	// Touch k=2 so k=3 is the least recently used.
	if _, ok := c.get(key("g", 2)); !ok {
		t.Fatal("k=2 missing before eviction")
	}
	c.put(key("g", 4), result(4))

	if _, ok := c.get(key("g", 3)); ok {
		t.Fatal("LRU entry k=3 survived eviction")
	}
	if _, ok := c.get(key("g", 2)); !ok {
		t.Fatal("recently used entry k=2 was evicted")
	}
	if s := c.stats(); s.Evictions != 1 || s.Size != 2 {
		t.Fatalf("stats = %+v, want evictions=1 size=2", s)
	}
}

func TestCachePutRefreshesExisting(t *testing.T) {
	c := newResultCache(2)
	c.put(key("g", 2), result(2))
	c.put(key("g", 2), result(2))
	if s := c.stats(); s.Size != 1 || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want size=1 evictions=0", s)
	}
}

func TestCacheInvalidateGraph(t *testing.T) {
	c := newResultCache(8)
	c.put(key("a", 2), result(2))
	c.put(key("a", 3), result(3))
	c.put(key("b", 2), result(2))
	c.invalidateGraph("a")

	if _, ok := c.get(key("a", 2)); ok {
		t.Fatal("invalidated entry a/2 still present")
	}
	if _, ok := c.get(key("a", 3)); ok {
		t.Fatal("invalidated entry a/3 still present")
	}
	if _, ok := c.get(key("b", 2)); !ok {
		t.Fatal("unrelated graph b was invalidated")
	}
}

func TestCacheKeyDistinguishesAlgorithms(t *testing.T) {
	c := newResultCache(8)
	c.put(cacheKey{graph: "g", k: 3, algo: kvcc.VCCE}, result(3))
	if _, ok := c.get(cacheKey{graph: "g", k: 3, algo: kvcc.VCCEStar}); ok {
		t.Fatal("different algorithm hit the same cache entry")
	}
}

// TestCacheStaleEntries: a query owns one slot whose entry is current or
// stale, and both kinds share one LRU bounded by the capacity. get misses
// a stale entry; put replaces a stale entry but never a newer
// generation's; migrate re-stamps unaffected entries in place, keeps
// affected kvcc entries stale and removes affected entries of other
// measures.
func TestCacheStaleEntries(t *testing.T) {
	at := func(k int, gen uint64, m cohesion.Measure) cacheKey {
		return cacheKey{graph: "g", gen: gen, measure: m, k: k, algo: kvcc.VCCE}
	}
	c := newResultCache(3)
	r2, r3 := result(2), result(3)
	c.put(at(2, 1, cohesion.KVCC), r2)
	c.put(at(3, 1, cohesion.KVCC), r3)
	c.put(at(3, 1, cohesion.KECC), result(3))

	// Generation 1 -> 2 affects k >= 3.
	kept, invalidated := c.migrate("g", 1, 2, func(k int) bool { return k >= 3 })
	if kept != 1 || invalidated != 2 {
		t.Fatalf("migrate kept/invalidated = %d/%d, want 1/2", kept, invalidated)
	}
	if res, ok := c.get(at(2, 2, cohesion.KVCC)); !ok || res != r2 {
		t.Fatal("unaffected entry is not current after migrate")
	}
	if _, ok := c.get(at(3, 2, cohesion.KVCC)); ok {
		t.Fatal("get hit a stale entry")
	}
	if got := c.stale(at(3, 2, cohesion.KVCC)); got != r3 {
		t.Fatal("affected kvcc entry did not stay stale")
	}
	if got := c.stale(at(3, 2, cohesion.KECC)); got != nil {
		t.Fatal("affected kecc entry was kept")
	}
	if s := c.stats(); s.Size != 2 {
		t.Fatalf("size = %d after migrate, want 2 (current k=2, stale k=3)", s.Size)
	}

	// One LRU: the stale k=3 entry is now least recently used, so the
	// second new entry evicts it.
	c.put(at(4, 2, cohesion.KVCC), result(4))
	c.put(at(5, 2, cohesion.KVCC), result(5))
	if got := c.stale(at(3, 2, cohesion.KVCC)); got != nil {
		t.Fatal("stale entry survived eviction; it is not in the shared LRU")
	}
	if s := c.stats(); s.Size != 3 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want size=3 evictions=1", s)
	}

	// A leader pinned to generation 1 never replaces generation 2.
	c.put(at(2, 1, cohesion.KVCC), result(2))
	if res, ok := c.get(at(2, 2, cohesion.KVCC)); !ok || res != r2 {
		t.Fatal("put of an older generation replaced a newer entry")
	}

	// Generation 2 -> 3 affects k = 4 only; the fresh result replaces the
	// stale one in its slot.
	if kept, invalidated := c.migrate("g", 2, 3, func(k int) bool { return k == 4 }); kept != 2 || invalidated != 1 {
		t.Fatalf("migrate kept/invalidated = %d/%d, want 2/1", kept, invalidated)
	}
	fresh := result(4)
	c.put(at(4, 3, cohesion.KVCC), fresh)
	if res, ok := c.get(at(4, 3, cohesion.KVCC)); !ok || res != fresh {
		t.Fatal("put did not replace the stale entry")
	}
	if s := c.stats(); s.Size != 3 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want size=3 evictions=1", s)
	}
}
