// Package incr maintains k-VCC enumeration results incrementally across
// graph mutations.
//
// The load-bearing fact is the paper's containment theorem: every k-VCC
// lies inside the k-core (Theorem 3), and — being k-vertex connected,
// hence connected — inside exactly one connected component of it. The
// k-VCC set of a graph is therefore the disjoint union of the k-VCC sets
// of its k-core connected components, and two structurally identical
// components (same vertex labels, same edge set) have identical k-VCCs.
//
// Run exploits this by storing results per component, keyed by a
// structural fingerprint of the component's labeled vertex and edge sets.
// After an edit, only the components whose structure changed — the ones
// the mutated endpoints merged, grew, shrank or split — miss the store
// and are re-enumerated; everything disjoint from the affected region is
// served verbatim from the previous result. The fingerprint is
// self-validating: there is no separate bookkeeping of which edits
// touched which component, because any structural difference (however it
// arose) changes the key.
package incr

import (
	"context"
	"errors"
	"fmt"

	"kvcc/graph"
	"kvcc/internal/core"
	"kvcc/internal/kcore"
)

// ComponentKey fingerprints one k-core connected component by its labeled
// structure: vertex count, edge count, and order-independent 64-bit
// hashes of the label set and the label-pair edge set. Two components
// compare equal exactly when they have the same vertices (by label) and
// the same edges (up to the negligible probability of a 128-bit-effective
// hash collision); ids are deliberately excluded, so a component keeps
// its key when unrelated edits renumber the surrounding graph.
type ComponentKey struct {
	N, M       int
	VertexHash uint64
	EdgeHash   uint64
}

// mix64 is the splitmix64 finalizer: a cheap bijective scramble whose
// sums stay well distributed, which is what the order-independent
// accumulation below needs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyOf computes the structural fingerprint of a component subgraph.
// Hashes accumulate by summation, so the key is independent of vertex
// numbering and edge iteration order.
func keyOf(g *graph.Graph) ComponentKey {
	labels := g.Labels()
	var vh, eh uint64
	for _, l := range labels {
		vh += mix64(uint64(l) + 0x9e3779b97f4a7c15)
	}
	offsets, edges := g.Adjacency()
	for u := 0; u < len(labels); u++ {
		for _, w := range edges[offsets[u]:offsets[u+1]] {
			if u < w {
				a, b := labels[u], labels[w]
				if a > b {
					a, b = b, a
				}
				eh += mix64(mix64(uint64(a)) + 0x9e3779b97f4a7c15*uint64(b))
			}
		}
	}
	return ComponentKey{N: g.NumVertices(), M: g.NumEdges(), VertexHash: vh, EdgeHash: eh}
}

// ComponentResult is the enumeration outcome for one k-core connected
// component: its k-VCCs in canonical order (possibly none — "this
// component holds no k-VCC" is as reusable a fact as any). Results are
// immutable once stored and may be shared across store generations.
type ComponentResult struct {
	Key  ComponentKey
	VCCs []*graph.Graph
}

// Store holds the per-component results of one enumeration at a fixed k.
// It is the unit of reuse between runs: Run consults a previous store by
// fingerprint and carries matching entries over untouched.
type Store struct {
	// K is the connectivity parameter the store was built for. Reuse
	// across different k is never valid; Run enforces the match.
	K int
	// Components holds one entry per k-core connected component, in
	// partition order.
	Components []*ComponentResult

	byKey map[ComponentKey]*ComponentResult
}

func newStore(k int, capacity int) *Store {
	return &Store{K: k, byKey: make(map[ComponentKey]*ComponentResult, capacity)}
}

func (s *Store) add(cr *ComponentResult) {
	s.Components = append(s.Components, cr)
	if _, dup := s.byKey[cr.Key]; !dup {
		s.byKey[cr.Key] = cr
	}
}

// lookup returns the stored result for a component fingerprint.
func (s *Store) lookup(key ComponentKey) (*ComponentResult, bool) {
	if s == nil {
		return nil, false
	}
	cr, ok := s.byKey[key]
	return cr, ok
}

// Flatten merges every component's k-VCCs into one slice in the global
// canonical order (core.SortComponents), exactly as a monolithic
// enumeration would return them.
func (s *Store) Flatten() []*graph.Graph {
	var out []*graph.Graph
	for _, cr := range s.Components {
		out = append(out, cr.VCCs...)
	}
	core.SortComponents(out)
	return out
}

// Partition reduces g to its k-core and splits the result into connected
// components, returning each component's subgraph (labels preserved)
// alongside its fingerprint, plus the number of vertices peeled away.
// Components with at most k vertices cannot satisfy Definition 2 and are
// dropped (after k-core reduction they cannot occur for k >= 1; the
// filter is a guard).
func Partition(g *graph.Graph, k int) (comps []*graph.Graph, keys []ComponentKey, peeled int) {
	cored, peeled := kcore.Reduce(g, k)
	if cored.NumVertices() == 0 {
		return nil, nil, peeled
	}
	ccs := cored.ConnectedComponents()
	for _, cc := range ccs {
		if len(cc) <= k {
			continue
		}
		var sub *graph.Graph
		if len(ccs) == 1 && cored.NumVertices() == len(cc) {
			// Copy the surviving whole graph off a mapped snapshot: the
			// extracted components below are heap copies already, and the
			// enumeration engine's flow probes must not random-access the
			// mapping. Identity for heap graphs.
			sub = cored.Materialize()
		} else {
			sub = cored.InducedSubgraph(cc)
		}
		comps = append(comps, sub)
		keys = append(keys, keyOf(sub))
	}
	return comps, keys, peeled
}

// Run enumerates the k-VCCs of g component by component, reusing from
// prev (which may be nil, or from any earlier version of the graph —
// staleness is impossible because fingerprints encode the full labeled
// structure) every component whose fingerprint matches. It returns the
// new store and the aggregate statistics of the work actually performed:
// reused components contribute nothing but a ComponentsReused tick, so
// Stats measures the cost of the update, not of the answer.
func Run(ctx context.Context, g *graph.Graph, k int, opts core.Options, prev *Store) (*Store, *core.Stats, error) {
	if g == nil {
		return nil, nil, errors.New("incr: nil graph")
	}
	if k < 1 {
		return nil, nil, fmt.Errorf("incr: k must be >= 1, got %d", k)
	}
	if prev != nil && prev.K != k {
		prev = nil
	}
	comps, keys, peeled := Partition(g, k)
	stats := &core.Stats{KCorePeeled: int64(peeled)}

	// Split the partition into reusable and to-recompute components.
	slots := make([]*ComponentResult, len(comps))
	var batch []*graph.Graph
	var batchIdx []int
	for i := range comps {
		if cr, ok := prev.lookup(keys[i]); ok {
			stats.ComponentsReused++
			slots[i] = cr
			continue
		}
		batch = append(batch, comps[i])
		batchIdx = append(batchIdx, i)
	}

	// Recompute the touched components through one shared driver, so
	// WithParallelism workers balance across all of them exactly as a
	// cold whole-graph run would.
	if len(batch) > 0 {
		vccs, cstats, err := core.EnumerateComponentsContext(ctx, batch, k, opts)
		if err != nil {
			return nil, stats, err
		}
		stats.Add(cstats)
		stats.ComponentsRecomputed += int64(len(batch))
		for _, i := range batchIdx {
			slots[i] = &ComponentResult{Key: keys[i]}
		}
		// Components are label-disjoint, so any one label attributes a
		// k-VCC to its component; the flat result is in canonical order,
		// so per-component orders stay canonical after bucketing.
		byLabel := make(map[int64]int, len(batch))
		for _, i := range batchIdx {
			for _, l := range comps[i].Labels() {
				byLabel[l] = i
			}
		}
		for _, c := range vccs {
			i := byLabel[c.Label(0)]
			slots[i].VCCs = append(slots[i].VCCs, c)
		}
	}
	store := newStore(k, len(comps))
	for _, cr := range slots {
		store.add(cr)
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	return store, stats, nil
}
