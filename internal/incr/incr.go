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

// vertexHash and edgeHash are the summands of a ComponentKey's hashes:
// one per vertex label, one per edge by its label pair in either order.
func vertexHash(l int64) uint64 { return mix64(uint64(l) + 0x9e3779b97f4a7c15) }

func edgeHash(a, b int64) uint64 {
	if a > b {
		a, b = b, a
	}
	return mix64(mix64(uint64(a)) + 0x9e3779b97f4a7c15*uint64(b))
}

// keyOf computes the structural fingerprint of a component subgraph.
// Hashes accumulate by summation, so the key is independent of vertex
// numbering and edge iteration order.
func keyOf(g *graph.Graph) ComponentKey {
	labels := g.Labels()
	var vh, eh uint64
	for _, l := range labels {
		vh += vertexHash(l)
	}
	offsets, edges := g.Adjacency()
	for u := 0; u < len(labels); u++ {
		for _, w := range edges[offsets[u]:offsets[u+1]] {
			if u < w {
				eh += edgeHash(labels[u], labels[w])
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
	members, keys, peeled := split(g, k)
	var s graph.Scratch
	for _, vs := range members {
		comps = append(comps, extract(g, vs, &s))
	}
	return comps, keys, peeled
}

// split is Partition without the subgraphs: each component comes back as
// its ascending vertex ids in g, and its fingerprint is hashed straight
// from g. The reduced graph is never built, so a caller that reuses most
// components (Run after a local edit) extracts only the ones it
// recomputes. Every pass — the peel, the union-find labelling and the
// hashing — walks g's adjacency forward, so a graph adopted from a cold
// mapped snapshot is read sequentially.
func split(g *graph.Graph, k int) (members [][]int, keys []ComponentKey, peeled int) {
	removed, peeled := kcore.Peel(g, k)
	n := g.NumVertices()
	if peeled == n {
		return nil, nil, peeled
	}

	// Union-find over the surviving edges. Unions link the larger root
	// under the smaller, so every parent is a smaller id of the same
	// component and each root is its component's smallest member.
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = int32(v)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for v := 0; v < n; v++ {
		if removed[v] {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if w > v && !removed[w] {
				if a, b := find(int32(v)), find(int32(w)); a != b {
					parent[max(a, b)] = min(a, b)
				}
			}
		}
	}
	// Number the components by ascending smallest member, the order
	// ConnectedComponents gives. An ascending scan meets a root before the
	// rest of its component and any vertex after its parent, so each
	// vertex's entry is overwritten with -(id+1) and read back through
	// its parent's.
	comp := parent
	var sizes []int
	for v := 0; v < n; v++ {
		if removed[v] {
			continue
		}
		var id int
		if p := parent[v]; p == int32(v) {
			id = len(sizes)
			sizes = append(sizes, 0)
		} else {
			id = int(-comp[p] - 1)
		}
		sizes[id]++
		comp[v] = int32(-id - 1)
	}

	// Members in one flat array, and the fingerprints keyOf would give
	// each extracted component, in one forward pass.
	flat := make([]int, n-peeled)
	members = make([][]int, len(sizes))
	at := 0
	for c, sz := range sizes {
		members[c] = flat[at : at : at+sz]
		at += sz
	}
	keys = make([]ComponentKey, len(sizes))
	labels := g.Labels()
	for v := 0; v < n; v++ {
		if removed[v] {
			continue
		}
		c := -comp[v] - 1
		members[c] = append(members[c], v)
		key := &keys[c]
		key.N++
		key.VertexHash += vertexHash(labels[v])
		for _, w := range g.Neighbors(v) {
			if w > v && !removed[w] {
				key.EdgeHash += edgeHash(labels[v], labels[w])
				key.M++
			}
		}
	}

	// The Definition 2 guard: drop components of at most k vertices.
	kept := 0
	for c := range members {
		if len(members[c]) > k {
			members[kept], keys[kept] = members[c], keys[c]
			kept++
		}
	}
	return members[:kept], keys[:kept], peeled
}

// extract builds the subgraph of g on the ascending ids vs, as a heap
// graph, renumbering through s: the members' runs in g still list their
// peeled neighbours, so a stamp array beats a map even for a small
// component. A component spanning all of g is g itself, copied off a
// mapped snapshot: the other components are heap copies already, and
// the enumeration engine's flow probes must not random-access the
// mapping.
func extract(g *graph.Graph, vs []int, s *graph.Scratch) *graph.Graph {
	if len(vs) == g.NumVertices() {
		return g.Materialize()
	}
	return g.InducedSubgraphScratch(vs, s)
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
	members, keys, peeled := split(g, k)
	stats := &core.Stats{KCorePeeled: int64(peeled)}

	// Split the partition into reusable and to-recompute components; only
	// the latter are extracted.
	slots := make([]*ComponentResult, len(members))
	var batch []*graph.Graph
	var batchIdx []int
	var s graph.Scratch
	for i := range members {
		if cr, ok := prev.lookup(keys[i]); ok {
			stats.ComponentsReused++
			slots[i] = cr
			continue
		}
		batch = append(batch, extract(g, members[i], &s))
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
		for j, i := range batchIdx {
			for _, l := range batch[j].Labels() {
				byLabel[l] = i
			}
		}
		for _, c := range vccs {
			i := byLabel[c.Label(0)]
			slots[i].VCCs = append(slots[i].VCCs, c)
		}
	}
	store := newStore(k, len(members))
	for _, cr := range slots {
		store.add(cr)
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	return store, stats, nil
}
