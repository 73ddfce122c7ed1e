package graph

import "fmt"

// AdoptCSR wraps pre-built CSR arrays as a Graph without copying them.
// This is the zero-copy entry point for the on-disk snapshot store: the
// arrays may live in a read-only mmap'd region, so the Graph (and every
// subgraph extracted from it) must never write to them — which holds for
// the whole package, since a built Graph is immutable.
//
// Only O(1) structural invariants are checked here, so adopting a
// mmap'd billion-edge snapshot does not fault in the file; callers that
// adopt untrusted arrays run ValidateCSR afterwards (the snapshot store
// does, behind a checksum, in its Verify path). The caller keeps
// ownership of whatever backs the slices and must keep it alive (and
// mapped) for the lifetime of the returned Graph.
//
// The returned graph reports External() true: enumeration code treats it
// as demand-paged — sequential scans read it in place, anything with a
// random access pattern copies out first (Materialize).
func AdoptCSR(offsets, edges []int, labels []int64, m int) (*Graph, error) {
	n := len(labels)
	switch {
	case len(offsets) != n+1:
		return nil, fmt.Errorf("graph: adopt: %d offsets for %d vertices (want n+1)", len(offsets), n)
	case offsets[0] != 0:
		return nil, fmt.Errorf("graph: adopt: offsets[0] = %d, want 0", offsets[0])
	case offsets[n] != len(edges):
		return nil, fmt.Errorf("graph: adopt: offsets[n] = %d but %d edge entries", offsets[n], len(edges))
	case len(edges) != 2*m:
		return nil, fmt.Errorf("graph: adopt: %d edge entries for m = %d (want 2m)", len(edges), m)
	}
	return &Graph{offsets: offsets, edges: edges, labels: labels, m: m, external: true}, nil
}

// External reports whether the graph's CSR arrays were adopted from an
// externally managed region (AdoptCSR) rather than built on the heap.
// Subgraphs extracted from an external graph are heap-built and report
// false: extraction is exactly the copy-out boundary.
func (g *Graph) External() bool { return g.external }

// Materialize returns g itself for heap-built graphs, and a heap copy for
// adopted (externally backed) graphs. The flow engine issues random,
// repeated reads (residual BFS/DFS over split-graph arcs), the access
// pattern that thrashes a cold page cache, so every consumer that hands a
// graph to a flow network copies it out first: subgraph extraction
// already builds fresh heap arrays, and the whole-graph-survives-reduction
// case calls Materialize. The shared mapping is then only ever read by
// sequential scans, and the copy's lifetime is detached from the
// mapping's.
func (g *Graph) Materialize() *Graph {
	if !g.external {
		return g
	}
	return g.Clone()
}

// ValidateCSR exhaustively checks the CSR invariants of g in O(n + m):
// monotone offsets, every adjacency run sorted strictly ascending (no
// duplicates), no self-loops, every neighbor in range, and edge symmetry
// (w in N(v) iff v in N(w)). It exists for consumers of AdoptCSR that
// cannot trust their arrays — a snapshot file that passed its checksum
// but was written by a different implementation, say.
func ValidateCSR(g *Graph) error {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: validate: offsets not monotone at vertex %d", v)
		}
		run := g.Neighbors(v)
		prev := -1
		for _, w := range run {
			if w < 0 || w >= n {
				return fmt.Errorf("graph: validate: vertex %d has out-of-range neighbor %d", v, w)
			}
			if w == v {
				return fmt.Errorf("graph: validate: self-loop at vertex %d", v)
			}
			if w <= prev {
				return fmt.Errorf("graph: validate: adjacency of vertex %d not strictly ascending at %d", v, w)
			}
			prev = w
		}
	}
	// Symmetry: every directed entry must have its reverse. Each side is
	// a binary search in a sorted run, so the check is O(m log degree).
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			if !g.HasEdge(w, v) {
				return fmt.Errorf("graph: validate: edge (%d,%d) has no reverse entry", v, w)
			}
		}
	}
	return nil
}
