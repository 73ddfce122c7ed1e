package graph

// Paging hooks for graphs whose CSR arrays live in an externally managed
// region — in practice the store package's read-only mmap of a snapshot
// file. A heap-built Graph ignores everything here; an adopted one can be
// given an Advisor, and the enumeration layers volunteer their access
// intent (sequential reduction scan, next component's range) through the
// Advise methods without knowing whether anything is listening. The
// advisor translates those hints into madvise calls on the mapping.
//
// The second half of the contract is Materialize: the flow engine issues
// random, repeated reads (residual BFS/DFS over split-graph arcs), the
// exact access pattern that thrashes a cold page cache. Every consumer
// that hands a graph to a flow network therefore materializes it first —
// subgraph extraction already copies into fresh heap arrays, and the
// whole-graph-survives-reduction case calls Materialize explicitly — so
// the shared mapping is only ever read by sequential scans.

// Advisor receives paging hints for an adopted Graph. Implementations
// must be safe for concurrent use: parallel enumeration workers may
// advise overlapping ranges. Hints are best-effort — they never affect
// results, only page-cache behavior.
type Advisor interface {
	// Sequential hints that the adjacency array is about to be scanned
	// once in ascending vertex order (a k-core reduction pass).
	Sequential()
	// WillNeed hints that the adjacency runs of vertices lo..hi
	// (inclusive) are about to be read — the byte range backing
	// edges[offsets[lo]:offsets[hi+1]] should be faulted in ahead of the
	// scan.
	WillNeed(lo, hi int)
}

// External reports whether the graph's CSR arrays were adopted from an
// externally managed region (AdoptCSR) rather than built on the heap.
// Subgraphs extracted from an external graph are heap-built and report
// false: extraction is exactly the copy-out boundary.
func (g *Graph) External() bool { return g.external }

// SetAdvisor attaches a paging advisor to an adopted graph. It is a no-op
// on heap-built graphs: there is no mapping to advise. Call it once,
// before the graph is shared; the advisor itself must be concurrency-safe.
func (g *Graph) SetAdvisor(a Advisor) {
	if g.external {
		g.advisor = a
	}
}

// AdviseSequential forwards the sequential-scan hint to the advisor, if
// any. Safe (and free) on any graph.
func (g *Graph) AdviseSequential() {
	if g.advisor != nil {
		g.advisor.Sequential()
	}
}

// AdviseWillNeed forwards a vertex-range readahead hint to the advisor,
// if any. lo..hi is inclusive and is clamped by the advisor; out-of-range
// values are tolerated. Safe (and free) on any graph.
func (g *Graph) AdviseWillNeed(lo, hi int) {
	if g.advisor != nil {
		g.advisor.WillNeed(lo, hi)
	}
}

// Materialize returns g itself for heap-built graphs, and a heap copy for
// adopted (externally backed) graphs. It is the copy-out step for code
// about to issue random repeated reads — flow networks, principally —
// that must not fault on the shared mapping; the copy also detaches the
// result's lifetime from the mapping's.
func (g *Graph) Materialize() *Graph {
	if !g.external {
		return g
	}
	return g.Clone()
}
