// Package kcore implements k-core decomposition and reduction.
//
// A k-core is a maximal subgraph in which every vertex has degree at least
// k. By Whitney's theorem (Theorem 3 in the paper) every k-VCC and every
// k-ECC is contained in a k-core, so reducing a graph to its k-core is the
// first pruning step of KVCC-ENUM (Algorithm 1, line 2) and of the k-ECC
// baseline.
package kcore

import (
	"sort"

	"kvcc/graph"
)

// CoreNumbers computes the core number of every vertex with the
// Batagelj–Zaversnik bucket-peeling algorithm in O(n + m) time. The core
// number of v is the largest k such that v belongs to a k-core.
func CoreNumbers(g *graph.Graph) []int {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort vertices by degree.
	bin := make([]int, maxDeg+2)
	for v := 0; v < n; v++ {
		bin[deg[v]]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		count := bin[d]
		bin[d] = start
		start += count
	}
	vert := make([]int, n) // vertices in ascending degree order
	pos := make([]int, n)  // position of each vertex in vert
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = v
		bin[deg[v]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	core := deg // reuse: after peeling, deg[v] is the core number
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, w := range g.Neighbors(v) {
			if core[w] > core[v] {
				// Move w to the front of its degree bucket, then shrink
				// its degree by one.
				dw := core[w]
				pw := pos[w]
				ps := bin[dw]
				s := vert[ps]
				if s != w {
					vert[ps], vert[pw] = w, s
					pos[w], pos[s] = ps, pw
				}
				bin[dw]++
				core[w]--
			}
		}
	}
	return core
}

// Reduce returns the subgraph induced by all vertices of core number >= k
// (the union of all k-cores), along with the number of vertices peeled
// away. The result may be empty or disconnected.
func Reduce(g *graph.Graph, k int) (*graph.Graph, int) {
	return ReduceScratch(g, k, nil)
}

// ReduceScratch is Reduce reusing the given subgraph-extraction scratch
// (nil is allowed), for callers that peel in a hot loop. The peel itself
// is Peel's.
func ReduceScratch(g *graph.Graph, k int, s *graph.Scratch) (*graph.Graph, int) {
	if k <= 0 {
		return g, 0
	}
	removed, peeled := Peel(g, k)
	if peeled == 0 {
		return g, 0
	}
	n := g.NumVertices()
	kept := make([]int, 0, n-peeled)
	for v := 0; v < n; v++ {
		if !removed[v] {
			kept = append(kept, v)
		}
	}
	if s == nil {
		return g.InducedSubgraph(kept), peeled
	}
	return g.InducedSubgraphScratch(kept, s), peeled
}

// Peel marks the vertices of g outside its k-core (core number < k) and
// returns the mask with their count, without building the reduced graph.
// For k <= 0 nothing is peeled.
//
// Peeling proceeds in waves, each wave processed in ascending vertex id:
// the k-core is unique whatever the removal order (peeling is confluent),
// so the result is identical to the classic stack-driven loop, but every
// adjacency read walks the flat edges array forward. On a graph adopted
// from a cold mmap'd snapshot this turns the first reduction — the one
// pass that must touch the whole graph — into a sequential scan instead
// of a page-cache-thrashing recursion.
func Peel(g *graph.Graph, k int) (removed []bool, peeled int) {
	n := g.NumVertices()
	removed = make([]bool, n)
	if k <= 0 {
		return removed, 0
	}
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v) // offsets-only read: sequential, cheap
		if deg[v] < k {
			peeled++
		}
	}
	// The first wave is sized exactly; later waves reuse its array.
	wave, next := make([]int, 0, peeled), []int(nil)
	for v := 0; v < n; v++ {
		if deg[v] < k {
			removed[v] = true
			wave = append(wave, v) // ascending by construction
		}
	}
	for len(wave) > 0 {
		next = next[:0]
		for _, v := range wave {
			for _, w := range g.Neighbors(v) {
				if removed[w] {
					continue
				}
				deg[w]--
				if deg[w] < k {
					removed[w] = true
					next = append(next, w)
					peeled++
				}
			}
		}
		// Cascade waves are tiny compared to the first one; sorting keeps
		// their reads forward-moving too.
		sort.Ints(next)
		wave, next = next, wave
	}
	return removed, peeled
}

// Components returns the connected components of the k-core of g, each as
// its own graph (labels preserved). Components with k or fewer vertices are
// still returned; callers that need the "more than k vertices" guarantee of
// Definition 2 filter themselves (a component of a k-core automatically has
// at least k+1 vertices when k >= 1).
func Components(g *graph.Graph, k int) []*graph.Graph {
	core, _ := Reduce(g, k)
	var out []*graph.Graph
	for _, comp := range core.ConnectedComponents() {
		out = append(out, core.InducedSubgraph(comp))
	}
	return out
}
