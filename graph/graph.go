package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable undirected simple graph in compressed sparse row
// (CSR) form: one offsets array and one shared flat neighbor array, so a
// graph costs three heap allocations regardless of vertex count and a
// subgraph extraction never allocates per vertex. Construct one with a
// Builder, CSRBuilder, FromEdges, or by inducing a subgraph of an existing
// Graph. The zero value is an empty graph.
type Graph struct {
	offsets []int   // len n+1; the adjacency of v is edges[offsets[v]:offsets[v+1]]
	edges   []int   // flat neighbor storage; every per-vertex run is sorted
	labels  []int64 // labels[v] = stable external identity of vertex v
	m       int     // number of undirected edges

	// external marks arrays adopted from an externally managed region
	// (a read-only mmap; see AdoptCSR). It is false for heap-built graphs,
	// including every subgraph extracted from an external one.
	external bool
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.labels) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return g.offsets[v+1] - g.offsets[v] }

// Neighbors returns the sorted adjacency list of v. The returned slice is
// a subslice of the graph's shared edge array and must not be modified.
func (g *Graph) Neighbors(v int) []int {
	return g.edges[g.offsets[v]:g.offsets[v+1]:g.offsets[v+1]]
}

// Adjacency exposes the raw CSR arrays: offsets of length n+1 and the flat
// neighbor array it indexes (the adjacency of v is
// edges[offsets[v]:offsets[v+1]]). Both slices are shared with the graph
// and must not be modified. Flat access lets algorithm packages index
// per-edge side arrays (edge ids, marks) without nested slices.
func (g *Graph) Adjacency() (offsets, edges []int) { return g.offsets, g.edges }

// Label returns the stable label of vertex v.
func (g *Graph) Label(v int) int64 { return g.labels[v] }

// Labels returns the label slice indexed by vertex. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Labels() []int64 { return g.labels }

// HasEdge reports whether the undirected edge (u,v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	// Search the shorter list.
	a, b := u, v
	if g.Degree(a) > g.Degree(b) {
		a, b = b, a
	}
	list := g.Neighbors(a)
	i := sort.SearchInts(list, b)
	return i < len(list) && list[i] == b
}

// IndexOfLabel returns the vertex whose label is l, or -1 if absent.
// It is a linear scan; callers needing many lookups should build a map once.
func (g *Graph) IndexOfLabel(l int64) int {
	for v, lab := range g.labels {
		if lab == l {
			return v
		}
	}
	return -1
}

// LabelIndex returns a map from label to vertex id.
func (g *Graph) LabelIndex() map[int64]int {
	idx := make(map[int64]int, len(g.labels))
	for v, lab := range g.labels {
		idx[lab] = v
	}
	return idx
}

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < len(g.labels); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// MinDegreeVertex returns the vertex of minimum degree and its degree.
// It returns (-1, 0) for an empty graph.
func (g *Graph) MinDegreeVertex() (v, degree int) {
	if len(g.labels) == 0 {
		return -1, 0
	}
	v = 0
	degree = g.Degree(0)
	for u := 1; u < len(g.labels); u++ {
		if d := g.Degree(u); d < degree {
			v, degree = u, d
		}
	}
	return v, degree
}

// AverageDegree returns 2m/n, or 0 for an empty graph.
func (g *Graph) AverageDegree() float64 {
	if len(g.labels) == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(len(g.labels))
}

// CommonNeighborCount returns |N(u) ∩ N(v)|, stopping early once the count
// reaches limit (limit <= 0 means unbounded). Used by the strong side-vertex
// test (Theorem 8), which only needs to know whether the count reaches k.
func (g *Graph) CommonNeighborCount(u, v, limit int) int {
	a, b := g.Neighbors(u), g.Neighbors(v)
	count, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			count++
			if limit > 0 && count >= limit {
				return count
			}
			i++
			j++
		}
	}
	return count
}

// Edges appends every undirected edge (u,v) with u < v to dst and returns it.
func (g *Graph) Edges(dst [][2]int) [][2]int {
	if dst == nil {
		dst = make([][2]int, 0, g.m)
	}
	for u := 0; u < len(g.labels); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				dst = append(dst, [2]int{u, v})
			}
		}
	}
	return dst
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	return &Graph{
		offsets: append([]int(nil), g.offsets...),
		edges:   append([]int(nil), g.edges...),
		labels:  append([]int64(nil), g.labels...),
		m:       g.m,
	}
}

// Bytes returns a structural estimate of the memory held by the graph:
// CSR offsets, adjacency entries and labels. It is deterministic (unlike
// runtime heap measurements) and is the unit reported by the Fig. 12 memory
// experiment.
func (g *Graph) Bytes() int64 {
	const intSize = 8
	b := int64(len(g.labels)) * (2 * intSize) // labels + offsets entries
	b += int64(2*g.m) * intSize               // adjacency entries
	return b
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumVertices(), g.NumEdges())
}

// FromEdges builds a graph with vertices 0..n-1 (labels equal to vertex ids)
// from an edge list. Self-loops and duplicate edges are discarded. It panics
// if an endpoint is outside [0,n).
func FromEdges(n int, edges [][2]int) *Graph {
	labels := make([]int64, n)
	for v := range labels {
		labels[v] = int64(v)
	}
	offsets, flat, m := buildCSR(n, func(pair func(u, v int)) {
		for _, e := range edges {
			if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
				panic(fmt.Sprintf("graph: edge (%d,%d) outside [0,%d)", e[0], e[1], n))
			}
			pair(e[0], e[1])
		}
	})
	return &Graph{offsets: offsets, edges: flat, labels: labels, m: m}
}

// buildCSR assembles normalized CSR arrays for n vertices without sorting
// any run. Each run of v is split at mid[v] into a low part (neighbours
// below v) and a high part (neighbours above v). The second forEach pass
// writes every pair once, unsorted, into the high part of its smaller
// endpoint. A transpose then walks u in ascending order and appends u to
// the low part of every w in u's high part, so each low part comes out
// sorted; a second transpose walks the sorted low parts the same way and
// rewrites every high part in ascending order. A run is its low part then
// its high part, hence sorted, and one linear compaction drops the
// duplicates. Beside offsets, the fill needs only two n-entry arrays and
// no second copy of the adjacency. forEach must replay the identical
// (u,v) sequence on both invocations; self-loops are dropped here.
//
// This is the construction shared by the callers that hold their whole
// edge list (Builder.Build, FromEdges, SpanningSubgraph). CSRBuilder
// instead places both arcs of each pair as its stream delivers them, so
// it sorts its runs in place (normalizeCSR).
func buildCSR(n int, forEach func(pair func(u, v int))) (offsets, edges []int, m int) {
	offsets = make([]int, n+1)
	split := make([]int, 2*n)
	mid, cur := split[:n], split[n:]
	forEach(func(u, v int) {
		if u == v {
			return
		}
		offsets[u+1]++
		offsets[v+1]++
		mid[max(u, v)]++
	})
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
		mid[v] += offsets[v]
	}
	edges = make([]int, offsets[n])
	copy(cur, mid)
	forEach(func(u, v int) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		edges[cur[u]] = v
		cur[u]++
	})
	copy(cur, offsets[:n])
	for u := 0; u < n; u++ {
		for _, w := range edges[mid[u]:offsets[u+1]] {
			edges[cur[w]] = u
			cur[w]++
		}
	}
	copy(cur, mid)
	for w := 0; w < n; w++ {
		for _, u := range edges[offsets[w]:mid[w]] {
			edges[cur[u]] = w
			cur[u]++
		}
	}
	edges, m = compactCSR(offsets, edges)
	return offsets, edges, m
}

// normalizeCSR sorts each vertex's run in place, then compacts the array
// with compactCSR.
func normalizeCSR(offsets, edges []int) ([]int, int) {
	for v := 0; v+1 < len(offsets); v++ {
		sort.Ints(edges[offsets[v]:offsets[v+1]])
	}
	return compactCSR(offsets, edges)
}

// compactCSR removes duplicates and self-loops from sorted runs in place
// (compacting the shared edge array), rewrites offsets, and returns the
// compacted edge array and the undirected edge count.
func compactCSR(offsets, edges []int) ([]int, int) {
	n := len(offsets) - 1
	write := 0
	for v := 0; v < n; v++ {
		run := edges[offsets[v]:offsets[v+1]]
		newStart := write
		prev := -1
		for _, w := range run {
			if w != prev && w != v {
				edges[write] = w
				write++
				prev = w
			}
		}
		offsets[v] = newStart
	}
	offsets[n] = write
	return edges[:write], write / 2
}
