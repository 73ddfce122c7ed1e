package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable undirected simple graph in compressed sparse row
// (CSR) form: one offsets array and one shared flat neighbor array, so a
// graph costs three heap allocations regardless of vertex count and a
// subgraph extraction never allocates per vertex. Construct one with
// FromEdges, FromLabeledEdges, a CSRBuilder, or by inducing a subgraph of
// an existing Graph. The zero value is an empty graph.
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
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) outside [0,%d)", e[0], e[1], n))
		}
	}
	labels := make([]int64, n)
	for v := range labels {
		labels[v] = int64(v)
	}
	offsets, flat, m := fillPairs(n, edges, nil)
	return &Graph{offsets: offsets, edges: flat, labels: labels, m: m}
}

// FillScratch carries the CSR fill's arrays across SpanningSubgraphScratch
// calls. The zero value is ready to use; a FillScratch is not safe for
// concurrent use.
type FillScratch struct {
	offsets, mid, cursors, edges []int
}

// reuse returns (*buf)[:n], reallocating *buf when it is too short.
// Reused entries keep their old values.
func reuse(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

// fillPairs runs the CSR fill over vertex-id pairs in [0,n), dropping
// self-loops. It serves the constructors that hold their whole edge list
// (FromEdges, SpanningSubgraphScratch). With a non-nil s the fill works in s's
// arrays, and the returned offsets and edges are backed by them.
func fillPairs(n int, pairs [][2]int, s *FillScratch) (offsets, edges []int, m int) {
	f := csrFill{scratch: s}
	if s == nil {
		f.offsets, f.mid = make([]int, n+1), make([]int, n)
	} else {
		f.offsets, f.mid = reuse(&s.offsets, n+1), reuse(&s.mid, n)
		clear(f.offsets)
		clear(f.mid)
	}
	for _, e := range pairs {
		if e[0] != e[1] {
			f.count(e[0], e[1])
		}
	}
	f.begin()
	for _, e := range pairs {
		if e[0] != e[1] {
			f.place(e[0], e[1])
		}
	}
	return f.finish()
}

// csrFill assembles normalized CSR arrays without sorting any run; it is
// the only CSR fill in this package. Each run of v is split at mid[v]
// into a low part (neighbours below v) and a high part (neighbours above
// v). The counting pass sizes both parts. The placement pass writes every
// pair once, unsorted, into the high part of its smaller endpoint. A
// transpose then walks u in ascending order and appends u to the low part
// of every w in u's high part, so each low part comes out sorted; a second
// transpose walks the sorted low parts the same way and rewrites every
// high part in ascending order. A run is its low part then its high part,
// hence sorted, and one linear compaction drops the duplicates. Beside
// offsets and mid, the fill needs only two n-entry cursor arrays and no
// second copy of the adjacency. Callers drop self-loops before count and
// place.
type csrFill struct {
	offsets []int // counting: offsets[v+1] is v's degree; then run bounds
	mid     []int // counting: v's lower-neighbour count; then where v's high part starts
	hi, lo  []int // placement: next free slot of v's high part; fill mark of v's low part
	edges   []int

	counted, placed int // pairs accepted by each pass

	scratch *FillScratch // if set, begin takes edges and cursors from it
}

func (f *csrFill) count(u, v int) {
	f.offsets[u+1]++
	f.offsets[v+1]++
	f.mid[max(u, v)]++
	f.counted++
}

// begin turns the counts into run bounds and sizes the edge array.
func (f *csrFill) begin() {
	n := len(f.mid)
	for v := 0; v < n; v++ {
		f.offsets[v+1] += f.offsets[v]
		f.mid[v] += f.offsets[v]
	}
	var cursors []int
	if s := f.scratch; s != nil {
		f.edges, cursors = reuse(&s.edges, f.offsets[n]), reuse(&s.cursors, 2*n)
	} else {
		f.edges, cursors = make([]int, f.offsets[n]), make([]int, 2*n)
	}
	f.hi, f.lo = cursors[:n], cursors[n:]
	copy(f.hi, f.mid)
	copy(f.lo, f.offsets[:n])
}

// place writes the pair into the high part of its smaller endpoint and
// reserves a slot in the low part of its larger one. It reports false,
// writing nothing, when either part is already full: the placement pass
// diverged from the counting pass, and filling on would overrun a
// neighbouring run.
func (f *csrFill) place(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	if f.hi[u] >= f.offsets[u+1] || f.lo[v] >= f.mid[v] {
		return false
	}
	f.edges[f.hi[u]] = v
	f.hi[u]++
	f.lo[v]++
	f.placed++
	return true
}

// finish runs the two transposes and the compaction. Every part must be
// exactly full: placed == counted with no rejected pair guarantees it.
func (f *csrFill) finish() (offsets, edges []int, m int) {
	offsets, edges, mid, cur := f.offsets, f.edges, f.mid, f.lo
	n := len(mid)
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
