package graph

// InducedSubgraph returns the subgraph induced by the given vertex ids.
// Vertices are renumbered 0..len(vs)-1 in the order given; labels carry
// over, so identity is preserved across nested inductions. Duplicate ids in
// vs are rejected by panic (they would corrupt the renumbering).
//
// Callers extracting many subgraphs in a loop should reuse a Scratch via
// InducedSubgraphScratch to amortize the renumbering buffers.
func (g *Graph) InducedSubgraph(vs []int) *Graph {
	// A fresh Scratch zeroes two parent-sized arrays; when the subset is
	// far smaller than the parent that dominates the cost of the
	// extraction itself, so renumber through a map instead.
	if 8*len(vs) < g.NumVertices() {
		return g.inducedSubgraphMap(vs)
	}
	var s Scratch
	return g.InducedSubgraphScratch(vs, &s)
}

// inducedSubgraphMap is the extraction path for subsets far smaller than
// the parent: O(len(vs)) auxiliary space instead of O(parent n).
func (g *Graph) inducedSubgraphMap(vs []int) *Graph {
	remap := make(map[int]int, len(vs))
	labels := make([]int64, len(vs))
	ascending := true
	prev := -1
	for i, v := range vs {
		if _, dup := remap[v]; dup {
			panic("graph: duplicate vertex in InducedSubgraph")
		}
		remap[v] = i
		labels[i] = g.labels[v]
		if v < prev {
			ascending = false
		}
		prev = v
	}
	offsets := make([]int, len(vs)+1)
	for i, v := range vs {
		count := 0
		for _, w := range g.edges[g.offsets[v]:g.offsets[v+1]] {
			if _, ok := remap[w]; ok {
				count++
			}
		}
		offsets[i+1] = count
	}
	for i := 0; i < len(vs); i++ {
		offsets[i+1] += offsets[i]
	}
	edges := make([]int, offsets[len(vs)])
	for i, v := range vs {
		out := offsets[i]
		for _, w := range g.edges[g.offsets[v]:g.offsets[v+1]] {
			if j, ok := remap[w]; ok {
				edges[out] = j
				out++
			}
		}
	}
	sg := &Graph{offsets: offsets, edges: edges, labels: labels, m: offsets[len(vs)] / 2}
	if !ascending {
		sg.sortRuns()
	}
	return sg
}

// InducedSubgraphByLabels returns the subgraph induced by the vertices
// with the given labels, ignoring labels not present in the graph. Useful
// for re-extracting a component (e.g. a community returned by an
// enumeration) from the original graph.
func (g *Graph) InducedSubgraphByLabels(labels []int64) *Graph {
	idx := g.LabelIndex()
	vs := make([]int, 0, len(labels))
	seen := make(map[int]bool, len(labels))
	for _, l := range labels {
		if v, ok := idx[l]; ok && !seen[v] {
			seen[v] = true
			vs = append(vs, v)
		}
	}
	return g.InducedSubgraph(vs)
}

// SpanningSubgraph returns a graph on the same vertex set (same ids, same
// labels) containing exactly the given edges. Edges must reference valid
// vertices; duplicates and self-loops are dropped.
func (g *Graph) SpanningSubgraph(edges [][2]int) *Graph {
	offsets, flat, m := buildCSR(g.NumVertices(), func(pair func(u, v int)) {
		for _, e := range edges {
			pair(e[0], e[1])
		}
	})
	labels := append([]int64(nil), g.labels...)
	return &Graph{offsets: offsets, edges: flat, labels: labels, m: m}
}

// RemoveVertices returns the subgraph induced by all vertices not in the
// set, along with the slice of kept original ids (parallel to the new
// numbering).
func (g *Graph) RemoveVertices(remove map[int]bool) (*Graph, []int) {
	kept := make([]int, 0, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		if !remove[v] {
			kept = append(kept, v)
		}
	}
	return g.InducedSubgraph(kept), kept
}

// RemoveEdges returns a graph on the same vertex set with the given edges
// removed. Each edge may be listed in either orientation.
func (g *Graph) RemoveEdges(edges [][2]int) *Graph {
	drop := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		drop[[2]int{u, v}] = true
	}
	n := g.NumVertices()
	offsets := make([]int, n+1)
	flat := make([]int, 0, 2*g.m)
	for u := 0; u < n; u++ {
		offsets[u] = len(flat)
		for _, v := range g.Neighbors(u) {
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			if !drop[[2]int{a, b}] {
				flat = append(flat, v)
			}
		}
	}
	offsets[n] = len(flat)
	labels := append([]int64(nil), g.labels...)
	return &Graph{offsets: offsets, edges: flat, labels: labels, m: len(flat) / 2}
}
