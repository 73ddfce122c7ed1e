package graph

import "sort"

// Scratch holds the renumbering buffers used by repeated subgraph
// extraction so that a hot loop (k-core peeling, overlapped partition)
// reuses one pair of arrays instead of rebuilding a map per call. The
// buffers are generation-stamped: resetting between calls is O(1), not
// O(n). The zero value is ready to use. A Scratch is not safe for
// concurrent use; give each worker its own.
type Scratch struct {
	remap []int   // remap[old] = new vertex id, valid iff stamp[old] == gen
	stamp []int64 // generation stamp per original vertex
	gen   int64

	// BFS state for BFSDistancesScratch.
	dist  []int
	queue []int

	blocks blockScratch // BiconnectedBlocks state
	sides  sideScratch  // CutSidesScratch state
}

// grow ensures the buffers cover n original vertices. Growing replaces the
// arrays, which implicitly invalidates all stamps.
func (s *Scratch) grow(n int) {
	if len(s.remap) < n {
		s.remap = make([]int, n)
		s.stamp = make([]int64, n)
		s.gen = 0
	}
}

// InducedSubgraphScratch is InducedSubgraph using s for the old→new vertex
// renumbering, so one extraction costs exactly three allocations (offsets,
// edges, labels) once the scratch has warmed up to the parent graph size.
func (g *Graph) InducedSubgraphScratch(vs []int, s *Scratch) *Graph {
	s.grow(g.NumVertices())
	s.gen++
	labels := make([]int64, len(vs))
	ascending := true
	prev := -1
	for i, v := range vs {
		if s.stamp[v] == s.gen {
			panic("graph: duplicate vertex in InducedSubgraph")
		}
		s.stamp[v] = s.gen
		s.remap[v] = i
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
			if s.stamp[w] == s.gen {
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
			if s.stamp[w] == s.gen {
				edges[out] = s.remap[w]
				out++
			}
		}
	}
	sg := &Graph{offsets: offsets, edges: edges, labels: labels, m: offsets[len(vs)] / 2}
	if !ascending {
		// Source runs are sorted by old id; a non-monotone renumbering
		// breaks that order, so re-sort each run. When vs is ascending the
		// renumbering is monotone and the runs are already sorted.
		sg.sortRuns()
	}
	return sg
}

func (g *Graph) sortRuns() {
	for v := 0; v < len(g.labels); v++ {
		sort.Ints(g.edges[g.offsets[v]:g.offsets[v+1]])
	}
}

// BFSDistancesScratch is BFSDistances using s's buffers: the returned
// distance slice is owned by the scratch and valid only until the next
// BFSDistancesScratch call with the same s. Hot loops that order vertices
// by distance once per component use this to avoid one O(n) allocation
// per call.
func (g *Graph) BFSDistancesScratch(src int, s *Scratch) []int {
	n := g.NumVertices()
	if cap(s.dist) < n {
		s.dist = make([]int, n)
	}
	dist := s.dist[:n]
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	if cap(s.queue) < n {
		s.queue = make([]int, 0, n)
	}
	queue := append(s.queue[:0], src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Neighbors(v) {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	s.queue = queue
	return dist
}
