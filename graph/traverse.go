package graph

// ConnectedComponents returns the vertex sets of the connected components,
// each sorted ascending. Components are ordered by their smallest vertex.
// One labeling pass plus one ascending layout scan produce both orderings
// for free — no per-component sort.
func (g *Graph) ConnectedComponents() [][]int {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	comp := make([]int, n) // component id per vertex, ids by ascending seed
	for i := range comp {
		comp[i] = -1
	}
	stack := make([]int, 0, n)
	var sizes []int
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := len(sizes)
		comp[s] = id
		size := 1
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(v) {
				if comp[w] < 0 {
					comp[w] = id
					size++
					stack = append(stack, w)
				}
			}
		}
		sizes = append(sizes, size)
	}
	// Lay the members out in one flat array: an ascending vertex scan
	// fills every component in ascending order, and capacity-capped
	// subslices keep the returned sets independent.
	members := make([]int, n)
	starts := make([]int, len(sizes)+1)
	for i, sz := range sizes {
		starts[i+1] = starts[i] + sz
	}
	cursor := append([]int(nil), starts[:len(sizes)]...)
	for v := 0; v < n; v++ {
		id := comp[v]
		members[cursor[id]] = v
		cursor[id]++
	}
	comps := make([][]int, len(sizes))
	for i := range comps {
		comps[i] = members[starts[i]:starts[i+1]:starts[i+1]]
	}
	return comps
}

// IsConnected reports whether the graph is connected. The empty graph is
// not connected; a single vertex is.
func (g *Graph) IsConnected() bool {
	n := g.NumVertices()
	if n == 0 {
		return false
	}
	seen := make([]bool, n)
	seen[0] = true
	stack := []int{0}
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// BFSDistances returns the unweighted shortest-path distance from src to
// every vertex (-1 for unreachable vertices).
func (g *Graph) BFSDistances(src int) []int {
	dist := make([]int, g.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// ConnectedAvoiding reports whether the graph with the vertices in avoid
// removed is still connected (considering only the remaining vertices; a
// remainder of zero vertices counts as disconnected, one vertex as
// connected). This is the defensive check used to validate vertex cuts.
func (g *Graph) ConnectedAvoiding(avoid map[int]bool) bool {
	n := g.NumVertices()
	remaining := n - len(avoid)
	if remaining <= 0 {
		return false
	}
	start := -1
	for v := 0; v < n; v++ {
		if !avoid[v] {
			start = v
			break
		}
	}
	seen := make([]bool, n)
	seen[start] = true
	stack := []int{start}
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if !seen[w] && !avoid[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == remaining
}
