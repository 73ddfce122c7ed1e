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

// blockScratch holds the Hopcroft–Tarjan state of BiconnectedBlocks and
// the block layout it returns.
type blockScratch struct {
	disc, low, pos, owner, firstHead []int // per vertex
	path, pending                    []int // DFS path; visited vertices awaiting their block
	size, nextHead                   []int // per block
	starts, members                  []int
	blocks                           [][]int
}

// BiconnectedBlocks returns the biconnected blocks of g, the maximal
// subgraphs without a cut vertex, in one iterative Hopcroft–Tarjan pass.
// The blocks of connected component c are blocks[starts[c]:starts[c+1]];
// components are ordered by their smallest vertex, and a component is a
// single block exactly when it has no cut vertex. Every edge lies in one
// block, a bridge is a two-vertex block, an isolated vertex a one-vertex
// block, and two blocks share at most one vertex, a cut vertex. Each block
// is sorted ascending, and blocks are ordered as the DFS from the
// component's smallest vertex closes them. The returned slices are owned
// by s and valid until the next BiconnectedBlocks call with s.
func (g *Graph) BiconnectedBlocks(s *Scratch) (blocks [][]int, starts []int) {
	n := g.NumVertices()
	b := &s.blocks
	disc := reuse(&b.disc, n) // discovery time, -1 until visited
	low := reuse(&b.low, n)
	pos := reuse(&b.pos, n)     // next adjacency position to scan
	owner := reuse(&b.owner, n) // the block v was closed into; -1 for DFS roots
	firstHead := reuse(&b.firstHead, n)
	for v := range disc {
		disc[v], firstHead[v] = -1, -1
	}
	// A block is its closing vertex u (the cut vertex or root it hangs
	// from) plus the pending vertices popped when it closes; every other
	// vertex is popped exactly once. The blocks u closes are chained
	// through firstHead[u] and nextHead.
	size, nextHead, starts := b.size[:0], b.nextHead[:0], b.starts[:0]
	path, pending := b.path[:0], b.pending[:0]
	clock := 0
	for r := 0; r < n; r++ {
		if disc[r] >= 0 {
			continue
		}
		starts = append(starts, len(size))
		disc[r], low[r], pos[r], owner[r] = clock, clock, g.offsets[r], -1
		clock++
		path = append(path, r)
		for len(path) > 0 {
			v := path[len(path)-1]
			if pos[v] < g.offsets[v+1] {
				w := g.edges[pos[v]]
				pos[v]++
				if disc[w] < 0 {
					disc[w], low[w], pos[w] = clock, clock, g.offsets[w]
					clock++
					path = append(path, w)
					pending = append(pending, w)
				} else if disc[w] < low[v] {
					// The tree edge back to the parent counts too: it can
					// lower low[v] only to disc[parent], which the cut
					// test below still accepts.
					low[v] = disc[w]
				}
				continue
			}
			path = path[:len(path)-1]
			if len(path) == 0 {
				break
			}
			u := path[len(path)-1]
			low[u] = min(low[u], low[v])
			if low[v] >= disc[u] {
				// No edge leaves v's subtree above u: the subtree's
				// pending vertices and u close one block.
				id := len(size)
				count := 1
				for {
					x := pending[len(pending)-1]
					pending = pending[:len(pending)-1]
					owner[x] = id
					count++
					if x == v {
						break
					}
				}
				size = append(size, count)
				nextHead = append(nextHead, firstHead[u])
				firstHead[u] = id
			}
		}
		if len(size) == starts[len(starts)-1] {
			owner[r] = len(size) // isolated vertex
			size = append(size, 1)
			nextHead = append(nextHead, -1)
		}
	}
	starts = append(starts, len(size))
	// One ascending vertex scan lays every block out sorted, each in its
	// capacity-capped window of one flat array.
	total := 0
	for _, c := range size {
		total += c
	}
	members := reuse(&b.members, total)
	blocks = b.blocks[:0]
	off := 0
	for _, c := range size {
		blocks = append(blocks, members[off:off:off+c])
		off += c
	}
	for v := 0; v < n; v++ {
		if id := owner[v]; id >= 0 {
			blocks[id] = append(blocks[id], v)
		}
		for id := firstHead[v]; id >= 0; id = nextHead[id] {
			blocks[id] = append(blocks[id], v)
		}
	}
	b.size, b.nextHead, b.starts, b.path, b.pending, b.blocks = size, nextHead, starts, path, pending, blocks
	return blocks, starts
}

// sideScratch holds the search stack and the side layout of
// CutSidesScratch.
type sideScratch struct {
	stack, size, members []int
	sides                [][]int
}

// CutSidesScratch returns, for every connected component C of g − cut, the
// vertex set C ∪ cut sorted ascending: the sides of an overlapped
// partition. Sides are ordered by their smallest vertex outside the cut.
// The vertices of cut must be distinct. The search marks vertices with s's
// renumbering stamps and lays the sides out in buffers of their own, so
// InducedSubgraphScratch calls with s leave the sides intact; the returned
// slices are owned by s and valid until the next CutSidesScratch call
// with s.
func (g *Graph) CutSidesScratch(cut []int, s *Scratch) [][]int {
	n := g.NumVertices()
	s.grow(n)
	s.gen++
	b := &s.sides
	// remap holds each reached vertex's side id, and -1 for the cut.
	for _, v := range cut {
		s.stamp[v], s.remap[v] = s.gen, -1
	}
	size, stack := b.size[:0], b.stack[:0]
	for r := 0; r < n; r++ {
		if s.stamp[r] == s.gen {
			continue
		}
		id := len(size)
		s.stamp[r], s.remap[r] = s.gen, id
		count := 1
		stack = append(stack[:0], r)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.edges[g.offsets[v]:g.offsets[v+1]] {
				if s.stamp[w] != s.gen {
					s.stamp[w], s.remap[w] = s.gen, id
					count++
					stack = append(stack, w)
				}
			}
		}
		size = append(size, count+len(cut))
	}
	// One ascending vertex scan lays every side out sorted, each in its
	// capacity-capped window of one flat array; a cut vertex joins all.
	total := 0
	for _, c := range size {
		total += c
	}
	members := reuse(&b.members, total)
	sides := b.sides[:0]
	off := 0
	for _, c := range size {
		sides = append(sides, members[off:off:off+c])
		off += c
	}
	for v := 0; v < n; v++ {
		if id := s.remap[v]; id >= 0 {
			sides[id] = append(sides[id], v)
			continue
		}
		for id := range sides {
			sides[id] = append(sides[id], v)
		}
	}
	b.size, b.stack, b.sides = size, stack, sides
	return sides
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
