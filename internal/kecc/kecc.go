// Package kecc enumerates k-edge connected components (k-ECCs), the
// comparison model used throughout the paper's effectiveness evaluation
// (Figs. 7-9 and the Fig. 14 case study).
//
// A k-ECC is a maximal vertex set whose induced subgraph cannot be
// disconnected by removing fewer than k edges. Enumeration mirrors the
// cut-based KVCC framework, but with edge cuts and non-overlapping
// partitions: reduce to the k-core (λ <= δ by Whitney's theorem), split
// into connected components, find any global edge cut with weight < k
// (Stoer–Wagner, early-terminated), remove the crossing edges and recurse.
package kecc

import (
	"container/heap"
	"context"

	"kvcc/graph"
	"kvcc/internal/core"
	"kvcc/internal/kcore"
)

// Enumerate returns all k-ECCs of g (k >= 1) as induced subgraphs with
// labels preserved, in the canonical core.SortComponents order.
func Enumerate(g *graph.Graph, k int) []*graph.Graph {
	comps, _, err := EnumerateContext(context.Background(), g, k)
	if err != nil {
		// Only cancellation can fail, and the background context never
		// cancels.
		panic("kecc: " + err.Error())
	}
	return comps
}

// EnumerateContext is Enumerate with cancellation and a work report,
// matching the contract of the other cohesion engines: the queue loop and
// every Stoer–Wagner phase check the context, and cancellation returns
// ctx.Err() discarding partial results. Stats counts k-core peeling,
// global cut searches (GlobalCutCalls) and edge-cut partitions
// (Partitions).
func EnumerateContext(ctx context.Context, g *graph.Graph, k int) ([]*graph.Graph, *core.Stats, error) {
	if k < 1 {
		panic("kecc: k must be >= 1")
	}
	stats := &core.Stats{}
	var results []*graph.Graph
	queue := []*graph.Graph{g}
	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		h := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		cored, peeled := kcore.Reduce(h, k)
		stats.KCorePeeled += int64(peeled)
		if cored.NumVertices() == 0 {
			continue
		}
		for _, comp := range cored.ConnectedComponents() {
			sub := cored.InducedSubgraph(comp)
			if sub.NumVertices() <= 1 {
				continue
			}
			stats.GlobalCutCalls++
			side, found, err := globalEdgeCutBelow(ctx, sub, k)
			if err != nil {
				return nil, nil, err
			}
			if !found {
				results = append(results, sub)
				continue
			}
			stats.Partitions++
			inSide := make([]bool, sub.NumVertices())
			for _, v := range side {
				inSide[v] = true
			}
			var crossing [][2]int
			for u := 0; u < sub.NumVertices(); u++ {
				for _, v := range sub.Neighbors(u) {
					if u < v && inSide[u] != inSide[v] {
						crossing = append(crossing, [2]int{u, v})
					}
				}
			}
			queue = append(queue, sub.RemoveEdges(crossing))
		}
	}
	core.SortComponents(results)
	return results, stats, nil
}

// EdgeConnectivity returns λ(G): the weight of the global minimum edge
// cut, computed by a full Stoer–Wagner run. Returns 0 for disconnected or
// trivial graphs.
func EdgeConnectivity(g *graph.Graph) int {
	if g.NumVertices() <= 1 || !g.IsConnected() {
		return 0
	}
	sw := newContracted(g)
	best := g.NumEdges() + 1
	for sw.size() > 1 {
		if _, cutWeight := sw.phase(); cutWeight < best {
			best = cutWeight
		}
	}
	return best
}

// globalEdgeCutBelow looks for any global edge cut of weight < k in a
// connected graph. It returns one side of the first qualifying
// cut-of-the-phase (every cut-of-the-phase is a valid global cut, so the
// search may stop before the true minimum is known). The context is
// checked once per phase.
func globalEdgeCutBelow(ctx context.Context, g *graph.Graph, k int) (side []int, found bool, err error) {
	if g.NumVertices() <= 1 {
		return nil, false, nil
	}
	sw := newContracted(g)
	for sw.size() > 1 {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		t, cutWeight := sw.phase()
		if cutWeight < k {
			return t, true, nil
		}
	}
	return nil, false, nil
}

// contracted is the weighted multigraph state of Stoer–Wagner. Supernodes
// accumulate the original vertices merged into them.
type contracted struct {
	adj     []map[int]int // adj[a][b] = total weight between supernodes
	members [][]int       // original vertex ids merged into each supernode
	alive   []bool
	n       int // live supernode count

	// Per-phase scratch, reset lazily with a generation stamp.
	inA    []bool
	weight []int
	stamp  []int
	gen    int
}

func newContracted(g *graph.Graph) *contracted {
	n := g.NumVertices()
	c := &contracted{
		adj:     make([]map[int]int, n),
		members: make([][]int, n),
		alive:   make([]bool, n),
		n:       n,
		inA:     make([]bool, n),
		weight:  make([]int, n),
		stamp:   make([]int, n),
	}
	for v := 0; v < n; v++ {
		c.adj[v] = make(map[int]int, g.Degree(v))
		for _, w := range g.Neighbors(v) {
			c.adj[v][w] = 1
		}
		c.members[v] = []int{v}
		c.alive[v] = true
	}
	return c
}

func (c *contracted) size() int { return c.n }

// phase runs one minimum-cut phase (maximum adjacency ordering). It
// returns the members of the last-added supernode t and the weight of the
// cut separating t from the rest, then merges t into the second-to-last
// supernode.
func (c *contracted) phase() (tMembers []int, cutWeight int) {
	start := -1
	for v := range c.alive {
		if c.alive[v] {
			start = v
			break
		}
	}
	c.gen++
	touch := func(v int) {
		if c.stamp[v] != c.gen {
			c.stamp[v] = c.gen
			c.inA[v] = false
			c.weight[v] = 0
		}
	}
	touch(start)
	c.inA[start] = true
	pq := &maxHeap{}
	for nb, w := range c.adj[start] {
		touch(nb)
		c.weight[nb] = w
		heap.Push(pq, heapItem{nb, w})
	}
	prev, last := start, start
	lastWeight := 0
	added := 1
	for added < c.n {
		// Pop the most tightly connected vertex, skipping stale entries.
		var v int
		for {
			item := heap.Pop(pq).(heapItem)
			if !c.inA[item.v] && c.weight[item.v] == item.w {
				v = item.v
				break
			}
		}
		c.inA[v] = true
		added++
		prev, last = last, v
		lastWeight = c.weight[v]
		for nb, w := range c.adj[v] {
			touch(nb)
			if !c.inA[nb] {
				c.weight[nb] += w
				heap.Push(pq, heapItem{nb, c.weight[nb]})
			}
		}
	}
	tMembers = append([]int(nil), c.members[last]...)
	c.merge(prev, last)
	return tMembers, lastWeight
}

// merge folds supernode t into s.
func (c *contracted) merge(s, t int) {
	for nb, w := range c.adj[t] {
		if nb == s {
			continue
		}
		c.adj[s][nb] += w
		c.adj[nb][s] += w
		delete(c.adj[nb], t)
	}
	delete(c.adj[s], t)
	c.members[s] = append(c.members[s], c.members[t]...)
	c.adj[t] = nil
	c.members[t] = nil
	c.alive[t] = false
	c.n--
}

type heapItem struct {
	v, w int
}

type maxHeap []heapItem

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return h[i].w > h[j].w }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
