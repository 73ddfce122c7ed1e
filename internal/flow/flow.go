// Package flow implements local vertex-connectivity testing by maximum flow
// on the directed flow graph of an undirected graph (Section 4.1 of the
// paper).
//
// Every vertex v of the input graph is split into an arc in(v) → out(v) of
// capacity one; every undirected edge (u,v) becomes the arcs
// out(u) → in(v) and out(v) → in(u). The maximum flow from out(u) to in(v)
// then equals the local vertex connectivity κ(u,v) for non-adjacent u,v
// (Menger's theorem).
//
// # The implicit split graph
//
// The split graph is never built. Its arcs come from the graph's own CSR
// and its flow lives on the vertices: unit vertex capacities let every
// vertex other than the endpoints carry at most one path, so the flow is
// prev[v], the vertex the flow into v comes from, −1 when v carries none,
// and next[v], the vertex it goes to, valid only while prev[v] ≥ 0. The
// sink's in-flow is multi-valued and not stored. The residual arcs follow
// from prev:
//
//   - out(x) → in(y) for every neighbour y, always;
//   - out(x) → in(x) iff x carries flow;
//   - in(y) → out(y) iff y carries no flow;
//   - in(y) → out(prev[y]) iff y carries flow.
//
// Reversed, they give each node's residual in-arcs, which next completes:
// the in-arcs of in(y) are out(w) for every neighbour w, plus out(y) when y
// carries flow; the one in-arc of out(x) is in(x) when x carries no flow,
// else in(next[x]).
//
// Adjacency arcs are unbounded where the paper gives them capacity one.
// No flow value changes, because an adjacency arc out(x) → in(y) carries
// at most the one unit in(y) can pass on; but every finite cut now
// consists of vertex arcs, so the vertex cut is read off the residual
// graph without case analysis. That cut is the same for every maximum
// flow (docs/DESIGN.md, "The implicit split graph").
//
// # Bidirectional levels
//
// Dinic's level of a node is its residual distance to the sink, and a
// phase needs it only on the nodes of shortest augmenting paths. bfsLevels
// grows two layered searches toward each other: one from in(v) over the
// reversed residual arcs, labelling distances to the sink, and one from
// out(u) over the forward residual arcs, labelling distances from the
// source. Each step expands one whole layer from the side whose next
// layer costs less, and the search stops at the first node both
// sides reach; that fixes the distance D from source to sink, and the
// complete source layers are relabelled D minus their depth. The
// blocking-flow DFS from out(u) then steps only to nodes one level closer
// to the sink, as before. Its dead ends are arcs saturated earlier in the
// phase and source-side nodes that lead no closer to the sink. A query
// that ends below its limit runs one forward reachability pass from
// out(u) to read off the source-closest cut.
//
// Augmentation stops as soon as the flow value reaches the query's limit
// (the algorithm only ever asks "is κ(u,v) ≥ k?"), which keeps each test in
// O(min(n^1/2, k) · m) in the spirit of Even–Tarjan.
//
// # Excluded vertices
//
// Exclude takes a vertex set R out of every later query, which then runs
// on G − R (GLOBAL-CUT*'s phase 2 tests pairs in SC − R). Each level
// generation stamps the split nodes of R before its search starts, so R
// costs O(|R|) per search and nothing per arc, and no arc array changes.
//
// # Zero-reset queries
//
// A bounded query pushes at most `bound` units of flow and touches only
// the vertices on its ≤ bound augmenting paths, so the per-query cost must
// be proportional to that work — not to the size of the graph. Two
// mechanisms enforce this (docs/DESIGN.md, "The zero-reset flow engine"):
//
//   - the flow state is cleared by replaying a touched-vertex log (each
//     vertex is recorded once per query, deduplicated by an epoch stamp)
//     instead of resetting prev wholesale; next needs no reset, because
//     it is read only where prev[v] ≥ 0;
//   - the per-node level and current-arc scratch is generation-stamped:
//     each entry packs a 32-bit generation next to its 32-bit value in
//     one uint64, so bumping a counter invalidates the whole array in
//     O(1) and reading an entry costs a single memory access.
package flow

import (
	"sort"

	"kvcc/graph"
)

// Network is a reusable max-flow network over the implicit split graph of
// one undirected graph. A single Network serves many source/sink pairs; a
// query's cost is proportional to the flow work it performs, not to the
// graph size, because all mutable state is epoch-stamped or undo-logged
// (see the package comment). Obtain a heap-free pooled Network with
// NewNetworkScratch. A Network is not safe for concurrent use.
type Network struct {
	g       *graph.Graph
	offsets []int // g's CSR: the arcs out(x) → in(y) of out(x) are
	edges   []int // edges[offsets[x]:offsets[x+1]]
	bound   int

	// Flow state per vertex (see the package comment): prev is −1 for
	// none; next is read only where prev ≥ 0 and is never reset.
	prev []int32
	next []int32

	// Touched-vertex log: every vertex whose prev is set is
	// recorded once per query (first touch wins, deduplicated by stamp),
	// and the next query clears exactly those vertices.
	touched []int32
	stamp   []int32
	epoch   int32

	// Per-node scratch over the 2n split nodes in(v) = 2v, out(v) = 2v+1.
	// Each entry packs (generation << 32) | value; an entry is valid iff
	// its generation half equals the current counter, so none of these
	// arrays is ever cleared.
	level []uint64 // residual distance to the sink; see bfsLevels
	iter  []uint64 // current-arc cursor; see dfsAugment

	levelGen uint32
	iterGen  uint32

	queue  []int32 // the sink side of bfsLevels; extractCut's reached nodes
	squeue []int32 // the source side of bfsLevels
	stack  []int32

	exclude []int32 // the vertices of the last Exclude

	// FlowRuns counts the number of max-flow computations executed
	// (LOC-CUT invocations that were not short-circuited).
	FlowRuns int64
}

func inNode(v int) int32  { return int32(2 * v) }
func outNode(v int) int32 { return int32(2*v + 1) }

// inArc returns the head of in(x)'s one residual arc: back along the flow
// into x if x carries flow, else across the vertex arc to out(x).
func inArc(prev []int32, x int) int32 {
	if p := prev[x]; p >= 0 {
		return outNode(int(p))
	}
	return outNode(x)
}

// pack builds a stamped scratch entry; stamped tests an entry's stamp.
func pack(gen, val uint32) uint64       { return uint64(gen)<<32 | uint64(val) }
func stamped(e uint64, gen uint32) bool { return uint32(e>>32) == gen }

// deadLevel is the packed level value of a node removed from the level
// graph by a dead-ended DFS. It never equals the target level − 1 of a
// node the DFS expands: only the sink has level 0, and it is never
// expanded.
const deadLevel = ^uint32(0)

// NewNetwork builds the flow network of g with early-termination bound
// `bound` (normally k). bound must be >= 1. For a pooled network with zero
// steady-state build allocations use NewNetworkScratch.
func NewNetwork(g *graph.Graph, bound int) *Network {
	return NewNetworkScratch(g, bound, &Scratch{})
}

// nextGen advances a packed-scratch generation counter, invalidating every
// entry of the array it guards in O(1). On the (astronomically rare)
// wraparound the full array — including capacity hidden by earlier
// reslicing — is zeroed so stale stamps can never collide with a recycled
// generation.
func nextGen(gen *uint32, packed []uint64) uint32 {
	*gen++
	if *gen == 0 {
		clear(packed[:cap(packed)])
		*gen = 1
	}
	return *gen
}

// undo clears the flow state of the vertices touched by the previous
// query and opens a new touch epoch. Cost: O(vertices touched since the
// last undo).
func (nw *Network) undo() {
	for _, v := range nw.touched {
		nw.prev[v] = -1
	}
	nw.touched = nw.touched[:0]
	if nw.epoch == int32(^uint32(0)>>1) { // MaxInt32: recycle stamps
		clear(nw.stamp[:cap(nw.stamp)])
		nw.epoch = 0
	}
	nw.epoch++
}

// touch records vertex v in the undo log the first time its flow state
// changes within the current query.
func (nw *Network) touch(v int32) {
	if nw.stamp[v] != nw.epoch {
		nw.stamp[v] = nw.epoch
		nw.touched = append(nw.touched, v)
	}
}

// Exclude takes the vertices vs out of every later query until the next
// Exclude or NewNetworkScratch: queries then run on G − vs, and their
// endpoints must not be in vs. bfsLevels stamps the split nodes of vs
// dead, which both of its sides skip, and extractCut stamps them reached,
// before either search starts, so no search enters them. The network
// keeps its own copy of vs.
func (nw *Network) Exclude(vs []int) {
	nw.exclude = nw.exclude[:0]
	for _, v := range vs {
		nw.exclude = append(nw.exclude, int32(v))
	}
}

// stampExcluded gives both split nodes of every excluded vertex the packed
// entry e.
func (nw *Network) stampExcluded(e uint64) {
	for _, v := range nw.exclude {
		nw.level[inNode(int(v))] = e
		nw.level[outNode(int(v))] = e
	}
}

// MinVertexCut returns a minimum u-v vertex cut if κ(u,v) < bound.
// If u == v, (u,v) is an edge, or κ(u,v) >= bound, it returns
// (nil, bound, true): the pair cannot be separated by fewer than `bound`
// vertices. Otherwise it returns the cut (vertex ids of g, ascending), its
// size, and false.
func (nw *Network) MinVertexCut(u, v int) (cut []int, connectivity int, atLeastBound bool) {
	return nw.MinVertexCutLimit(u, v, nw.bound)
}

// MinVertexCutLimit is MinVertexCut with a per-query early-termination
// limit that may be tighter than the network's bound: augmentation stops
// as soon as `limit` units flow, so a caller that already holds a cut of
// size c can probe further pairs with limit = c and pay nothing for flow
// beyond a known-worse answer. limit must be in [1, bound], where bound
// is the early-termination bound the network was built with.
//
// Equal and adjacent endpoints, and pairs with κ(u,v) ≥ limit, return
// (nil, limit, true). The query runs on G minus the vertices of the last
// Exclude, so κ and the cut are those of G − R; the cut never contains
// an excluded vertex.
func (nw *Network) MinVertexCutLimit(u, v, limit int) (cut []int, connectivity int, atLeastLimit bool) {
	if limit < 1 || limit > nw.bound {
		panic("flow: limit must be in [1, bound]")
	}
	if u == v || nw.g.HasEdge(u, v) {
		return nil, limit, true
	}
	nw.FlowRuns++
	nw.undo()
	src, dst := outNode(u), inNode(v)
	value := 0
	for value < limit && nw.bfsLevels(src, dst) {
		value += nw.blockingFlow(src, dst, limit-value)
	}
	if value >= limit {
		return nil, limit, true
	}
	return nw.extractCut(src, value), value, false
}

// bfsLevels builds the level graph of one Dinic phase and reports whether
// dst, the sink, is reachable from src. Two layered BFS grow toward each
// other: the sink side from dst over the reversed residual arcs, labelling
// each node with dt, its residual distance to the sink, and the source
// side from src over the forward residual arcs, labelling ds, its
// distance from the source (see the package comment). Each step expands
// one whole layer, from the side whose next expansion costs less, and the
// search stops at the first node the other side has labelled. A sink-side
// layer costs the arcs it scans. A source-side layer costs twice that:
// its nodes that lead no closer to the sink are the DFS's dead ends, and
// the DFS scans their arcs once more.
//
// When the sink side holds the complete layers dt ≤ b and the source side
// ds ≤ a, no node lies in both, so D, the distance from src to dst, is at
// least a+b+1; the meeting node has ds ≤ a+1 and dt ≤ b, or ds ≤ a and
// dt ≤ b+1, so D = a+1+b. The complete source layers are then relabelled
// D − ds under the sink side's generation. A node on a shortest augmenting path
// has ds + dt = D, so it lies in a complete layer of one side and carries
// dt; any other node keeps a label of at most its dt, or none. A path
// whose label falls by one at each arc therefore runs from D to the sink
// in D arcs, a shortest augmenting path. A source layer cut short by the
// meet stays under the source generation, unlabelled: its nodes have
// ds = a+1 and dt > b, so none is on a shortest path, and the sink stays
// the only node at level 0.
func (nw *Network) bfsLevels(src, dst int32) bool {
	level := nw.level
	sgen := nextGen(&nw.levelGen, level)
	tgen := nextGen(&nw.levelGen, level)
	if tgen < sgen { // the counter wrapped and cleared level: take both after it
		sgen, tgen = tgen, nextGen(&nw.levelGen, level)
	}
	nw.stampExcluded(pack(tgen, deadLevel))
	level[src], level[dst] = pack(sgen, 0), pack(tgen, 0)
	sq, tq := append(nw.squeue[:0], src), append(nw.queue[:0], dst)
	defer func() { nw.squeue, nw.queue = sq, tq }()
	// Each side's frontier, its deepest complete layer, is its queue from
	// lo on; cost is the number of arcs expanding it scans, and the
	// source side's counts twice (see above).
	sLo, tLo := 0, 0
	sCost, tCost := nw.arcs(src), nw.arcs(dst)
	var a, b uint32
	met := false
	for sLo < len(sq) && tLo < len(tq) {
		if 2*sCost <= tCost {
			end := len(sq)
			if sq, sCost, met = nw.expand(sq, sLo, a, sgen, tgen, true); met {
				sq = sq[:end]
				break
			}
			sLo, a = end, a+1
		} else {
			end := len(tq)
			if tq, tCost, met = nw.expand(tq, tLo, b, tgen, sgen, false); met {
				break
			}
			tLo, b = end, b+1
		}
	}
	if !met {
		return false
	}
	d := a + 1 + b
	for _, node := range sq {
		level[node] = pack(tgen, d-uint32(level[node]))
	}
	return true
}

// arcs is the number of arcs a level search scans to expand node from the
// side on which it has its adjacency run (the far side, see expand): the
// run plus the vertex arc.
func (nw *Network) arcs(node int32) int {
	x := int(node >> 1)
	return nw.offsets[x+1] - nw.offsets[x] + 1
}

// expand labels, under generation gen at depth d+1, the nodes one residual
// arc beyond the layer q[lo:] at depth d, appending them to q. The source
// side (fwd) walks the residual arcs forward from its nodes, the sink side
// backward. It returns the grown queue and the number of arcs expanding
// the new layer will scan, or stops and reports true at the first node
// stamped with other, the other side's generation. Excluded nodes carry
// the sink generation's dead level, which the sink side skips as its own
// stamp and the source side skips by value.
//
// On each side one parity of split node, near, has a single arc in the
// walked direction, always to a far node: forward, in(x) → out(x) or
// out(prev[x]); backward, out(x) ← in(x) or in(next[x]). A far node has
// its adjacency run, to near nodes, and the arc to its twin when its
// vertex carries flow: forward out(x) → in(x), backward in(y) ← out(y).
func (nw *Network) expand(q []int32, lo int, d, gen, other uint32, fwd bool) ([]int32, int, bool) {
	offsets, edges, prev, next, level := nw.offsets, nw.edges, nw.prev, nw.next, nw.level
	lv, dead := pack(gen, d+1), pack(other, deadLevel)
	near := int32(1)
	if fwd {
		near = 0
	}
	// visit labels to unless a side has it, and reports a meet.
	visit := func(to int32) bool {
		switch e := level[to]; {
		case stamped(e, gen) || e == dead:
		case stamped(e, other):
			return true
		default:
			level[to] = lv
			q = append(q, to)
		}
		return false
	}
	cost := 0
	for _, node := range q[lo:] {
		x := int(node >> 1)
		if node&1 == near {
			var to int32
			switch {
			case fwd:
				to = inArc(prev, x)
			case prev[x] >= 0:
				to = inNode(int(next[x]))
			default:
				to = inNode(x)
			}
			n := len(q)
			if visit(to) {
				return q, 0, true
			}
			if len(q) > n {
				cost += nw.arcs(to)
			}
			continue
		}
		n := len(q)
		if prev[x] >= 0 && visit(node^1) {
			return q, 0, true
		}
		for _, w := range edges[offsets[x]:offsets[x+1]] {
			if visit(int32(2*w) + near) {
				return q, 0, true
			}
		}
		cost += len(q) - n
	}
	return q, cost, false
}

// blockingFlow augments along the level graph until no augmenting path
// remains or `limit` units have been sent.
func (nw *Network) blockingFlow(src, dst int32, limit int) int {
	nextGen(&nw.iterGen, nw.iter)
	total := 0
	for total < limit && nw.dfsAugment(src, dst) {
		total++
	}
	return total
}

// dfsAugment finds one augmenting path in the level graph and pushes one
// unit along it (every path carries exactly one unit, because it crosses
// a unit vertex arc). Iterative DFS with the standard current-arc
// optimization; each step goes one level closer to the sink, so every
// path it completes is a shortest augmenting path. Its dead ends are
// arcs saturated earlier in the phase and the source-side nodes of
// bfsLevels that lead no closer to the sink; each is removed from the
// level graph once. The cursor
// of out(x) runs over x's CSR run offsets[x]..offsets[x+1]-1, then the
// slot offsets[x+1] for the reverse vertex arc out(x) → in(x); in(x) has
// its one residual arc at slot 0. An unstamped cursor reads as the first
// slot. A level-graph arc never becomes residual again within a phase
// (every arc an augmentation opens points one level away from the sink),
// so a cursor only ever moves forward.
func (nw *Network) dfsAugment(src, dst int32) bool {
	offsets, edges, prev, level, iter := nw.offsets, nw.edges, nw.prev, nw.level, nw.iter
	levelGen, iterGen := nw.levelGen, nw.iterGen
	stack := append(nw.stack[:0], src)
	defer func() { nw.stack = stack }()
	for len(stack) > 0 {
		node := stack[len(stack)-1]
		if node == dst {
			nw.augment(stack)
			return true
		}
		x := int(node >> 1)
		target := pack(levelGen, uint32(level[node])-1)
		to := int32(-1)
		it := uint32(0)
		if node&1 == 1 {
			it = uint32(offsets[x])
		}
		if e := iter[node]; stamped(e, iterGen) {
			it = uint32(e)
		}
		if node&1 == 1 {
			end := uint32(offsets[x+1])
			for ; it < end; it++ {
				if y := inNode(edges[it]); level[y] == target {
					to = y
					break
				}
			}
			if it == end {
				if prev[x] >= 0 && level[inNode(x)] == target {
					to = inNode(x)
				} else {
					it++
				}
			}
		} else if it == 0 {
			if to = inArc(prev, x); level[to] != target {
				to, it = -1, 1
			}
		}
		iter[node] = pack(iterGen, it)
		if to >= 0 {
			stack = append(stack, to)
			continue
		}
		// Dead end: remove node from the level graph and backtrack.
		level[node] = pack(levelGen, deadLevel)
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			iter[stack[len(stack)-1]]++
		}
	}
	return false
}

// augment pushes one unit along path (split nodes from source to sink),
// step by step in path order. A vertex arc, forward or reverse, changes
// nothing stored. A forward step out(x) → in(y) sets next[x] = y and
// prev[y] = x (the sink keeps no prev). A reverse step in(y) → out(x)
// cancels the flow out(x) → in(y): if the path entered in(y) forward from
// some out(p), that step already rerouted prev[y] to p; otherwise it
// entered across the reverse vertex arc, y stops carrying flow, and
// prev[y], still x, is cleared. Either way the path leaves out(x) next,
// forward to a new next[x] or back across x's vertex arc, so next needs
// no undo: it is stale only where prev is −1.
func (nw *Network) augment(path []int32) {
	prev, next, t := nw.prev, nw.next, path[len(path)-1]
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		switch {
		case a>>1 == b>>1: // a vertex arc
		case a&1 == 1: // out(x) → in(y)
			next[a>>1] = b >> 1
			if b != t {
				nw.touch(b >> 1)
				prev[b>>1] = a >> 1
			}
		case prev[a>>1] == b>>1: // in(y) → out(x) with prev[y] = x
			prev[a>>1] = -1
		}
	}
}

// extractCut returns the vertex cut of a maximum flow of value size from
// src. The last level search stopped at whichever side ran out first, so
// one forward pass marks the nodes reachable from src in the residual
// graph under a fresh level generation and lists them in nw.queue. A reachable in(v) whose out(v)
// is unreachable is a saturated vertex arc crossing the cut; by
// max-flow/min-cut there are exactly size of them, so the slice is
// allocated at its final capacity. The reachable set is the same for
// every maximum flow, so the cut, the source-closest minimum cut, does
// not depend on which augmenting paths were found.
func (nw *Network) extractCut(src int32, size int) []int {
	if size == 0 {
		return nil
	}
	offsets, edges, prev, level := nw.offsets, nw.edges, nw.prev, nw.level
	seen := pack(nextGen(&nw.levelGen, level), 0)
	nw.stampExcluded(seen)
	level[src] = seen
	queue := append(nw.queue[:0], src)
	visit := func(to int32) {
		if level[to] != seen {
			level[to] = seen
			queue = append(queue, to)
		}
	}
	for head := 0; head < len(queue); head++ {
		node := queue[head]
		x := int(node >> 1)
		if node&1 == 0 {
			visit(inArc(prev, x))
			continue
		}
		if prev[x] >= 0 {
			visit(inNode(x))
		}
		for _, y := range edges[offsets[x]:offsets[x+1]] {
			visit(inNode(y))
		}
	}
	nw.queue = queue
	cut := make([]int, 0, size)
	for _, node := range queue {
		if node&1 == 0 && level[node+1] != seen {
			cut = append(cut, int(node>>1))
		}
	}
	sort.Ints(cut)
	return cut
}
