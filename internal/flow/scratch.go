package flow

import "kvcc/graph"

// Scratch owns a pooled Network. The enumeration recursion builds one flow
// network per component at every level; routing those builds through one
// Scratch per worker makes every steady-state rebuild allocation-free —
// the flow state, node scratch, and undo log are resliced in place and
// only grow when a component exceeds every previous one.
//
// The zero value is ready to use. A Scratch (and the Network it hands
// out) is not safe for concurrent use; give each worker its own. The
// Network returned by NewNetworkScratch is valid until the next
// NewNetworkScratch call with the same Scratch.
type Scratch struct {
	nw Network
}

// growInt32 / growUint64 reslice s to length n, reallocating only when
// the capacity is insufficient. Newly allocated memory is zero; memory
// re-exposed by growing within capacity may hold stale values, which is
// safe for every caller here: stamped arrays only ever hold generations
// already issued (so a strictly increasing generation counter can never
// collide with them), and the flow state is written before it is read.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// NewNetworkScratch returns the flow network of g with early-termination
// bound `bound` (normally k), reusing s's buffers. The network reads its
// arcs from g's CSR, so the build is an O(n) reset of the flow state; it
// allocates nothing once the scratch has warmed up to the largest
// component seen. bound must be >= 1.
func NewNetworkScratch(g *graph.Graph, bound int, s *Scratch) *Network {
	if bound < 1 {
		panic("flow: bound must be >= 1")
	}
	if s == nil {
		s = &Scratch{}
	}
	n := g.NumVertices()
	nw := &s.nw
	nw.g = g
	nw.offsets, nw.edges = g.Adjacency()
	nw.bound = bound
	nw.FlowRuns = 0

	nw.prev = growInt32(nw.prev, n)
	for v := range nw.prev {
		nw.prev[v] = -1
	}
	nw.next = growInt32(nw.next, n) // read only where prev >= 0
	// The flow state was just cleared, so there is nothing to undo; the
	// per-query undo() opens a fresh touch epoch.
	nw.touched = nw.touched[:0]
	nw.stamp = growInt32(nw.stamp, n)
	nw.level = growUint64(nw.level, 2*n)
	nw.iter = growUint64(nw.iter, 2*n)
	nw.queue = nw.queue[:0]
	nw.squeue = nw.squeue[:0]
	nw.exclude = nw.exclude[:0]
	return nw
}
