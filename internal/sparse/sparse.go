// Package sparse computes sparse certificates for k-vertex connectivity
// (Cheriyan–Kao–Thurimella; Theorem 5 of the paper) and extracts the
// side-groups used by the group-sweep optimization (Theorem 10).
//
// A sparse certificate SC is a spanning subgraph with at most k(n-1) edges
// that preserves k-vertex connectivity: SC is k-connected iff G is. The CKT
// construction has a stronger property this implementation relies on: every
// edge of G absent from SC joins two vertices with local connectivity >= k
// inside SC. Consequently removing any vertex set S with |S| < k splits SC
// and G into identical vertex partitions, so a (<k)-cut found on SC is a
// (<k)-cut of G, and local connectivities below k, and the source-closest
// minimum cuts below k, agree between the two graphs. GLOBAL-CUT therefore
// may run any flow test on either graph: GLOBAL-CUT* runs its first
// phase-1 test on G, before SC exists, and the rest on SC.
//
// CKT define SC as F_1 ∪ ... ∪ F_k, where each F_i is a scan-first search
// forest of G - F_1 - ... - F_{i-1}. Running k searches costs O(k·m);
// the Nagamochi–Ibaraki forest decomposition (Algorithmica 7, 1992)
// builds all k forests in one O(n+m) pass instead. Every vertex x carries
// a label r(x), the number of its already-scanned neighbours. The pass
// repeatedly scans the unscanned vertex of largest label; scanning x puts
// each edge to an unscanned y into forest F_{r(y)+1} and then increments
// r(y). Each F_i is then a scan-first forest of G - F_1 - ... - F_{i-1}:
// y is marked in the i-th search exactly when r(y) >= i, scanning x
// claims the F_i edges to the unmarked y with r(y) = i-1, and max-label
// selection scans a marked vertex whenever one is left (a new root is
// started only when every unscanned label is below i). So the result is
// the CKT construction under one particular scan order, and every theorem
// the engine relies on — the certificate property, κ_SC >= k across
// dropped edges, and Theorem 10's side groups — holds unchanged.
//
// Only F_1..F_k are kept, which lets the priority be capped at k: the
// scan-first argument above needs "some unscanned vertex has r >= i
// implies the picked vertex has r >= i" only for i <= k, and min(r, k)
// preserves it. The bucket queue therefore has k+1 buckets, and an edge
// to a vertex whose label has reached k (it would join F_{k+1} or later)
// is skipped with no bookkeeping.
package sparse

import "kvcc/graph"

// Certificate bundles the sparse certificate of a graph with the artifacts
// of its construction that the sweep optimizations reuse.
type Certificate struct {
	// SC is the certificate: same vertex ids and labels as the input graph,
	// edge set F_1 ∪ ... ∪ F_k.
	SC *graph.Graph
	// SideGroups are the vertex sets of the connected components of the
	// k-th scan-first forest F_k that have more than k vertices. Any two
	// vertices in one side-group are k-locally connected (Theorem 10), so
	// the group sweep may skip connectivity tests inside a group.
	SideGroups [][]int
	// GroupID maps each vertex to its side-group index, or -1.
	GroupID []int
}

// Scratch carries the construction buffers of ComputeScratch across
// calls: the labels and bucket lists of the forest decomposition, the
// certificate edges with their forest indices, the certificate graph's
// CSR arrays, and the union-find plus flat member storage behind the side
// groups. The enumeration recursion computes one certificate per
// component at every level, so reusing one Scratch per worker removes
// every per-call allocation except two small structs. The zero value is
// ready to use; a Scratch is not safe for concurrent use.
type Scratch struct {
	nodes     []bucketNode
	heads     []int32
	certEdges [][2]int
	forest    []int32

	// fill, groupID, members and groups back the returned Certificate,
	// which therefore stays valid only until the next ComputeScratch call
	// with this Scratch.
	fill    graph.FillScratch
	parent  []int
	count   []int
	groupID []int
	members []int
	groups  [][]int
}

// bucketNode is one vertex's entry in the bucket queue: its capped label
// r(v) (-1 once scanned) and its links in the list of vertices sharing
// that label. Keeping the three in one record lets a label update and its
// relink touch one place in memory instead of three arrays.
type bucketNode struct {
	label, prev, next int32
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// Compute builds the sparse certificate of g for parameter k with
// one-shot buffers; see ComputeScratch.
func Compute(g *graph.Graph, k int) *Certificate {
	return ComputeScratch(g, k, nil)
}

// ComputeScratch builds the sparse certificate of g for parameter k,
// reusing s's buffers (a nil s uses fresh ones). One Nagamochi–Ibaraki
// scan of g (see the package comment) decomposes its edges into the
// forests F_1..F_k, each a scan-first forest of G - F_1 - ... - F_{i-1};
// the certificate is their union and the side groups come from F_k. The
// pass meets each edge once, from whichever endpoint is scanned first, so
// the cost is O(n+m) whatever k is, and with a warmed-up Scratch nothing
// but the Certificate and SC structs is allocated.
//
// The returned Certificate is backed by s: SC's adjacency arrays,
// SideGroups and GroupID are valid only until the next ComputeScratch
// call with the same s. SC shares g's label table.
func ComputeScratch(g *graph.Graph, k int, s *Scratch) *Certificate {
	if k < 1 {
		panic("sparse: k must be >= 1")
	}
	if s == nil {
		s = &Scratch{}
	}
	decompose(g, k, s)
	sc := g.SpanningSubgraphScratch(s.certEdges, &s.fill)
	groups, groupID := sideGroups(g.NumVertices(), k, s)
	return &Certificate{SC: sc, SideGroups: groups, GroupID: groupID}
}

// decompose runs the capped Nagamochi–Ibaraki scan of g, leaving the
// edges of F_1 ∪ ... ∪ F_k in s.certEdges and, parallel to them, each
// edge's forest index (1..k) in s.forest.
func decompose(g *graph.Graph, k int, s *Scratch) {
	n := g.NumVertices()
	offsets, adj := g.Adjacency()

	// A label never exceeds n-1, so capping it at min(k, n) instead of k
	// changes nothing and bounds the bucket count by n+1 for any k.
	limit := int32(min(k, n))
	nb := int(limit) + 1
	if cap(s.heads) < nb {
		s.heads = make([]int32, nb)
	}
	heads := s.heads[:nb]
	for i := range heads {
		heads[i] = -1
	}
	if cap(s.nodes) < n {
		s.nodes = make([]bucketNode, n)
	}
	nodes := s.nodes[:n]
	// Every vertex starts in bucket 0, in ascending order, so a new root
	// is always the smallest unscanned id.
	for v := range nodes {
		nodes[v] = bucketNode{label: 0, prev: int32(v) - 1, next: int32(v) + 1}
	}
	if n > 0 {
		nodes[n-1].next = -1
		heads[0] = 0
	}

	certEdges := s.certEdges[:0]
	forest := s.forest[:0]
	top := 0
	for range n {
		for heads[top] < 0 {
			top--
		}
		x := heads[top]
		nx := &nodes[x]
		heads[top] = nx.next
		if nx.next >= 0 {
			nodes[nx.next].prev = -1
		}
		nx.label = -1
		for _, y := range adj[offsets[x]:offsets[x+1]] {
			ny := &nodes[y]
			r := ny.label
			// Skip y if scanned (r < 0) or capped: the edge would join F_{k+1}
			// or a later forest.
			if uint32(r) >= uint32(limit) {
				continue
			}
			certEdges = append(certEdges, [2]int{int(x), y})
			forest = append(forest, r+1)
			// Move y from bucket r to bucket r+1.
			if ny.prev >= 0 {
				nodes[ny.prev].next = ny.next
			} else {
				heads[r] = ny.next
			}
			if ny.next >= 0 {
				nodes[ny.next].prev = ny.prev
			}
			r++
			ny.label, ny.prev, ny.next = r, -1, heads[r]
			if heads[r] >= 0 {
				nodes[heads[r]].prev = int32(y)
			}
			heads[r] = int32(y)
			top = max(top, int(r))
		}
	}
	s.certEdges = certEdges
	s.forest = forest
}

// sideGroups groups vertices by connected component of the k-th forest
// (the edges of s.certEdges whose forest index is k) and keeps components with more than
// k vertices (smaller groups cannot trigger the group-deposit rule,
// Theorem 11, and are ignored as in Section 5.3). The returned slices are
// backed by s.
func sideGroups(n, k int, s *Scratch) ([][]int, []int) {
	groupID := growInts(s.groupID, n)
	s.groupID = groupID
	for i := range groupID {
		groupID[i] = -1
	}
	parent := growInts(s.parent, n)
	s.parent = parent
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	lastForest := false
	for i, e := range s.certEdges {
		if int(s.forest[i]) != k {
			continue
		}
		lastForest = true
		ra, rb := find(e[0]), find(e[1])
		if ra != rb {
			parent[ra] = rb
		}
	}
	if !lastForest {
		return nil, groupID
	}
	// Bucket members by root without a map: count component sizes, then
	// assign group ids in one ascending scan (so groups come out ordered
	// by smallest member, members ascending). A root's count is flipped to
	// -(id+1) once its group is allocated, which lets the scan distinguish
	// "qualifying, unassigned" from "assigned" with no extra array.
	//
	// Member lists live in one flat buffer: every qualifying root's size
	// is known when its group is allocated, so each group receives a
	// capacity-exact subslice and appends never reallocate.
	count := growInts(s.count, n)
	s.count = count
	clear(count)
	for v := 0; v < n; v++ {
		count[find(v)]++
	}
	members := growInts(s.members, n)
	s.members = members
	nextMember := 0
	groups := s.groups[:0]
	for v := 0; v < n; v++ {
		r := find(v)
		switch c := count[r]; {
		case c > k:
			id := len(groups)
			groups = append(groups, members[nextMember:nextMember:nextMember+c])
			nextMember += c
			count[r] = -(id + 1)
			groupID[v] = id
			groups[id] = append(groups[id], v)
		case c < 0:
			id := -c - 1
			groupID[v] = id
			groups[id] = append(groups[id], v)
		}
	}
	s.groups = groups
	return groups, groupID
}
