package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Delta is a mutation overlay on an immutable base Graph: pending edge
// insertions and deletions plus appended vertices, with a monotonically
// increasing version stamp. The base CSR is never touched; reads
// (Neighbors, HasEdge, Degree) merge the overlay on the fly, and Compact
// materializes a fresh normalized CSR and rebases the overlay onto it.
// Both do per-edge work only at touched vertices (endpoints of a pending
// edit): an untouched vertex's base run is its adjacency and is copied
// whole, so a small batch on a large base costs O(n + m) word copies plus
// the merge of the touched runs, not a per-edge overlay lookup.
//
// Vertex ids are stable across the overlay's lifetime: base vertices keep
// their ids, new vertices are appended after them, and Compact preserves
// the numbering. Labels remain the external identity, so edits are
// addressed by label (creating vertices on first mention) and every
// subgraph extracted from a compacted snapshot lines up with earlier ones.
//
// A Delta is not safe for concurrent use; callers that share one (the
// kvcc.Dynamic handle, the server's edit path) serialize access
// themselves. Compacted snapshots are plain immutable Graphs and may be
// read concurrently with further mutations of the Delta.
type Delta struct {
	base    *Graph
	version uint64

	labels []int64       // all labels: base labels + appended vertices
	index  map[int64]int // label -> vertex id over base+new

	// Pending insertions, as normalized (u<v) pairs. insPos is the
	// membership index into insList; insList keeps a deterministic
	// iteration order for Compact's two-pass counting sort (map iteration
	// order would desynchronize the passes).
	insPos  map[[2]int]int
	insList [][2]int

	// Pending deletions of base edges, as normalized (u<v) pairs.
	del map[[2]int]bool

	// insAdj holds each vertex's inserted neighbors in ascending order,
	// so merged Neighbors reads stay sorted without re-sorting per call.
	insAdj map[int][]int

	// degDelta is the per-vertex degree adjustment from pending edits.
	// It has a key for every endpoint of every insert or delete since the
	// last rebase, cancelled ones included (their value may be 0), so its
	// key set is a superset of the vertices whose adjacency differs from
	// the base run: a vertex without a key reads its base run unmerged.
	degDelta map[int]int

	// touched is Compact's reused buffer of degDelta's keys, sorted.
	touched []int

	m int // current undirected edge count (base +inserts -deletes)

	// compacted caches the last Compact result until the next mutation.
	compacted *Graph
}

// NewDelta returns an overlay on base with no pending edits, at version 1.
// A nil base is treated as the empty graph.
func NewDelta(base *Graph) *Delta {
	return NewDeltaAt(base, 1)
}

// NewDeltaAt returns an overlay on base whose version stamp starts at
// version (clamped to at least 1). The snapshot store uses it on
// recovery: a graph restored at version v must hand out v+1, v+2, ... for
// subsequent edits exactly as the pre-crash overlay would have, so that
// replayed write-ahead-log records and client-visible version stamps
// stay aligned across restarts.
func NewDeltaAt(base *Graph, version uint64) *Delta {
	if base == nil {
		base = &Graph{}
	}
	if version < 1 {
		version = 1
	}
	d := &Delta{
		base:     base,
		version:  version,
		labels:   append([]int64(nil), base.labels...),
		index:    base.LabelIndex(),
		insPos:   make(map[[2]int]int),
		del:      make(map[[2]int]bool),
		insAdj:   make(map[int][]int),
		degDelta: make(map[int]int),
		m:        base.m,
	}
	d.compacted = base
	return d
}

// Version returns the overlay's version stamp. It starts at 1 and
// increases by one for every effective mutation (an insert, delete or
// vertex addition that changed the graph); no-op edits do not bump it.
func (d *Delta) Version() uint64 { return d.version }

// NumVertices returns the vertex count including appended vertices.
func (d *Delta) NumVertices() int { return len(d.labels) }

// NumEdges returns the undirected edge count of base plus the overlay.
func (d *Delta) NumEdges() int { return d.m }

// Pending returns the number of pending edge insertions and deletions.
func (d *Delta) Pending() (inserts, deletes int) {
	return len(d.insList), len(d.del)
}

// Label returns the label of vertex v.
func (d *Delta) Label(v int) int64 { return d.labels[v] }

// Labels returns the label slice indexed by vertex id. The slice is shared
// with the overlay and must not be modified.
func (d *Delta) Labels() []int64 { return d.labels }

// IndexOfLabel returns the vertex id of the given label, or -1 if absent.
func (d *Delta) IndexOfLabel(l int64) int {
	if v, ok := d.index[l]; ok {
		return v
	}
	return -1
}

// AddVertex ensures a vertex labeled l exists and returns its id, plus
// whether it was newly created (which bumps the version).
func (d *Delta) AddVertex(l int64) (v int, added bool) {
	if v, ok := d.index[l]; ok {
		return v, false
	}
	v = len(d.labels)
	d.index[l] = v
	d.labels = append(d.labels, l)
	d.mutated()
	return v, true
}

// baseN returns the number of vertices in the base graph.
func (d *Delta) baseN() int { return len(d.base.labels) }

// edgeKey normalizes an edge to its (min,max) id pair.
func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// hasEffective reports whether edge (u,v) exists in base+overlay.
func (d *Delta) hasEffective(u, v int) bool {
	key := edgeKey(u, v)
	if _, ok := d.insPos[key]; ok {
		return true
	}
	if d.del[key] {
		return false
	}
	return u < d.baseN() && v < d.baseN() && d.base.HasEdge(u, v)
}

// InsertEdge records the undirected edge between the vertices labeled lu
// and lv, creating either vertex on first mention. It returns true when
// the graph changed (the edge was absent), false for self-loops and
// already-present edges. A vertex created for a no-op insert still counts
// as a change.
func (d *Delta) InsertEdge(lu, lv int64) bool {
	if lu == lv {
		return false
	}
	u, addedU := d.AddVertex(lu)
	v, addedV := d.AddVertex(lv)
	if d.hasEffective(u, v) {
		return addedU || addedV
	}
	key := edgeKey(u, v)
	if d.del[key] {
		// Re-inserting a deleted base edge restores it.
		delete(d.del, key)
	} else {
		d.insPos[key] = len(d.insList)
		d.insList = append(d.insList, key)
		d.insertAdj(key[0], key[1])
		d.insertAdj(key[1], key[0])
	}
	d.degDelta[u]++
	d.degDelta[v]++
	d.m++
	d.mutated()
	return true
}

// DeleteEdge removes the undirected edge between the vertices labeled lu
// and lv. It returns true when the graph changed; unknown labels, absent
// edges and self-loops are no-ops. Vertices are never removed — deleting
// a vertex's last edge leaves it isolated (the k-core reduction of any
// downstream enumeration discards it anyway).
func (d *Delta) DeleteEdge(lu, lv int64) bool {
	if lu == lv {
		return false
	}
	u, okU := d.index[lu]
	v, okV := d.index[lv]
	if !okU || !okV || !d.hasEffective(u, v) {
		return false
	}
	key := edgeKey(u, v)
	if pos, ok := d.insPos[key]; ok {
		// Deleting a pending insert cancels it. Swap-delete keeps insList
		// compact; the order only needs to be stable within one Compact.
		last := len(d.insList) - 1
		moved := d.insList[last]
		d.insList[pos] = moved
		d.insPos[moved] = pos
		d.insList = d.insList[:last]
		delete(d.insPos, key)
		d.removeAdj(key[0], key[1])
		d.removeAdj(key[1], key[0])
	} else {
		d.del[key] = true
	}
	d.degDelta[u]--
	d.degDelta[v]--
	d.m--
	d.mutated()
	return true
}

// mutated bumps the version and invalidates the compacted snapshot.
func (d *Delta) mutated() {
	d.version++
	d.compacted = nil
}

// insertAdj places w into v's sorted inserted-neighbor list.
func (d *Delta) insertAdj(v, w int) {
	list := d.insAdj[v]
	i := sort.SearchInts(list, w)
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = w
	d.insAdj[v] = list
}

// removeAdj removes w from v's inserted-neighbor list.
func (d *Delta) removeAdj(v, w int) {
	list := d.insAdj[v]
	i := sort.SearchInts(list, w)
	if i < len(list) && list[i] == w {
		list = append(list[:i], list[i+1:]...)
	}
	if len(list) == 0 {
		delete(d.insAdj, v)
	} else {
		d.insAdj[v] = list
	}
}

// Degree returns the degree of vertex v over base+overlay.
func (d *Delta) Degree(v int) int {
	deg := 0
	if v < d.baseN() {
		deg = d.base.Degree(v)
	}
	return deg + d.degDelta[v]
}

// HasEdge reports whether the undirected edge (u,v) exists over
// base+overlay.
func (d *Delta) HasEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= len(d.labels) || v >= len(d.labels) {
		return false
	}
	return d.hasEffective(u, v)
}

// Neighbors returns the sorted adjacency of v over base+overlay. Unlike
// Graph.Neighbors it allocates a fresh slice per call (the merged view has
// no contiguous backing); enumeration-grade reads should Compact first.
func (d *Delta) Neighbors(v int) []int {
	return d.MergedNeighbors(v, nil)
}

// MergedNeighbors appends the sorted adjacency of v over base+overlay to
// buf (reusing its storage; buf may be nil) and returns the result. It is
// the streaming read behind Neighbors, Compact and the snapshot spill
// path: one ascending-v sweep of MergedNeighbors reads the base CSR
// strictly sequentially, which is what keeps compaction of an mmap'd base
// paging-friendly. The merged run's length always equals Degree(v).
//
// A vertex no pending edit touches costs one bulk copy of its base run;
// a touched vertex merges its base run with its inserted neighbours and
// checks each base edge against the pending deletions.
func (d *Delta) MergedNeighbors(v int, buf []int) []int {
	buf = buf[:0]
	var baseRun []int
	if v < d.baseN() {
		baseRun = d.base.Neighbors(v)
	}
	if _, touched := d.degDelta[v]; !touched {
		return append(buf, baseRun...)
	}
	ins := d.insAdj[v]
	i, j := 0, 0
	for i < len(baseRun) || j < len(ins) {
		switch {
		case j == len(ins) || (i < len(baseRun) && baseRun[i] < ins[j]):
			w := baseRun[i]
			i++
			if len(d.del) == 0 || !d.del[edgeKey(v, w)] {
				buf = append(buf, w)
			}
		default:
			buf = append(buf, ins[j])
			j++
		}
	}
	return buf
}

// zeroOffsets stands in for the offsets of an empty base (the zero Graph
// has none), so Compact can read offsets[baseN()] unconditionally.
var zeroOffsets = []int{0}

// Compact materializes the overlay into a fresh normalized CSR Graph,
// rebases the overlay onto it (pending edits drain into the new base),
// and returns it. The version stamp is preserved, and the result is
// cached: compacting twice without an intervening mutation returns the
// same *Graph, so downstream consumers can use pointer identity as a
// cheap "nothing changed" test.
//
// Compact never re-sorts or deduplicates: the overlay's invariants (base
// runs sorted, inserted neighbors kept sorted, inserts guaranteed absent
// from base) let each touched vertex's run merge-write directly into its
// final slot. Every other vertex keeps its base run, shifted by the
// running sum of the degree changes before it, so the base offsets are
// copied once with that shift added and each stretch of untouched
// vertices between two touched ones moves with a single copy. The cost
// is O(n + m) word copies plus O(t log t + merged runs) for t touched
// vertices, with no per-edge map lookup outside the touched runs. The
// pass allocates exactly the result arrays — offsets and edges — so peak
// memory is the old graph plus the new one, with no intermediate copies,
// and the base CSR is read once, sequentially (it may be a cold mmap).
// The label table, the overlay's bookkeeping maps and the touched-id
// buffer are reused across compactions whenever capacities suffice.
func (d *Delta) Compact() *Graph {
	if d.compacted != nil {
		return d.compacted
	}
	n, bn := len(d.labels), d.baseN()
	boff, bedges := d.base.offsets, d.base.edges
	if bn == 0 {
		boff = zeroOffsets
	}
	d.touched = slices.Grow(d.touched[:0], len(d.degDelta))
	for v := range d.degDelta {
		d.touched = append(d.touched, v)
	}
	slices.Sort(d.touched)

	// Unshifted offsets: base vertices keep theirs, appended vertices have
	// an empty base run at the end of the base edges.
	offsets := make([]int, n+1)
	copy(offsets, boff[:bn+1])
	for v := bn + 1; v <= n; v++ {
		offsets[v] = boff[bn]
	}
	edges := make([]int, 2*d.m)
	shift, next := 0, 0 // next is the first vertex not yet placed
	for i := 0; i <= len(d.touched); i++ {
		t := n + 1 // past the end, so the last stretch takes offsets[n] too
		if i < len(d.touched) {
			t = d.touched[i]
		}
		// Vertices next..t-1 are untouched: shift their offsets and move
		// their base runs as one block.
		for v := next; v < t; v++ {
			offsets[v] += shift
		}
		lo, hi := boff[min(next, bn)], boff[min(t, bn)]
		copy(edges[lo+shift:], bedges[lo:hi])
		if t > n {
			break
		}
		start := offsets[t] + shift
		offsets[t] = start
		end := start + d.Degree(t)
		if len(d.MergedNeighbors(t, edges[start:start:end])) != end-start {
			panic("graph: Delta degree bookkeeping diverged from merged adjacency")
		}
		shift += d.degDelta[t]
		next = t + 1
	}
	if offsets[n] != len(edges) {
		panic("graph: Delta degree bookkeeping diverged from edge count")
	}
	g := &Graph{
		offsets: offsets,
		edges:   edges,
		// The label table is aliased, not copied: a Graph never reads
		// past len, and Delta only ever appends to d.labels (the full
		// slice expression forces any append past n to reallocate).
		labels: d.labels[:n:n],
		m:      d.m,
	}
	d.rebase(g)
	return g
}

// rebase installs g as the overlay's new base and drains the pending
// edits into it, reusing the bookkeeping maps' storage.
func (d *Delta) rebase(g *Graph) {
	d.base = g
	clear(d.insPos)
	d.insList = d.insList[:0]
	clear(d.del)
	clear(d.insAdj)
	clear(d.degDelta)
	d.m = g.m
	d.compacted = g
}

// Rebase replaces the overlay's base with g, which must be structurally
// identical to what Compact() would return — same vertex count, labels
// and edges. The snapshot store uses it after spilling a compaction
// straight to disk (CompactToStore): the re-mapped adoption of the
// written file takes the compacted heap graph's place, pending edits
// drain exactly as Compact would have drained them, and the version
// stamp is untouched. Only the O(1) invariants are checked; the caller
// vouches for the deep equality (the store does, behind a checksum).
func (d *Delta) Rebase(g *Graph) error {
	if g == nil {
		return fmt.Errorf("graph: rebase onto nil graph")
	}
	if g.NumVertices() != len(d.labels) {
		return fmt.Errorf("graph: rebase: %d vertices, overlay has %d", g.NumVertices(), len(d.labels))
	}
	if g.NumEdges() != d.m {
		return fmt.Errorf("graph: rebase: %d edges, overlay has %d", g.NumEdges(), d.m)
	}
	d.rebase(g)
	return nil
}
