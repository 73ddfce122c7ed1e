package graph

import "fmt"

// CSRBuilder assembles a labelled Graph directly into CSR form from two
// passes over an edge stream, without ever materializing an intermediate
// edge slice: the counting pass (CountEdge) interns labels and sizes every
// vertex's run, then the placement pass (PlaceEdge) writes each pair once
// into its final slot. This is the construction path for every labelled
// edge source: streaming ingestion of multi-million-edge files, where
// holding a [][2]int64 edge list alongside the graph would double peak
// memory, and FromLabeledEdges for callers that already hold one.
//
// Vertices are interned in first-mention order of the counting pass.
// Self-loops are dropped by both passes (a label seen only in self-loops
// is never interned); duplicate edges are dropped by Build.
type CSRBuilder struct {
	index   map[int64]int
	labels  []int64
	fill    csrFill
	placing bool

	// firstLabel and firstID cache the last edge's first endpoint, so a
	// run of lines that share it (as WriteEdgeList writes them) looks it
	// up in index once per pass. firstID is -1 while nothing is cached.
	firstLabel int64
	firstID    int
}

// NewCSRBuilder returns an empty CSRBuilder in its counting pass.
func NewCSRBuilder() *CSRBuilder {
	return &CSRBuilder{index: make(map[int64]int, 1024), fill: csrFill{offsets: []int{0}}, firstID: -1}
}

func (b *CSRBuilder) intern(l int64) int {
	if v, ok := b.index[l]; ok {
		return v
	}
	v := len(b.labels)
	b.index[l] = v
	b.labels = append(b.labels, l)
	b.fill.offsets = append(b.fill.offsets, 0)
	b.fill.mid = append(b.fill.mid, 0)
	return v
}

// InternVertex assigns the next vertex id to label l (a no-op for labels
// already seen) during the counting pass. Generators use it to fix the
// id order up front — e.g. community blocks contiguous in id space, so
// CSR neighbor runs stay local — instead of inheriting the first-mention
// order of a randomized edge stream. Isolated vertices can be added the
// same way.
func (b *CSRBuilder) InternVertex(l int64) int {
	if b.placing {
		panic("graph: InternVertex after BeginPlacement")
	}
	return b.intern(l)
}

// CountEdge records one undirected edge during the counting pass.
// Self-loops are dropped.
func (b *CSRBuilder) CountEdge(lu, lv int64) {
	if b.placing {
		panic("graph: CountEdge after BeginPlacement")
	}
	if lu == lv {
		return
	}
	if b.firstID < 0 || lu != b.firstLabel {
		b.firstLabel, b.firstID = lu, b.intern(lu)
	}
	b.fill.count(b.firstID, b.intern(lv))
}

// NumVertices returns the number of vertices interned so far.
func (b *CSRBuilder) NumVertices() int { return len(b.labels) }

// BeginPlacement ends the counting pass: it allocates the CSR arrays sized
// by the counted degrees and switches the builder to the placement pass.
func (b *CSRBuilder) BeginPlacement() {
	if b.placing {
		panic("graph: BeginPlacement called twice")
	}
	b.fill.begin()
	b.placing = true
}

// PlaceEdge writes one undirected edge into its counted slots during the
// placement pass. It fails, placing nothing, if the edge stream diverged
// from the counting pass: an endpoint never interned, or a pair that
// would overrun a part of a run the counting pass sized.
func (b *CSRBuilder) PlaceEdge(lu, lv int64) error {
	if !b.placing {
		return fmt.Errorf("graph: PlaceEdge before BeginPlacement")
	}
	if lu == lv {
		return nil
	}
	if b.firstID < 0 || lu != b.firstLabel {
		u, ok := b.index[lu]
		if !ok {
			return fmt.Errorf("graph: placement pass saw uncounted vertex %d", lu)
		}
		b.firstLabel, b.firstID = lu, u
	}
	v, ok := b.index[lv]
	if !ok {
		return fmt.Errorf("graph: placement pass saw uncounted vertex %d", lv)
	}
	if !b.fill.place(b.firstID, v) {
		return fmt.Errorf("graph: placement pass overflows the counted run of vertex %d or %d (stream changed between passes?)", lu, lv)
	}
	return nil
}

// Build sorts the placed runs by transposition and drops duplicates,
// producing a Graph. It fails if the placement pass delivered fewer edges
// than the counting pass promised. The builder must not be used
// afterwards.
func (b *CSRBuilder) Build() (*Graph, error) {
	if !b.placing {
		return nil, fmt.Errorf("graph: Build before BeginPlacement")
	}
	if b.fill.placed != b.fill.counted {
		return nil, fmt.Errorf("graph: placement pass delivered %d edges, counting pass saw %d", b.fill.placed, b.fill.counted)
	}
	offsets, edges, m := b.fill.finish()
	g := &Graph{offsets: offsets, edges: edges, labels: b.labels, m: m}
	b.index, b.labels, b.fill = nil, nil, csrFill{}
	return g, nil
}

// FromLabeledEdges builds a graph from labelled pairs, numbering vertices
// in first-mention order. Self-loops are dropped without interning their
// label, and duplicate edges in either orientation are dropped. It
// replays the slice through the two passes of a CSRBuilder.
func FromLabeledEdges(edges [][2]int64) *Graph {
	b := NewCSRBuilder()
	for _, e := range edges {
		b.CountEdge(e[0], e[1])
	}
	b.BeginPlacement()
	for _, e := range edges {
		if err := b.PlaceEdge(e[0], e[1]); err != nil {
			panic(err) // the replay is the counted stream, so it always fits
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
