package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func path(n int) *Graph {
	edges := make([][2]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return FromEdges(n, edges)
}

func cycle(n int) *Graph {
	edges := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return FromEdges(n, edges)
}

func complete(n int) *Graph {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return FromEdges(n, edges)
}

func randomGraph(n int, p float64, rng *rand.Rand) *Graph {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return FromEdges(n, edges)
}

func TestEmptyGraph(t *testing.T) {
	g := FromEdges(0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g.IsConnected() {
		t.Fatal("empty graph must not be connected")
	}
	if v, _ := g.MinDegreeVertex(); v != -1 {
		t.Fatalf("MinDegreeVertex on empty graph = %d, want -1", v)
	}
	if g.MaxDegree() != 0 {
		t.Fatalf("MaxDegree on empty graph = %d", g.MaxDegree())
	}
}

func TestSingleVertex(t *testing.T) {
	g := FromEdges(1, nil)
	if !g.IsConnected() {
		t.Fatal("single vertex must be connected")
	}
	if got := g.ConnectedComponents(); len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("components = %v", got)
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	g := FromLabeledEdges([][2]int64{
		{10, 20},
		{20, 10}, // duplicate, reversed
		{10, 20}, // duplicate
		{10, 10}, // self-loop
		{20, 30},
		{40, 40}, // self-loop on an unseen label: never interned
	})
	if g.NumVertices() != 3 {
		t.Fatalf("n = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatalf("unexpected adjacency: %v %v %v", g.Neighbors(0), g.Neighbors(1), g.Neighbors(2))
	}
	if g.Label(0) != 10 || g.Label(1) != 20 || g.Label(2) != 30 {
		t.Fatalf("labels = %v", g.Labels())
	}
}

func TestFromEdgesPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	FromEdges(2, [][2]int{{0, 5}})
}

func TestDegreesAndStats(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	if g.Degree(0) != 3 || g.Degree(3) != 1 {
		t.Fatalf("degrees: %d %d", g.Degree(0), g.Degree(3))
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if v, d := g.MinDegreeVertex(); v != 3 || d != 1 {
		t.Fatalf("MinDegreeVertex = (%d,%d)", v, d)
	}
}

func TestHasEdgeSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(30, 0.2, rng)
	for u := 0; u < g.NumVertices(); u++ {
		for v := 0; v < g.NumVertices(); v++ {
			if g.HasEdge(u, v) != g.HasEdge(v, u) {
				t.Fatalf("asymmetric HasEdge(%d,%d)", u, v)
			}
		}
		if g.HasEdge(u, u) {
			t.Fatalf("self-loop reported at %d", u)
		}
	}
}

func TestAdjacencySortedInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(50, 0.15, rng)
	sub := g.InducedSubgraph([]int{40, 3, 17, 25, 8, 2, 33})
	for _, gr := range []*Graph{g, sub, gr(sub)} {
		for v := 0; v < gr.NumVertices(); v++ {
			if !sort.IntsAreSorted(gr.Neighbors(v)) {
				t.Fatalf("adjacency of %d not sorted: %v", v, gr.Neighbors(v))
			}
		}
	}
}

func gr(g *Graph) *Graph { return g.Clone() }

func TestInducedSubgraphLabels(t *testing.T) {
	g := complete(5)
	sub := g.InducedSubgraph([]int{4, 1, 3})
	if sub.NumVertices() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("sub = %v", sub)
	}
	want := []int64{4, 1, 3}
	if !reflect.DeepEqual(sub.Labels(), want) {
		t.Fatalf("labels = %v, want %v", sub.Labels(), want)
	}
	// Nested induction keeps the original labels.
	sub2 := sub.InducedSubgraph([]int{2, 0})
	if sub2.Label(0) != 3 || sub2.Label(1) != 4 {
		t.Fatalf("nested labels = %v", sub2.Labels())
	}
	if !sub2.HasEdge(0, 1) {
		t.Fatal("edge (3,4) lost in nested induction")
	}
}

func TestInducedSubgraphDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate vertices")
		}
	}()
	complete(4).InducedSubgraph([]int{1, 1})
}

func TestSpanningSubgraph(t *testing.T) {
	g := complete(4)
	sp := g.SpanningSubgraphScratch([][2]int{{0, 1}, {1, 2}, {2, 2}, {0, 1}}, &FillScratch{})
	if sp.NumVertices() != 4 {
		t.Fatalf("n = %d", sp.NumVertices())
	}
	if sp.NumEdges() != 2 {
		t.Fatalf("m = %d", sp.NumEdges())
	}
	if sp.Label(3) != g.Label(3) {
		t.Fatal("labels not preserved")
	}
}

// One FillScratch reused over graphs that grow and shrink must build the
// same adjacency as FromEdges on the same pairs: stale counts and edges
// left in its arrays by a larger graph must not leak into a smaller one.
func TestSpanningSubgraphScratchMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s FillScratch
	for _, n := range []int{30, 5, 60, 1, 12, 40} {
		g := randomGraph(n, 0.3, rng)
		var pairs [][2]int
		for _, e := range g.Edges(nil) {
			if rng.Float64() < 0.6 {
				pairs = append(pairs, e, [2]int{e[1], e[0]}) // duplicates in both orientations
			}
		}
		if n > 1 {
			pairs = append(pairs, [2]int{n - 1, n - 1}) // a self-loop to drop
		}
		want := FromEdges(n, pairs) // randomGraph's labels are its ids
		got := g.SpanningSubgraphScratch(pairs, &s)
		if !reflect.DeepEqual(got.offsets, want.offsets) || !reflect.DeepEqual(got.edges, want.edges) ||
			got.m != want.m || !reflect.DeepEqual(got.labels, want.labels) {
			t.Fatalf("n=%d: scratch-built spanning subgraph differs from FromEdges", n)
		}
	}
}

func TestRemoveEdges(t *testing.T) {
	g := cycle(5)
	h := g.RemoveEdges([][2]int{{1, 0}, {2, 3}})
	if h.NumEdges() != 3 {
		t.Fatalf("m = %d, want 3", h.NumEdges())
	}
	if h.HasEdge(0, 1) || h.HasEdge(2, 3) {
		t.Fatal("removed edge still present")
	}
	if !h.HasEdge(1, 2) {
		t.Fatal("unrelated edge dropped")
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two triangles and an isolated vertex.
	g := FromEdges(7, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if !reflect.DeepEqual(comps[0], []int{0, 1, 2}) ||
		!reflect.DeepEqual(comps[1], []int{3, 4, 5}) ||
		!reflect.DeepEqual(comps[2], []int{6}) {
		t.Fatalf("components = %v", comps)
	}
}

func TestBFSDistances(t *testing.T) {
	g := path(5)
	d := g.BFSDistances(0)
	if !reflect.DeepEqual(d, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("distances = %v", d)
	}
	// Disconnected vertex gets -1.
	g2 := FromEdges(3, [][2]int{{0, 1}})
	if d := g2.BFSDistances(0); d[2] != -1 {
		t.Fatalf("distances = %v", d)
	}
}

func TestConnectedAvoiding(t *testing.T) {
	g := cycle(6)
	if !g.ConnectedAvoiding(map[int]bool{0: true}) {
		t.Fatal("cycle minus one vertex stays connected")
	}
	if g.ConnectedAvoiding(map[int]bool{0: true, 3: true}) {
		t.Fatal("cycle minus opposite vertices disconnects")
	}
	if g.ConnectedAvoiding(map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true}) {
		t.Fatal("no vertices left counts as disconnected")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := cycle(4)
	c := g.Clone()
	if c.NumVertices() != 4 || c.NumEdges() != 4 {
		t.Fatalf("clone = %v", c)
	}
	c.edges[0] = 99
	if g.edges[0] == 99 {
		t.Fatal("clone shares adjacency storage")
	}
}

func TestEdges(t *testing.T) {
	g := complete(4)
	es := g.Edges(nil)
	if len(es) != 6 {
		t.Fatalf("edges = %v", es)
	}
	for _, e := range es {
		if e[0] >= e[1] {
			t.Fatalf("edge not canonical: %v", e)
		}
	}
}

func TestLabelIndex(t *testing.T) {
	g := FromLabeledEdges([][2]int64{{100, 200}, {200, 300}})
	idx := g.LabelIndex()
	for v := 0; v < g.NumVertices(); v++ {
		if idx[g.Label(v)] != v {
			t.Fatalf("label index mismatch at %d", v)
		}
	}
	if g.IndexOfLabel(200) != 1 || g.IndexOfLabel(999) != -1 {
		t.Fatal("IndexOfLabel wrong")
	}
}

func TestBytesAccounting(t *testing.T) {
	small := path(2)
	big := complete(50)
	if small.Bytes() >= big.Bytes() {
		t.Fatalf("Bytes not monotone: %d vs %d", small.Bytes(), big.Bytes())
	}
	if small.Bytes() <= 0 {
		t.Fatal("Bytes must be positive for non-empty graph")
	}
}

// Property: the induced subgraph of a random vertex subset has exactly the
// edges with both endpoints inside the subset.
func TestInducedSubgraphProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(5+r.Intn(20), 0.3, r)
		var vs []int
		for v := 0; v < g.NumVertices(); v++ {
			if r.Float64() < 0.5 {
				vs = append(vs, v)
			}
		}
		sub := g.InducedSubgraph(vs)
		want := 0
		for i, u := range vs {
			for j := i + 1; j < len(vs); j++ {
				if g.HasEdge(u, vs[j]) {
					want++
					if !sub.HasEdge(i, j) {
						return false
					}
				} else if sub.HasEdge(i, j) {
					return false
				}
			}
		}
		return sub.NumEdges() == want
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: handshake lemma — the sum of degrees is 2m.
func TestHandshakeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(3+r.Intn(40), 0.25, r)
		sum := 0
		for v := 0; v < g.NumVertices(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: components partition the vertex set.
func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(2+r.Intn(30), 0.08, r)
		seen := make(map[int]bool)
		total := 0
		for _, comp := range g.ConnectedComponents() {
			for _, v := range comp {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
			total += len(comp)
		}
		return total == g.NumVertices()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
