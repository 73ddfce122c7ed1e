package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// checkCSRInvariants verifies the structural contract of the CSR layout:
// monotone offsets, sorted duplicate-free runs, symmetry, and no
// self-loops.
func checkCSRInvariants(t *testing.T, g *Graph) {
	t.Helper()
	offsets, edges := g.Adjacency()
	n := g.NumVertices()
	if len(offsets) != n+1 && !(n == 0 && offsets == nil) {
		t.Fatalf("offsets length %d, want %d", len(offsets), n+1)
	}
	total := 0
	for v := 0; v < n; v++ {
		if offsets[v] > offsets[v+1] {
			t.Fatalf("offsets not monotone at %d", v)
		}
		run := edges[offsets[v]:offsets[v+1]]
		total += len(run)
		prev := -1
		for _, w := range run {
			if w <= prev {
				t.Fatalf("run of %d not strictly ascending: %v", v, run)
			}
			if w == v {
				t.Fatalf("self-loop survived at %d", v)
			}
			if w < 0 || w >= n {
				t.Fatalf("neighbor %d of %d out of range", w, v)
			}
			if !g.HasEdge(w, v) {
				t.Fatalf("edge (%d,%d) not symmetric", v, w)
			}
			prev = w
		}
	}
	if total != 2*g.NumEdges() {
		t.Fatalf("entry count %d != 2m = %d", total, 2*g.NumEdges())
	}
}

func TestCSRInvariantsAcrossConstructors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var edges [][2]int
	const n = 60
	for i := 0; i < 400; i++ {
		edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)}) // dups + self-loops
	}
	g := FromEdges(n, edges)
	checkCSRInvariants(t, g)

	labelled := make([][2]int64, len(edges))
	for i, e := range edges {
		labelled[i] = [2]int64{int64(e[0]), int64(e[1])}
	}
	fromLabels := FromLabeledEdges(labelled)
	checkCSRInvariants(t, fromLabels)
	if fromLabels.NumEdges() != g.NumEdges() {
		t.Fatalf("FromLabeledEdges m=%d, FromEdges m=%d", fromLabels.NumEdges(), g.NumEdges())
	}

	vs := rng.Perm(n)[:n/2]
	checkCSRInvariants(t, g.InducedSubgraph(vs))
	checkCSRInvariants(t, g.SpanningSubgraphScratch(edges[:100], &FillScratch{}))
	checkCSRInvariants(t, g.RemoveEdges(edges[:50]))
	checkCSRInvariants(t, g.Clone())
}

func TestCSRBuilderStreamDivergence(t *testing.T) {
	cb := NewCSRBuilder()
	cb.CountEdge(1, 2)
	cb.BeginPlacement()
	if err := cb.PlaceEdge(1, 3); err == nil {
		t.Fatal("placement of uncounted vertex must fail")
	}

	cb = NewCSRBuilder()
	cb.CountEdge(1, 2)
	cb.BeginPlacement()
	if err := cb.PlaceEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := cb.PlaceEdge(1, 2); err == nil {
		t.Fatal("placing more edges than counted must fail")
	}

	cb = NewCSRBuilder()
	cb.CountEdge(1, 2)
	cb.CountEdge(2, 3)
	cb.BeginPlacement()
	if err := cb.PlaceEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Build(); err == nil {
		t.Fatal("short placement pass must fail Build")
	}

	// Every degree matches the count, but each pair's smaller endpoint
	// moved: {0,2} overruns the empty low part of 2, and {1,3} the empty
	// high part of 1. Neither may be written, and Build must not return
	// a corrupt graph.
	cb = NewCSRBuilder()
	for l := int64(0); l < 4; l++ {
		cb.InternVertex(l)
	}
	cb.CountEdge(0, 1)
	cb.CountEdge(2, 3)
	cb.BeginPlacement()
	for _, e := range [][2]int64{{0, 2}, {1, 3}} {
		if err := cb.PlaceEdge(e[0], e[1]); err == nil {
			t.Fatalf("placement of %v must fail: it leaves every degree but moves a pair's smaller endpoint", e)
		}
	}
	if g, err := cb.Build(); err == nil {
		if verr := ValidateCSR(g); verr != nil {
			t.Fatalf("Build returned a corrupt graph after a diverged placement: %v", verr)
		}
	}
}

func TestInducedSubgraphScratchReuse(t *testing.T) {
	g := benchGraph(300, 0.05, 21)
	var s Scratch
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 20; round++ {
		vs := rng.Perm(300)[:50+rng.Intn(200)]
		got := g.InducedSubgraphScratch(vs, &s)
		want := g.InducedSubgraph(vs)
		if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("round %d: scratch %v vs fresh %v", round, got, want)
		}
		checkCSRInvariants(t, got)
		for v := 0; v < got.NumVertices(); v++ {
			if got.Label(v) != want.Label(v) {
				t.Fatalf("round %d: label mismatch at %d", round, v)
			}
		}
	}
}

// TestInducedSubgraphAllocs is the allocation-regression guard for the
// overlapped-partition hot path: one extraction must cost a constant
// number of allocations (labels, offsets, edges — plus the warm-up-free
// scratch), not one per vertex as the slice-of-slices layout did.
func TestInducedSubgraphAllocs(t *testing.T) {
	g := benchGraph(2000, 0.01, 1)
	vs := make([]int, 0, 1000)
	for v := 0; v < 1000; v++ {
		vs = append(vs, v*2)
	}
	var s Scratch
	g.InducedSubgraphScratch(vs, &s) // warm the scratch
	withScratch := testing.AllocsPerRun(20, func() {
		g.InducedSubgraphScratch(vs, &s)
	})
	if withScratch > 4 {
		t.Fatalf("scratch extraction allocates %.0f times, want <= 4", withScratch)
	}
	fresh := testing.AllocsPerRun(20, func() {
		g.InducedSubgraph(vs)
	})
	if fresh > 7 {
		t.Fatalf("fresh extraction allocates %.0f times, want <= 7", fresh)
	}
}

// TestBuilderBuildAllocs guards the flat construction of a labelled
// graph: beside interning, the CSR assembly may allocate only the
// offsets, edge and fill-cursor arrays (plus the Graph header).
func TestBuilderBuildAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := make([][2]int64, 20000)
	for i := range edges {
		edges[i] = [2]int64{rng.Int63n(5000), rng.Int63n(5000)}
	}
	allocs := testing.AllocsPerRun(5, func() {
		FromLabeledEdges(edges)
	})
	// Interning (map + labels + the counting arrays, grown by amortized
	// doubling) plus the Build allocations; the slice-of-slices layout
	// cost ~47k allocations on this input.
	if allocs > 100 {
		t.Fatalf("labelled construction allocates %.0f times, want <= 100", allocs)
	}
}

func TestAdjacencySharedView(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	offsets, edges := g.Adjacency()
	if len(offsets) != 6 {
		t.Fatalf("offsets len %d", len(offsets))
	}
	for v := 0; v < 5; v++ {
		run := edges[offsets[v]:offsets[v+1]]
		nbrs := g.Neighbors(v)
		if len(run) != len(nbrs) {
			t.Fatalf("vertex %d: flat run %v vs Neighbors %v", v, run, nbrs)
		}
		for i := range run {
			if run[i] != nbrs[i] {
				t.Fatalf("vertex %d: flat run %v vs Neighbors %v", v, run, nbrs)
			}
		}
	}
}

func TestNeighborsAppendSafe(t *testing.T) {
	// Appending to a Neighbors slice must never clobber the next vertex's
	// run (the subslice is capacity-capped).
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	before := append([]int(nil), g.Neighbors(2)...)
	_ = append(g.Neighbors(1), 99)
	after := g.Neighbors(2)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("append through Neighbors corrupted the shared edge array")
		}
	}
}

func TestInducedSubgraphAscendingFastPath(t *testing.T) {
	// Ascending vs shuffled vertex orders must agree up to renumbering:
	// compare adjacency by label.
	g := benchGraph(120, 0.08, 31)
	vs := make([]int, 0, 60)
	for v := 0; v < 120; v += 2 {
		vs = append(vs, v)
	}
	asc := g.InducedSubgraph(vs)
	shuffled := append([]int(nil), vs...)
	rand.New(rand.NewSource(32)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	shuf := g.InducedSubgraph(shuffled)
	checkCSRInvariants(t, asc)
	checkCSRInvariants(t, shuf)
	if asc.NumEdges() != shuf.NumEdges() {
		t.Fatalf("m=%d vs %d", asc.NumEdges(), shuf.NumEdges())
	}
	edgeSet := func(sg *Graph) map[[2]int64]bool {
		set := map[[2]int64]bool{}
		for _, e := range sg.Edges(nil) {
			a, b := sg.Label(e[0]), sg.Label(e[1])
			if a > b {
				a, b = b, a
			}
			set[[2]int64{a, b}] = true
		}
		return set
	}
	sa, sb := edgeSet(asc), edgeSet(shuf)
	if len(sa) != len(sb) {
		t.Fatal("edge sets differ")
	}
	for e := range sa {
		if !sb[e] {
			t.Fatalf("edge %v missing from shuffled extraction", e)
		}
	}
	// The ascending extraction must preserve sorted runs without help.
	offsets, edges := asc.Adjacency()
	for v := 0; v < asc.NumVertices(); v++ {
		if !sort.IntsAreSorted(edges[offsets[v]:offsets[v+1]]) {
			t.Fatalf("ascending fast path left run of %d unsorted", v)
		}
	}
}
