package graph

import (
	"math/rand"
	"slices"
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

	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(int64(e[0]), int64(e[1]))
	}
	fromBuilder := b.Build()
	checkCSRInvariants(t, fromBuilder)
	if fromBuilder.NumEdges() != g.NumEdges() {
		t.Fatalf("builder m=%d, FromEdges m=%d", fromBuilder.NumEdges(), g.NumEdges())
	}

	vs := rng.Perm(n)[:n/2]
	checkCSRInvariants(t, g.InducedSubgraph(vs))
	checkCSRInvariants(t, g.SpanningSubgraph(edges[:100]))
	checkCSRInvariants(t, g.RemoveEdges(edges[:50]))
	checkCSRInvariants(t, g.Clone())
}

// TestCSRBuilderMatchesBuilder diffs Builder's sort-free fill (buildCSR)
// against CSRBuilder's sorted runs on random multigraphs whose pairs come
// in both orientations, repeated, and mixed with self-loops.
func TestCSRBuilderMatchesBuilder(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Int63n(100)
		type edge struct{ u, v int64 }
		edges := make([]edge, rng.Intn(500))
		for i := range edges {
			edges[i] = edge{rng.Int63n(n), rng.Int63n(n)}
		}

		b := NewBuilder(int(n))
		for _, e := range edges {
			b.AddEdge(e.u, e.v)
		}
		want := b.Build()

		cb := NewCSRBuilder()
		for _, e := range edges {
			cb.CountEdge(e.u, e.v)
		}
		cb.BeginPlacement()
		for _, e := range edges {
			if err := cb.PlaceEdge(e.u, e.v); err != nil {
				t.Fatal(err)
			}
		}
		got, err := cb.Build()
		if err != nil {
			t.Fatal(err)
		}

		if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("seed %d: shape %v vs %v", seed, got, want)
		}
		for v := 0; v < want.NumVertices(); v++ {
			if got.Label(v) != want.Label(v) {
				t.Fatalf("seed %d: label mismatch at %d: %d vs %d", seed, v, got.Label(v), want.Label(v))
			}
			if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
				t.Fatalf("seed %d: run of %d is %v, Builder's %v", seed, v, got.Neighbors(v), want.Neighbors(v))
			}
		}
		checkCSRInvariants(t, got)
		checkCSRInvariants(t, want)
	}
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

// TestBuilderBuildAllocs guards the flat construction of Build: the CSR
// assembly itself may allocate only the offsets, edge and fill-cursor
// arrays (plus the Graph header).
func TestBuilderBuildAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type edge struct{ u, v int64 }
	edges := make([]edge, 20000)
	for i := range edges {
		edges[i] = edge{rng.Int63n(5000), rng.Int63n(5000)}
	}
	allocs := testing.AllocsPerRun(5, func() {
		b := NewBuilder(5000)
		for _, e := range edges {
			b.AddEdge(e.u, e.v)
		}
		b.Build()
	})
	// Builder accumulation (map + labels + endpoint slices with amortized
	// doubling) plus the four Build allocations; the slice-of-slices
	// layout cost ~47k allocations on this input.
	if allocs > 100 {
		t.Fatalf("builder path allocates %.0f times, want <= 100", allocs)
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
