package flow

import (
	"fmt"
	"math/rand"
	"testing"

	"kvcc/graph"
	"kvcc/internal/verify"
)

func complete(n int) *graph.Graph {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return graph.FromEdges(n, edges)
}

func cycle(n int) *graph.Graph {
	var edges [][2]int
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return graph.FromEdges(n, edges)
}

// petersen returns the Petersen graph: 3-regular, vertex connectivity 3.
func petersen() *graph.Graph {
	var edges [][2]int
	for i := 0; i < 5; i++ {
		edges = append(edges,
			[2]int{i, (i + 1) % 5},     // outer cycle
			[2]int{i + 5, (i+2)%5 + 5}, // inner pentagram
			[2]int{i, i + 5},           // spokes
		)
	}
	return graph.FromEdges(10, edges)
}

// wheel returns a wheel W_n: a hub connected to an n-cycle. κ = 3.
func wheel(n int) *graph.Graph {
	var edges [][2]int
	for i := 1; i <= n; i++ {
		edges = append(edges, [2]int{0, i})
		next := i + 1
		if next > n {
			next = 1
		}
		edges = append(edges, [2]int{i, next})
	}
	return graph.FromEdges(n+1, edges)
}

func randomConnectedGraph(n int, p float64, rng *rand.Rand) *graph.Graph {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{rng.Intn(i), i}) // random spanning tree
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return graph.FromEdges(n, edges)
}

func TestMinVertexCutAdjacentAndSelf(t *testing.T) {
	g := cycle(4)
	nw := NewNetwork(g, 2)
	if _, _, atLeast := nw.MinVertexCut(0, 1); !atLeast {
		t.Fatal("adjacent pair must report atLeastBound")
	}
	if _, _, atLeast := nw.MinVertexCut(2, 2); !atLeast {
		t.Fatal("identical pair must report atLeastBound")
	}
}

func TestMinVertexCutCycle(t *testing.T) {
	g := cycle(6)
	nw := NewNetwork(g, 5)
	cut, c, atLeast := nw.MinVertexCut(0, 3)
	if atLeast || c != 2 || len(cut) != 2 {
		t.Fatalf("cycle cut = %v (κ=%d, atLeast=%v), want size 2", cut, c, atLeast)
	}
	// Verify the cut really separates.
	avoid := map[int]bool{}
	for _, v := range cut {
		avoid[v] = true
	}
	if g.ConnectedAvoiding(avoid) {
		t.Fatalf("returned cut %v does not disconnect the cycle", cut)
	}
}

// TestMinVertexCutEarlyTermination runs K4 minus the edge (0,1), where
// 0 and 1 are non-adjacent and {2,3} is their only separator, so
// κ(0,1) = 2: at bound 2 the query stops early with atLeastBound, and at
// bound 3 it returns the cut {2,3}.
func TestMinVertexCutEarlyTermination(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	nw := NewNetwork(g, 2)
	_, _, atLeast := nw.MinVertexCut(0, 1)
	if !atLeast {
		t.Fatal("κ(0,1)=2 should report atLeastBound at bound=2")
	}
	nw3 := NewNetwork(g, 3)
	cut, c, atLeast := nw3.MinVertexCut(0, 1)
	if atLeast || c != 2 {
		t.Fatalf("κ(0,1) = %d (atLeast=%v), want 2", c, atLeast)
	}
	if len(cut) != 2 || !((cut[0] == 2 && cut[1] == 3) || (cut[0] == 3 && cut[1] == 2)) {
		t.Fatalf("cut = %v, want {2,3}", cut)
	}
}

// TestEarlyTerminationFarBelowKappa pins the early-termination contract.
// K10 minus the edge (0,1) has κ(0,1) = 8: a bound far below κ must still
// report atLeastBound, on a fresh and on a pooled network, and a bound
// above it must return the cut.
func TestEarlyTerminationFarBelowKappa(t *testing.T) {
	var edges [][2]int
	for _, e := range cliqueEdges(0, 10) {
		if e != [2]int{0, 1} {
			edges = append(edges, e)
		}
	}
	k10 := graph.FromEdges(10, edges)
	var s Scratch
	for _, nw := range []*Network{NewNetwork(k10, 3), NewNetworkScratch(k10, 3, &s)} {
		if _, _, atLeast := nw.MinVertexCut(0, 1); !atLeast {
			t.Fatal("κ=8 >= bound 3 must report atLeastBound")
		}
	}
	for _, nw := range []*Network{NewNetwork(k10, 9), NewNetworkScratch(k10, 9, &s)} {
		cut, c, atLeast := nw.MinVertexCut(0, 1)
		if atLeast || c != 8 || len(cut) != 8 {
			t.Fatalf("κ(0,1) = %d atLeast=%v cut=%v, want 8", c, atLeast, cut)
		}
	}
}

// TestAdversarialShapesAgainstUncappedFlow sweeps shapes that stress a
// bounded flow: cuts far from the source (barbell, lollipop), no small cut
// at all (Harary), and a hub cut shared by many sides (star of cliques). These
// are too large for the brute-force oracle, so a bounded network pooled
// across all shapes is checked against an uncapped fresh network clamped
// to the bound, and every returned cut must have the flow's size and
// separate the pair.
func TestAdversarialShapesAgainstUncappedFlow(t *testing.T) {
	shapes := []struct {
		name  string
		g     *graph.Graph
		bound int
	}{
		{"barbell", barbell(6, 4), 5},
		{"lollipop", lollipop(7, 5), 6},
		{"harary-16-4", harary(16, 4), 5},
		{"harary-24-6", harary(24, 6), 7},
		{"star-of-cliques", starOfCliques(3, 6, 2), 5},
		{"cycle", cycle(12), 3},
		{"petersen", petersen(), 4},
	}
	var s Scratch
	for _, sh := range shapes {
		n := sh.g.NumVertices()
		pooled := NewNetworkScratch(sh.g, sh.bound, &s)
		full := NewNetwork(sh.g, n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if sh.g.HasEdge(u, v) {
					continue
				}
				_, want, _ := full.MinVertexCut(u, v)
				cut, c, atLeast := pooled.MinVertexCut(u, v)
				if want >= sh.bound {
					if !atLeast {
						t.Fatalf("%s (%d,%d): κ=%d >= bound %d but got (%d,%v)",
							sh.name, u, v, want, sh.bound, c, atLeast)
					}
					continue
				}
				if atLeast || c != want || len(cut) != c {
					t.Fatalf("%s (%d,%d): got (%v,%d,%v), want κ=%d",
						sh.name, u, v, cut, c, atLeast, want)
				}
				avoid := map[int]bool{}
				for _, w := range cut {
					avoid[w] = true
				}
				if sameComp(sh.g, u, v, avoid) {
					t.Fatalf("%s: cut %v fails to separate %d and %d", sh.name, cut, u, v)
				}
			}
		}
	}
}

func TestNetworkReuse(t *testing.T) {
	g := cycle(8)
	nw := NewNetwork(g, 8)
	for trial := 0; trial < 3; trial++ {
		_, c, atLeast := nw.MinVertexCut(0, 4)
		if atLeast || c != 2 {
			t.Fatalf("trial %d: κ = %d atLeast=%v, want 2", trial, c, atLeast)
		}
	}
	if nw.FlowRuns != 3 {
		t.Fatalf("FlowRuns = %d, want 3", nw.FlowRuns)
	}
}

func TestLocalConnectivityKnownGraphs(t *testing.T) {
	p := petersen()
	if c := LocalConnectivity(p, 0, 7, 10); c != 3 {
		t.Fatalf("petersen κ(0,7) = %d, want 3", c)
	}
	w := wheel(6)
	if c := LocalConnectivity(w, 1, 4, 10); c != 3 {
		t.Fatalf("wheel κ(1,4) = %d, want 3", c)
	}
}

// barbell joins two cliques of the given size by a path of pathLen extra
// vertices: a small cut far from either end.
func barbell(size, pathLen int) *graph.Graph {
	var edges [][2]int
	for c := 0; c < 2; c++ {
		edges = append(edges, cliqueEdges(c*size, size)...)
	}
	prev := size - 1
	for p := 0; p < pathLen; p++ {
		edges = append(edges, [2]int{prev, 2*size + p})
		prev = 2*size + p
	}
	edges = append(edges, [2]int{prev, size})
	return graph.FromEdges(2*size+pathLen, edges)
}

// lollipop is a clique with a path tail: every tail vertex is an
// articulation point while the clique side has large volume.
func lollipop(cliqueSize, pathLen int) *graph.Graph {
	edges := cliqueEdges(0, cliqueSize)
	prev := cliqueSize - 1
	for p := 0; p < pathLen; p++ {
		edges = append(edges, [2]int{prev, cliqueSize + p})
		prev = cliqueSize + p
	}
	return graph.FromEdges(cliqueSize+pathLen, edges)
}

// broom joins a clique to a hub through `bridge` middle vertices, each
// adjacent to the whole clique, and fans the hub out to a ring of leaves:
// a (clique, hub) pair has its minimum cut right next to the source.
func broom(cliqueSize, bridge, leaves int) *graph.Graph {
	hub := cliqueSize + bridge
	edges := cliqueEdges(0, cliqueSize)
	for t := 0; t < bridge; t++ {
		mid := cliqueSize + t
		for i := 0; i < cliqueSize; i++ {
			edges = append(edges, [2]int{i, mid})
		}
		edges = append(edges, [2]int{mid, hub})
	}
	for l := 0; l < leaves; l++ {
		leaf := hub + 1 + l
		edges = append(edges, [2]int{hub, leaf}, [2]int{leaf, hub + 1 + (l+1)%leaves})
	}
	return graph.FromEdges(hub+1+leaves, edges)
}

// bridged joins a small clique to a random sparse side through `bridge`
// middle vertices, each adjacent to several vertices of both sides.
func bridged(small, big, bridge int, rng *rand.Rand) *graph.Graph {
	edges := cliqueEdges(0, small)
	bigAt := func(i int) int { return small + bridge + i }
	for i := 1; i < big; i++ {
		edges = append(edges, [2]int{bigAt(rng.Intn(i)), bigAt(i)})
	}
	for i := 0; i < big; i++ {
		if j := rng.Intn(big); j != i {
			edges = append(edges, [2]int{bigAt(i), bigAt(j)})
		}
	}
	for t := 0; t < bridge; t++ {
		for d := 0; d < 2; d++ {
			edges = append(edges, [2]int{small + t, rng.Intn(small)}, [2]int{small + t, bigAt(rng.Intn(big))})
		}
	}
	return graph.FromEdges(small+bridge+big, edges)
}

// harary returns the Harary graph H_{d,n} for even d (the circulant with
// offsets 1..d/2): d-regular and exactly d-connected, with no small cut
// anywhere.
func harary(n, d int) *graph.Graph {
	var edges [][2]int
	for v := 0; v < n; v++ {
		for off := 1; off <= d/2; off++ {
			edges = append(edges, [2]int{v, (v + off) % n})
		}
	}
	return graph.FromEdges(n, edges)
}

// starOfCliques attaches `arms` cliques of the given size to one shared
// hub set of `shared` vertices: the hub is the unique minimum cut between
// any two arms.
func starOfCliques(arms, size, shared int) *graph.Graph {
	edges := cliqueEdges(0, shared)
	for a := 0; a < arms; a++ {
		first := shared + a*(size-shared)
		edges = append(edges, cliqueEdges(first, size-shared)...)
		for i := first; i < first+size-shared; i++ {
			for h := 0; h < shared; h++ {
				edges = append(edges, [2]int{h, i})
			}
		}
	}
	return graph.FromEdges(shared+arms*(size-shared), edges)
}

// cliqueEdges returns the edges of a clique on vertices off..off+size-1.
func cliqueEdges(off, size int) [][2]int {
	var edges [][2]int
	for i := 0; i < size; i++ {
		for j := i + 1; j < size; j++ {
			edges = append(edges, [2]int{off + i, off + j})
		}
	}
	return edges
}

// TestLocalConnectivityAgainstBrute checks every non-adjacent pair against
// the brute-force oracle, on random connected graphs and on shapes with a
// small cut far from or right next to the source (barbell, lollipop,
// broom, bridged), no small cut at all (Harary), and a hub cut shared by
// many sides (star of cliques). Each pair is asked both uncapped and at a
// bound one below its connectivity, which must stop the flow early.
func TestLocalConnectivityAgainstBrute(t *testing.T) {
	check := func(name string, g *graph.Graph) {
		t.Helper()
		n := g.NumVertices()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if g.HasEdge(u, v) {
					continue
				}
				want := verify.LocalConnectivityBrute(g, u, v)
				if got := LocalConnectivity(g, u, v, n); got != want {
					t.Fatalf("%s: κ(%d,%d) = %d, want %d\ngraph: %v",
						name, u, v, got, want, g.Edges(nil))
				}
				if want > 1 {
					if got := LocalConnectivity(g, u, v, want-1); got != want-1 {
						t.Fatalf("%s: κ(%d,%d) capped at %d = %d", name, u, v, want-1, got)
					}
				}
			}
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(6)
		check(fmt.Sprintf("random seed %d", seed), randomConnectedGraph(n, 0.35, rng))
	}
	shapes := []struct {
		name string
		g    *graph.Graph
	}{
		{"barbell", barbell(4, 3)},
		{"lollipop", lollipop(6, 4)},
		{"broom", broom(5, 2, 5)},
		{"bridged", bridged(5, 6, 2, rand.New(rand.NewSource(7)))},
		{"harary-12-4", harary(12, 4)},
		{"star-of-cliques", starOfCliques(3, 5, 2)},
		{"cycle", cycle(12)},
		{"petersen", petersen()},
	}
	for _, s := range shapes {
		check(s.name, s.g)
	}
}

func TestCutSizesMatchFlowValue(t *testing.T) {
	for seed := int64(100); seed < 130; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(6)
		g := randomConnectedGraph(n, 0.3, rng)
		nw := NewNetwork(g, n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				cut, c, atLeast := nw.MinVertexCut(u, v)
				if atLeast {
					continue
				}
				if len(cut) != c {
					t.Fatalf("seed %d: cut %v has size %d but flow value %d", seed, cut, len(cut), c)
				}
				avoid := map[int]bool{}
				for _, w := range cut {
					avoid[w] = true
					if w == u || w == v {
						t.Fatalf("cut %v contains an endpoint (%d,%d)", cut, u, v)
					}
				}
				if sameComp(g, u, v, avoid) {
					t.Fatalf("seed %d: cut %v fails to separate %d and %d", seed, cut, u, v)
				}
			}
		}
	}
}

func sameComp(g *graph.Graph, u, v int, avoid map[int]bool) bool {
	seen := make([]bool, g.NumVertices())
	seen[u] = true
	stack := []int{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == v {
			return true
		}
		for _, w := range g.Neighbors(x) {
			if !seen[w] && !avoid[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

func TestGlobalVertexConnectivityKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"K5", complete(5), 4},
		{"C6", cycle(6), 2},
		{"petersen", petersen(), 3},
		{"wheel8", wheel(8), 3},
		{"path", graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}), 1},
		{"single", graph.FromEdges(1, nil), 0},
		{"two-isolated", graph.FromEdges(2, nil), 0},
	}
	for _, tc := range cases {
		got, cut := GlobalVertexConnectivity(tc.g, tc.g.NumVertices())
		if got != tc.want {
			t.Errorf("%s: κ = %d, want %d", tc.name, got, tc.want)
		}
		if got < tc.g.NumVertices()-1 && tc.g.IsConnected() && got > 0 {
			if len(cut) != got {
				t.Errorf("%s: witness cut %v has wrong size", tc.name, cut)
			}
		}
	}
}

func TestGlobalVertexConnectivityAgainstBrute(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		g := randomConnectedGraph(n, 0.4, rng)
		want := verify.VertexConnectivityBrute(g)
		got, _ := GlobalVertexConnectivity(g, n)
		if got != want {
			t.Fatalf("seed %d: κ = %d, want %d (edges %v)", seed, got, want, g.Edges(nil))
		}
	}
}

func TestGlobalVertexConnectivityBounded(t *testing.T) {
	g := complete(10)
	got, cut := GlobalVertexConnectivity(g, 4)
	if got != 4 || cut != nil {
		t.Fatalf("bounded κ(K10) = %d cut=%v, want 4 nil", got, cut)
	}
}

func TestNewNetworkPanicsOnBadBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNetwork(cycle(3), 0)
}
