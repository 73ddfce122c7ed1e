package sparse

import (
	"math/rand"
	"slices"
	"testing"

	"kvcc/graph"
	"kvcc/internal/flow"
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

func randomConnectedGraph(n int, p float64, rng *rand.Rand) *graph.Graph {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{rng.Intn(i), i})
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

func TestCertificateEdgeBound(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		g := randomConnectedGraph(n, 0.3, rng)
		for k := 1; k <= 5; k++ {
			cert := Compute(g, k)
			if cert.SC.NumEdges() > k*(n-1) {
				t.Fatalf("seed %d k %d: %d edges > k(n-1) = %d",
					seed, k, cert.SC.NumEdges(), k*(n-1))
			}
			if cert.SC.NumVertices() != n {
				t.Fatalf("certificate changed vertex count")
			}
		}
	}
}

func TestCertificateIsSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnectedGraph(30, 0.3, rng)
	cert := Compute(g, 3)
	for _, e := range cert.SC.Edges(nil) {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("certificate edge %v not in original graph", e)
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		if cert.SC.Label(v) != g.Label(v) {
			t.Fatal("labels not preserved")
		}
	}
}

func TestCertificateSmallGraphExact(t *testing.T) {
	// With k >= max degree the certificate must keep every edge.
	g := complete(5)
	cert := Compute(g, 4)
	if cert.SC.NumEdges() != g.NumEdges() {
		t.Fatalf("K5 with k=4: %d edges, want %d", cert.SC.NumEdges(), g.NumEdges())
	}
}

// Core CKT property: a vertex set of fewer than k vertices splits SC and G
// into the same parts. So for every k and every non-adjacent pair a flow
// at bound k gives the same verdict on G and on SC, and below k the same
// source-closest cut: GLOBAL-CUT* runs its first phase-1 test on G and
// the rest on SC.
func TestCertificatePreservesCappedConnectivity(t *testing.T) {
	pairs, below := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(20)
		g := randomConnectedGraph(n, 0.05+0.3*rng.Float64(), rng)
		for k := 1; k <= 5; k++ {
			cert := Compute(g, k)
			inG, inSC := flow.NewNetwork(g, k), flow.NewNetwork(cert.SC, k)
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if g.HasEdge(u, v) {
						continue
					}
					pairs++
					cutG, cG, okG := inG.MinVertexCut(u, v)
					cutSC, cSC, okSC := inSC.MinVertexCut(u, v)
					if okG != okSC || cG != cSC || !slices.Equal(cutG, cutSC) {
						t.Fatalf("seed %d k %d pair (%d,%d): G gives cut %v (κ %d, ≥k %v), SC gives %v (κ %d, ≥k %v)",
							seed, k, u, v, cutG, cG, okG, cutSC, cSC, okSC)
					}
					if !okG {
						below++
					}
				}
			}
		}
	}
	if below < 5000 || pairs-below < 5000 {
		t.Fatalf("%d pairs, %d below k; the draw is too weak", pairs, below)
	}
	t.Logf("%d pairs, %d below k", pairs, below)
}

// Every edge dropped from the certificate joins vertices that are still
// k-connected inside the certificate (the property that makes cuts of SC
// cuts of G).
func TestDroppedEdgesAreKConnectedInCertificate(t *testing.T) {
	for seed := int64(50); seed < 70; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(8)
		g := randomConnectedGraph(n, 0.5, rng)
		for k := 1; k <= 4; k++ {
			cert := Compute(g, k)
			for _, e := range g.Edges(nil) {
				if cert.SC.HasEdge(e[0], e[1]) {
					continue
				}
				c := flow.LocalConnectivity(cert.SC, e[0], e[1], k)
				if c < k {
					t.Fatalf("seed %d k %d: dropped edge %v has κ_SC = %d < k",
						seed, k, e, c)
				}
			}
		}
	}
}

// A (<k)-vertex cut of the certificate must disconnect the original graph.
func TestCertificateCutsApplyToOriginal(t *testing.T) {
	for seed := int64(200); seed < 230; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(10)
		g := randomConnectedGraph(n, 0.25, rng)
		k := 2 + rng.Intn(3)
		cert := Compute(g, k)
		kappa, cut := flow.GlobalVertexConnectivity(cert.SC, k)
		if kappa >= k || cut == nil {
			continue // certificate (hence g) is k-connected
		}
		avoid := map[int]bool{}
		for _, v := range cut {
			avoid[v] = true
		}
		if g.ConnectedAvoiding(avoid) {
			t.Fatalf("seed %d: cut %v of SC does not disconnect G", seed, cut)
		}
	}
}

func TestSideGroupsPairwiseKConnected(t *testing.T) {
	tested := 0
	for seed := int64(0); seed < 40 && tested < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(10)
		g := randomConnectedGraph(n, 0.5, rng)
		k := 3
		cert := Compute(g, k)
		for _, group := range cert.SideGroups {
			tested++
			for i := 0; i < len(group); i++ {
				for j := i + 1; j < len(group); j++ {
					u, v := group[i], group[j]
					if g.HasEdge(u, v) {
						continue
					}
					if c := flow.LocalConnectivity(g, u, v, k); c < k {
						t.Fatalf("seed %d: side-group pair (%d,%d) has κ = %d < %d",
							seed, u, v, c, k)
					}
				}
			}
		}
	}
	if tested == 0 {
		t.Skip("no side-groups generated; loosen generator parameters")
	}
}

func TestSideGroupInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomConnectedGraph(40, 0.4, rng)
	k := 3
	cert := Compute(g, k)
	seen := make(map[int]int)
	for id, group := range cert.SideGroups {
		if len(group) <= k {
			t.Fatalf("side-group %d has %d <= k members", id, len(group))
		}
		for _, v := range group {
			if cert.GroupID[v] != id {
				t.Fatalf("GroupID[%d] = %d, want %d", v, cert.GroupID[v], id)
			}
			if prev, dup := seen[v]; dup {
				t.Fatalf("vertex %d in groups %d and %d", v, prev, id)
			}
			seen[v] = id
		}
	}
	for v, id := range cert.GroupID {
		if id == -1 {
			if _, in := seen[v]; in {
				t.Fatalf("vertex %d marked -1 but in a group", v)
			}
		}
	}
}

func TestComputePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Compute(complete(3), 0)
}

func TestCertificateEmptyAndTinyGraphs(t *testing.T) {
	empty := graph.FromEdges(0, nil)
	cert := Compute(empty, 2)
	if cert.SC.NumVertices() != 0 || len(cert.SideGroups) != 0 {
		t.Fatal("empty graph certificate wrong")
	}
	single := graph.FromEdges(1, nil)
	cert = Compute(single, 3)
	if cert.SC.NumVertices() != 1 || cert.SC.NumEdges() != 0 {
		t.Fatal("single vertex certificate wrong")
	}
}

// TestComputeScratchCarriesAcrossRounds is the allocation-regression guard
// for the construction scratch: one decomposition pass fills a fixed set
// of buffers whatever k is, so the allocation count of Compute must stay
// essentially flat as k grows.
func TestComputeScratchCarriesAcrossRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomConnectedGraph(300, 0.1, rng)
	allocsAt := func(k int) float64 {
		return testing.AllocsPerRun(10, func() { Compute(g, k) })
	}
	low, high := allocsAt(2), allocsAt(10)
	// Five times the rounds may not cost more than a small additive
	// overhead (side-group bookkeeping shrinks as forests thin out, and
	// certEdges may re-grow once past the heuristic cap).
	if high > low+20 {
		t.Fatalf("allocations grow with rounds: k=2 -> %.0f, k=10 -> %.0f", low, high)
	}
	// And the total must be far below one allocation per vertex.
	if low > 60 {
		t.Fatalf("Compute allocates %.0f times on a 300-vertex graph", low)
	}
}
