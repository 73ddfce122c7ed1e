package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"kvcc/graph"
	"kvcc/internal/flow"
	"kvcc/internal/verify"
)

var allAlgorithms = []Algorithm{VCCE, VCCEN, VCCEG, VCCEStar}

func enumerate(t *testing.T, g *graph.Graph, k int, algo Algorithm) []*graph.Graph {
	t.Helper()
	comps, _, err := Enumerate(g, k, Options{Algorithm: algo})
	if err != nil {
		t.Fatalf("Enumerate(k=%d, %v): %v", k, algo, err)
	}
	return comps
}

// labelSets converts components to sorted label slices, sorted overall, for
// comparison.
func labelSets(comps []*graph.Graph) [][]int64 {
	out := make([][]int64, 0, len(comps))
	for _, c := range comps {
		ls := append([]int64(nil), c.Labels()...)
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		out = append(out, ls)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
	return out
}

func equalSets(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func complete(n int) *graph.Graph {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return graph.FromEdges(n, edges)
}

// twoCliquesSharing builds two K_size cliques overlapping in `shared`
// vertices (the paper's Fig. 2 shape).
func twoCliquesSharing(size, shared int) *graph.Graph {
	n := 2*size - shared
	var edges [][2]int
	add := func(vs []int) {
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				edges = append(edges, [2]int{vs[i], vs[j]})
			}
		}
	}
	c1 := make([]int, size)
	for i := range c1 {
		c1[i] = i
	}
	c2 := make([]int, size)
	for i := range c2 {
		if i < shared {
			c2[i] = size - shared + i // overlap vertices
		} else {
			c2[i] = size + i - shared
		}
	}
	add(c1)
	add(c2)
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

// plantedGraph builds several dense communities chained with small vertex
// overlaps plus background noise — the structure KVCC-ENUM is designed for.
func plantedGraph(rng *rand.Rand, communities, size int, p float64, overlap int) *graph.Graph {
	var edges [][2]int
	base := 0
	var prev []int
	n := 0
	for c := 0; c < communities; c++ {
		vs := make([]int, size)
		for i := range vs {
			if i < overlap && prev != nil {
				vs[i] = prev[len(prev)-overlap+i]
			} else {
				vs[i] = base
				base++
			}
		}
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if rng.Float64() < p {
					edges = append(edges, [2]int{vs[i], vs[j]})
				}
			}
		}
		prev = vs
		if vs[size-1] >= n {
			n = vs[size-1] + 1
		}
	}
	// Background noise: sparse random edges.
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			edges = append(edges, [2]int{i, rng.Intn(n)})
		}
	}
	return graph.FromEdges(n, edges)
}

func TestEnumerateErrors(t *testing.T) {
	if _, _, err := Enumerate(nil, 3, Options{}); err == nil {
		t.Fatal("nil graph must error")
	}
	if _, _, err := Enumerate(complete(3), 0, Options{}); err == nil {
		t.Fatal("k=0 must error")
	}
}

func TestCompleteGraphSingleVCC(t *testing.T) {
	for _, algo := range allAlgorithms {
		comps := enumerate(t, complete(6), 4, algo)
		if len(comps) != 1 || comps[0].NumVertices() != 6 {
			t.Fatalf("%v: K6 with k=4: got %d components", algo, len(comps))
		}
	}
}

func TestKTooLargeGivesNothing(t *testing.T) {
	for _, algo := range allAlgorithms {
		comps := enumerate(t, complete(5), 5, algo)
		if len(comps) != 0 {
			t.Fatalf("%v: K5 with k=5 should have no k-VCC (needs >5 vertices)", algo)
		}
	}
}

func TestKEqualsOneGivesComponents(t *testing.T) {
	// Components of size >= 2 are exactly the 1-VCCs.
	g := graph.FromEdges(7, [][2]int{{0, 1}, {1, 2}, {3, 4}, {5, 5}})
	for _, algo := range allAlgorithms {
		comps := enumerate(t, g, 1, algo)
		got := labelSets(comps)
		want := canonical([][]int64{{0, 1, 2}, {3, 4}})
		if !equalSets(got, want) {
			t.Fatalf("%v: 1-VCCs = %v, want %v", algo, got, want)
		}
	}
}

func TestTwoOverlappingCliques(t *testing.T) {
	// Two K5s sharing 2 vertices: with k=3 the shared pair is a cut, so
	// the two cliques are separate 3-VCCs that overlap in the pair.
	g := twoCliquesSharing(5, 2)
	for _, algo := range allAlgorithms {
		comps := enumerate(t, g, 3, algo)
		if len(comps) != 2 {
			t.Fatalf("%v: got %d 3-VCCs, want 2 (%v)", algo, len(comps), labelSets(comps))
		}
		for _, c := range comps {
			if c.NumVertices() != 5 {
				t.Fatalf("%v: component sizes %v", algo, labelSets(comps))
			}
		}
		// With k=2 the union stays 2-connected: one 2-VCC.
		comps2 := enumerate(t, g, 2, algo)
		if len(comps2) != 1 || comps2[0].NumVertices() != 8 {
			t.Fatalf("%v: 2-VCCs = %v", algo, labelSets(comps2))
		}
	}
}

// paperFigure1 reproduces the qualitative structure of the paper's Fig. 1:
// G1 and G2 are dense blocks sharing one edge (a,b); G2 and G3 share one
// vertex c; G3 and G4 are joined by two independent edges.
func paperFigure1() (*graph.Graph, [][]int64) {
	var edges [][2]int
	clique := func(vs []int) {
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				edges = append(edges, [2]int{vs[i], vs[j]})
			}
		}
	}
	// G1: vertices 0-8 with a=7, b=8. Use K6 on {0,1,2,3,7,8}.
	g1 := []int{0, 1, 2, 3, 7, 8}
	// G2: {7,8,9,10,11,12} — shares the edge (7,8) with G1.
	g2 := []int{7, 8, 9, 10, 11, 12}
	// G3: {12,13,14,15,16,17} — shares vertex c=12 with G2.
	g3 := []int{12, 13, 14, 15, 16, 17}
	// G4: {18,19,20,21,22}.
	g4 := []int{18, 19, 20, 21, 22}
	clique(g1)
	clique(g2)
	clique(g3)
	clique(g4)
	// Two loose edges joining G3 and G4 (no shared vertices).
	edges = append(edges, [2]int{16, 18}, [2]int{17, 19})
	g := graph.FromEdges(23, edges)
	want := canonical([][]int64{
		{0, 1, 2, 3, 7, 8},
		{7, 8, 9, 10, 11, 12},
		{12, 13, 14, 15, 16, 17},
		{18, 19, 20, 21, 22},
	})
	return g, want
}

func TestPaperFigure1(t *testing.T) {
	g, want := paperFigure1()
	for _, algo := range allAlgorithms {
		comps := enumerate(t, g, 4, algo)
		got := labelSets(comps)
		if !equalSets(got, want) {
			t.Fatalf("%v: 4-VCCs = %v, want %v", algo, got, want)
		}
	}
}

func TestAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(7) // up to 12 vertices
		g := randomConnectedGraph(n, 0.25+rng.Float64()*0.45, rng)
		for k := 2; k <= 4; k++ {
			want := canonical(verify.KVCCBrute(g, k))
			for _, algo := range allAlgorithms {
				comps := enumerate(t, g, k, algo)
				got := labelSets(comps)
				if !equalSets(got, want) {
					t.Fatalf("seed %d k %d %v:\n got %v\nwant %v\nedges %v",
						seed, k, algo, got, want, g.Edges(nil))
				}
			}
		}
	}
}

func canonical(sets [][]int64) [][]int64 {
	for _, s := range sets {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i], sets[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
	return sets
}

// All four variants must produce identical results on larger structured
// graphs (cross-validation without an oracle).
func TestVariantsAgreeOnPlantedGraphs(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := plantedGraph(rng, 4+rng.Intn(3), 12+rng.Intn(6), 0.75, 2)
		k := 5 + rng.Intn(3)
		base := labelSets(enumerate(t, g, k, VCCE))
		for _, algo := range []Algorithm{VCCEN, VCCEG, VCCEStar} {
			got := labelSets(enumerate(t, g, k, algo))
			if !equalSets(base, got) {
				t.Fatalf("seed %d k %d: %v disagrees with VCCE\nVCCE: %v\n%v:   %v",
					seed, k, algo, base, algo, got)
			}
		}
	}
}

// Structural invariants from Section 2.2 hold for every output.
func TestOutputInvariants(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := plantedGraph(rng, 5, 14, 0.7, 2)
		k := 6
		comps := enumerate(t, g, k, VCCEStar)
		if int64(len(comps)) > int64(g.NumVertices())/2 {
			t.Fatalf("seed %d: %d components exceeds n/2 bound", seed, len(comps))
		}
		for ci, c := range comps {
			if c.NumVertices() <= k {
				t.Fatalf("seed %d: component %d has %d <= k vertices", seed, ci, c.NumVertices())
			}
			// k-connected: no cut below k.
			kappa, _ := flow.GlobalVertexConnectivity(c, k)
			if kappa < k {
				t.Fatalf("seed %d: component %d has connectivity %d < %d", seed, ci, kappa, k)
			}
			// Minimum degree >= k (nested in a k-core).
			if _, d := c.MinDegreeVertex(); d < k {
				t.Fatalf("seed %d: component %d has min degree %d < %d", seed, ci, d, k)
			}
		}
		// Pairwise overlap < k (Property 1).
		for i := 0; i < len(comps); i++ {
			li := map[int64]bool{}
			for _, l := range comps[i].Labels() {
				li[l] = true
			}
			for j := i + 1; j < len(comps); j++ {
				shared := 0
				for _, l := range comps[j].Labels() {
					if li[l] {
						shared++
					}
				}
				if shared >= k {
					t.Fatalf("seed %d: components %d,%d overlap in %d >= k vertices", seed, i, j, shared)
				}
			}
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := plantedGraph(rng, 6, 13, 0.75, 2)
		k := 6
		serial, _, err := Enumerate(g, k, Options{Algorithm: VCCEStar})
		if err != nil {
			t.Fatal(err)
		}
		parallel, _, err := Enumerate(g, k, Options{Algorithm: VCCEStar, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !equalSets(labelSets(serial), labelSets(parallel)) {
			t.Fatalf("seed %d: parallel result differs", seed)
		}
	}
}

func TestStatsPlausibility(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := plantedGraph(rng, 6, 14, 0.75, 2)
	k := 6
	_, st, err := Enumerate(g, k, Options{Algorithm: VCCEStar})
	if err != nil {
		t.Fatal(err)
	}
	if st.GlobalCutCalls == 0 {
		t.Fatal("expected at least one GLOBAL-CUT call")
	}
	if st.CutFallbacks != 0 {
		t.Fatalf("defensive fallback fired %d times; sparse certificate bug?", st.CutFallbacks)
	}
	if st.PeakBytes <= 0 {
		t.Fatal("peak bytes not tracked")
	}
	// The optimized variant must test far fewer vertices than the basic one.
	_, stBasic, err := Enumerate(g, k, Options{Algorithm: VCCE})
	if err != nil {
		t.Fatal(err)
	}
	if st.LocCutTests > stBasic.LocCutTests {
		t.Fatalf("VCCE* ran more LOC-CUT tests (%d) than VCCE (%d)",
			st.LocCutTests, stBasic.LocCutTests)
	}
}

func TestStatsSweepAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := plantedGraph(rng, 6, 15, 0.8, 2)
	k := 7
	_, st, err := Enumerate(g, k, Options{Algorithm: VCCEStar})
	if err != nil {
		t.Fatal(err)
	}
	swept := st.SweptNS1 + st.SweptNS2 + st.SweptGS
	if swept == 0 {
		t.Fatal("expected some vertices to be swept on a planted community graph")
	}
	if st.TestedNonPrune == 0 {
		t.Fatal("some vertices must still be tested")
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		VCCE: "VCCE", VCCEN: "VCCE-N", VCCEG: "VCCE-G", VCCEStar: "VCCE*",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
	if got := Algorithm(99).String(); got != "Algorithm(99)" {
		t.Fatalf("unknown algorithm string = %q", got)
	}
}

func TestDisconnectedInput(t *testing.T) {
	// Two disjoint K5s: each a 3-VCC.
	var edges [][2]int
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, [2]int{i, j}, [2]int{i + 5, j + 5})
		}
	}
	g := graph.FromEdges(10, edges)
	for _, algo := range allAlgorithms {
		comps := enumerate(t, g, 3, algo)
		if len(comps) != 2 {
			t.Fatalf("%v: got %d components, want 2", algo, len(comps))
		}
	}
}

func TestDeterministicOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := plantedGraph(rng, 5, 12, 0.8, 2)
	first := fmt.Sprint(labelSets(enumerate(t, g, 5, VCCEStar)))
	for i := 0; i < 3; i++ {
		again := fmt.Sprint(labelSets(enumerate(t, g, 5, VCCEStar)))
		if first != again {
			t.Fatal("non-deterministic output ordering")
		}
	}
}
