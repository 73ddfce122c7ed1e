package core

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"kvcc/graph"
	"kvcc/internal/flow"
	"kvcc/internal/sparse"
	"kvcc/internal/verify"
)

// plantedPhase2 draws a graph for k = 6 from seed. Vertex 0 has exactly
// the six neighbours 1..6. S = {0, 1, 2, 7, 8} separates side A = {3, 4,
// 9, …} from side B = {5, 6, …}: no edge joins A and B, the other pairs of
// (S − 0) ∪ A and of (S − 0) ∪ B are edges with probability p, and 7 and 8
// are joined to each of 3..6. The seeds in TestPhase2PlantedCut were
// picked so that no vertex is a strong side-vertex and every cut of fewer
// than 6 vertices contains {0, 1, 2} (the test checks both), so 0 is the
// source, phase 1 passes, and phase 2's rounds 0 and 1 pass.
//
// Round 2 tests 3 against 4, 5 and 6 in SC − {0, 1, 2} at limit 3. Both
// partners on side B are needed (skipping two pairs would miss them), the
// round is the last one (min(|T|−4, k−2) = 2), and each B partner shares
// exactly the two neighbours 7 and 8 with 3 outside R, one short of the
// limit: counting 0 as well would wrongly free both pairs.
func plantedPhase2(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	a := []int{1, 2, 7, 8, 3, 4}
	b := []int{1, 2, 7, 8, 5, 6}
	n := 9
	for range 2 + rng.Intn(2) {
		a = append(a, n)
		n++
	}
	for range 2 {
		b = append(b, n)
		n++
	}
	p := 0.6 + 0.4*rng.Float64()
	edges := [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}}
	for _, x := range []int{7, 8} {
		for t := 3; t <= 6; t++ {
			edges = append(edges, [2]int{x, t})
		}
	}
	for _, side := range [][]int{a, b} {
		for i := range side {
			for j := i + 1; j < len(side); j++ {
				if rng.Float64() < p {
					edges = append(edges, [2]int{side[i], side[j]})
				}
			}
		}
	}
	return graph.FromEdges(n, edges)
}

// checkCut fails unless cut is a vertex cut of g with fewer than k
// vertices.
func checkCut(t *testing.T, g *graph.Graph, k int, cut []int) {
	t.Helper()
	avoid := map[int]bool{}
	for _, v := range cut {
		avoid[v] = true
	}
	if len(cut) >= k || len(avoid) != len(cut) || g.NumVertices()-len(cut) < 2 || g.ConnectedAvoiding(avoid) {
		t.Fatalf("%v is not a vertex cut of fewer than %d vertices", cut, k)
	}
}

// TestPhase2PlantedCut runs GLOBAL-CUT* on graphs whose only cuts of
// fewer than k vertices contain the source and its first two certificate
// neighbours, so phase 2 finds the cut in round 2. The cut is checked
// against the graph, and the enumeration of every sweep variant, serial
// and parallel, against the brute-force oracle.
func TestPhase2PlantedCut(t *testing.T) {
	const k = 6
	for _, seed := range []int64{3812, 4324, 9224} {
		g := plantedPhase2(seed)
		n := g.NumVertices()
		for mask := uint(0); mask < 1<<n; mask++ {
			size := bits.OnesCount(mask)
			if size >= k || n-size < 2 || mask&0b111 == 0b111 {
				continue
			}
			avoid := map[int]bool{}
			for v := 0; v < n; v++ {
				if mask>>v&1 == 1 {
					avoid[v] = true
				}
			}
			if !g.ConnectedAvoiding(avoid) {
				t.Fatalf("seed %d: cut %v misses one of 0, 1, 2", seed, verticesOf(mask, n))
			}
		}
		for _, algo := range []Algorithm{VCCEN, VCCEG, VCCEStar} {
			e := &enumerator{k: k, opts: Options{Algorithm: algo}}
			var ws workspace
			stats := &Stats{}
			if nb := sparse.Compute(g, k).SC.Neighbors(0); !slices.Equal(nb, []int{1, 2, 3, 4, 5, 6}) {
				t.Fatalf("seed %d: N_SC(0) = %v", seed, nb)
			}
			cut := e.findCutOptimized(g, stats, &ws)
			checkCut(t, g, k, cut)
			if stats.SSVDetected != 0 || stats.Phase2Pairs == 0 {
				t.Fatalf("seed %d %v: %d SSVs, %d phase-2 pairs; want phase 2 from source 0", seed, algo, stats.SSVDetected, stats.Phase2Pairs)
			}
			// R_2 = {0, 1, 2} is in the cut and 3 is not: round 2 found it.
			if !slices.Contains(cut, 0) || !slices.Contains(cut, 1) || !slices.Contains(cut, 2) || slices.Contains(cut, 3) {
				t.Fatalf("seed %d %v: cut %v was not found in round 2", seed, algo, cut)
			}
		}
		var want []*graph.Graph
		for _, labels := range verify.KVCCBrute(g, k) {
			vs := make([]int, len(labels))
			for i, l := range labels {
				vs[i] = g.IndexOfLabel(l)
			}
			want = append(want, g.InducedSubgraph(vs))
		}
		for _, algo := range []Algorithm{VCCEN, VCCEG, VCCEStar} {
			for _, par := range []int{1, 4} {
				comps, _, err := Enumerate(g, k, Options{Algorithm: algo, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if got := labelSets(comps); !equalSets(got, labelSets(want)) {
					t.Fatalf("seed %d %v parallelism %d: %v, oracle %v", seed, algo, par, got, want)
				}
			}
		}
	}
}

// verticesOf lists the vertices of a bitmask.
func verticesOf(mask uint, n int) []int {
	var vs []int
	for v := 0; v < n; v++ {
		if mask>>v&1 == 1 {
			vs = append(vs, v)
		}
	}
	return vs
}

// allPairsCut is phase 2 as Algorithm 3 states it: every pair of N_SC(u)
// in order, pairs in one side group (with the group sweep) or adjacent in
// g skipped, and the first pair with κ_SC < k returns its cut.
func allPairsCut(g *graph.Graph, cert *sparse.Certificate, k int, useGS bool, u int) []int {
	nw := flow.NewNetwork(cert.SC, k)
	nbrs := cert.SC.Neighbors(u)
	for i, a := range nbrs {
		for _, b := range nbrs[i+1:] {
			if useGS && cert.GroupID[a] >= 0 && cert.GroupID[a] == cert.GroupID[b] || g.HasEdge(a, b) {
				continue
			}
			if cut, _, atLeast := nw.MinVertexCut(a, b); !atLeast {
				return cut
			}
		}
	}
	return nil
}

// splitGraph draws a graph in which a random separator S of 1..k−1
// vertices splits two random sides, on shuffled vertex ids, with k in
// 4..6. It returns nil unless the graph is connected with minimum degree
// at least k, as every component GLOBAL-CUT* sees is.
func splitGraph(rng *rand.Rand) (*graph.Graph, int) {
	k := 4 + rng.Intn(3)
	s, a, b := 1+rng.Intn(k-1), 2+rng.Intn(k+1), 2+rng.Intn(k+1)
	n := s + a + b
	id := rng.Perm(n)
	p := 0.5 + 0.5*rng.Float64()
	// Before shuffling, S is 0..s−1, one side s..s+a−1 and the other the
	// rest; side(i)+side(j) == 3 marks a pair across the sides.
	side := func(i int) int {
		switch {
		case i < s:
			return 0
		case i < s+a:
			return 1
		}
		return 2
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if side(i)+side(j) != 3 && rng.Float64() < p {
				edges = append(edges, [2]int{id[i], id[j]})
			}
		}
	}
	g := graph.FromEdges(n, edges)
	if !g.IsConnected() {
		return nil, k
	}
	for v := 0; v < n; v++ {
		if g.Degree(v) < k {
			return nil, k
		}
	}
	return g, k
}

// TestEliminateMatchesAllPairs checks that terminal elimination returns,
// byte for byte, the cut of Algorithm 3's all-pairs phase 2 from every
// source for which phase 1 passes (κ(u, v) ≥ k for every v), and that
// every such cut is a cut. Without that equality the partitions, and so
// the Table 2 counters of the recursion, would change.
func TestEliminateMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	cuts, late := 0, 0
	for trial := 0; trial < 4000; trial++ {
		g, k := splitGraph(rng)
		if g == nil {
			continue
		}
		for u := 0; u < g.NumVertices(); u++ {
			phase1 := true
			for v := 0; v < g.NumVertices() && phase1; v++ {
				phase1 = v == u || flow.LocalConnectivity(g, u, v, k) >= k
			}
			if !phase1 {
				continue
			}
			for _, algo := range []Algorithm{VCCEN, VCCEStar} {
				e := &enumerator{k: k, opts: Options{Algorithm: algo}}
				var ws workspace
				cert := sparse.ComputeScratch(g, k, &ws.sparse)
				want := allPairsCut(g, cert, k, algo.groupSweep(), u)
				ws.cf.reset(e, g, &Stats{})
				ws.cf.setCertificate(cert, &ws.flow)
				got := ws.cf.eliminate(u)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d k=%d %v u=%d: elimination cut %v, all-pairs cut %v", trial, k, algo, u, got, want)
				}
				if got == nil {
					continue
				}
				checkCut(t, g, k, got)
				cuts++
				tn := cert.SC.Neighbors(u)
				if slices.Contains(got, tn[0]) && slices.Contains(got, tn[1]) {
					late++
				}
			}
		}
	}
	if cuts < 1000 || late < 50 {
		t.Fatalf("%d phase-2 cuts, %d found in round 2 or later; the draw is too weak", cuts, late)
	}
	t.Logf("%d phase-2 cuts, %d found in round 2 or later", cuts, late)
}
