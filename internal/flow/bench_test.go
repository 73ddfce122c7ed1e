package flow

import (
	"math/rand"
	"slices"
	"testing"

	"kvcc/gen"
	"kvcc/graph"
)

func benchGraph(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
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

// BenchmarkNetworkBuild measures network construction (done once per
// GLOBAL-CUT call). The split graph is implicit in the CSR, so the build
// is an O(n) reset of the flow state.
func BenchmarkNetworkBuild(b *testing.B) {
	g := benchGraph(500, 0.05, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewNetwork(g, 20)
	}
}

// BenchmarkMinVertexCut measures one LOC-CUT test on a reused network,
// the innermost hot path of the enumeration.
func BenchmarkMinVertexCut(b *testing.B) {
	g := benchGraph(500, 0.05, 1)
	nw := NewNetwork(g, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.MinVertexCut(0, 250+i%200)
	}
}

// BenchmarkMinVertexCutCold measures the worst case for the zero-reset
// engine: a fresh network built from a cold scratch for every query, so
// nothing is pooled and nothing amortizes.
func BenchmarkMinVertexCutCold(b *testing.B) {
	g := benchGraph(500, 0.05, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := NewNetwork(g, 20)
		nw.MinVertexCut(0, 250+i%200)
	}
}

// BenchmarkMinVertexCutWarm measures the steady state of the enumeration
// recursion: a pooled scratch rebuilds the network in place and the
// query undoes only what the previous one touched. Allocs/op must be 0
// (guarded by TestMinVertexCutZeroAllocsSteadyState and
// TestNetworkScratchRebuildZeroAllocs).
func BenchmarkMinVertexCutWarm(b *testing.B) {
	g := benchGraph(500, 0.05, 1)
	var s Scratch
	nw := NewNetworkScratch(g, 20, &s)
	nw.MinVertexCut(0, 250)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := NewNetworkScratch(g, 20, &s)
		nw.MinVertexCut(0, 250+i%200)
	}
}

// BenchmarkMinVertexCutDense exercises the early-termination path where
// κ(u,v) >= bound and all bound augmenting paths are found.
func BenchmarkMinVertexCutDense(b *testing.B) {
	g := benchGraph(200, 0.3, 2)
	nw := NewNetwork(g, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.MinVertexCut(0, 100+i%90)
	}
}

// BenchmarkMinVertexCutFarFirst replays the access pattern of GLOBAL-CUT's
// phase 1 on one planted block (600 vertices, κ >= 25): a minimum-degree
// source tested against every non-adjacent vertex in non-ascending BFS
// distance, ties by ascending id, at bound 20. Every query proves
// κ >= bound, the case that dominates enumeration time.
func BenchmarkMinVertexCutFarFirst(b *testing.B) {
	g, _ := gen.Planted(gen.PlantedConfig{Communities: 1, MinSize: 600, MaxSize: 600, IntraProb: 0.07, Seed: 1})
	u, _ := g.MinDegreeVertex()
	dist := g.BFSDistances(u)
	var sinks []int
	for v := range dist {
		if v != u && !g.HasEdge(u, v) {
			sinks = append(sinks, v)
		}
	}
	slices.SortStableFunc(sinks, func(a, c int) int { return dist[c] - dist[a] })
	nw := NewNetwork(g, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.MinVertexCut(u, sinks[i%len(sinks)])
	}
}

// BenchmarkGlobalVertexConnectivity measures the unoptimized global κ
// computation used by the public facade.
func BenchmarkGlobalVertexConnectivity(b *testing.B) {
	g := benchGraph(150, 0.1, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GlobalVertexConnectivity(g, 10)
	}
}
