package graph

import (
	"math/rand"
	"testing"
)

func benchGraph(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
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

// BenchmarkInducedSubgraph measures the operation at the heart of the
// overlapped partition.
func BenchmarkInducedSubgraph(b *testing.B) {
	g := benchGraph(2000, 0.01, 1)
	vs := make([]int, 0, 1000)
	for v := 0; v < 1000; v++ {
		vs = append(vs, v*2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.InducedSubgraph(vs)
	}
}

// BenchmarkInducedSubgraphScratch is the extraction as the enumeration hot
// loop runs it: renumbering buffers reused across calls.
func BenchmarkInducedSubgraphScratch(b *testing.B) {
	g := benchGraph(2000, 0.01, 1)
	vs := make([]int, 0, 1000)
	for v := 0; v < 1000; v++ {
		vs = append(vs, v*2)
	}
	var s Scratch
	g.InducedSubgraphScratch(vs, &s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.InducedSubgraphScratch(vs, &s)
	}
}

// BenchmarkConnectedComponents measures the per-level component split.
func BenchmarkConnectedComponents(b *testing.B) {
	g := benchGraph(5000, 0.001, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ConnectedComponents()
	}
}

// BenchmarkBFSDistances measures the phase-1 ordering pass.
func BenchmarkBFSDistances(b *testing.B) {
	g := benchGraph(5000, 0.002, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFSDistances(0)
	}
}

// BenchmarkBuilder measures labelled graph construction from scratch.
func BenchmarkBuilder(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	edges := make([][2]int64, 50000)
	for i := range edges {
		edges[i] = [2]int64{rng.Int63n(10000), rng.Int63n(10000)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromLabeledEdges(edges)
	}
}
