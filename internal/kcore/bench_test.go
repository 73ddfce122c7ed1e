package kcore

import (
	"math/rand"
	"testing"

	"kvcc/graph"
)

func benchGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]int, m)
	for i := range edges {
		edges[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	return graph.FromEdges(n, edges)
}

// BenchmarkCoreNumbers measures the full O(n+m) decomposition.
func BenchmarkCoreNumbers(b *testing.B) {
	g := benchGraph(20000, 100000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CoreNumbers(g)
	}
}

// BenchmarkReduce measures the k-core reduction applied at every level of
// KVCC-ENUM.
func BenchmarkReduce(b *testing.B) {
	g := benchGraph(20000, 100000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reduce(g, 8)
	}
}
