package sparse

import (
	"fmt"
	"math/rand"
	"testing"

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

// BenchmarkCompute measures certificate construction with SC, which VCCE
// pays once per GLOBAL-CUT call; GLOBAL-CUT* builds only the forests, and
// only after its first phase-1 test passes. The decomposition pass meets
// each of the 42k edges once whatever k is; what still grows with k is
// building the SC graph from the edges it keeps (about 10k at k=5, 34k at
// k=20 and 42k at k=30), so time tracks the certificate's size, not k
// passes over the whole graph.
func BenchmarkCompute(b *testing.B) {
	g := benchGraph(2000, 0.02, 1)
	for _, k := range []int{5, 20, 30} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Compute(g, k)
			}
		})
	}
}
