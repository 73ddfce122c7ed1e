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

// BenchmarkDeltaCompact measures one edit batch of the edit path on a
// base shaped like DBLP's (10k vertices, 68k edges): 4 inserts and 4
// deletions of base edges, then Compact. After the first op every
// deletion hits an edge of a compacted base, so the overlay always
// carries pending deletions.
func BenchmarkDeltaCompact(b *testing.B) {
	const n, m = 10_000, 68_000
	rng := rand.New(rand.NewSource(9))
	edges := make([][2]int, m)
	for i := range edges {
		edges[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	d := NewDelta(FromEdges(n, edges))
	g := d.Compact()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 4; {
			if d.InsertEdge(int64(rng.Intn(n)), int64(rng.Intn(n))) {
				k++
			}
		}
		for k := 0; k < 4; {
			u := rng.Intn(n)
			if run := g.Neighbors(u); len(run) > 0 && d.DeleteEdge(g.Label(u), g.Label(run[rng.Intn(len(run))])) {
				k++
			}
		}
		g = d.Compact()
	}
}
