package gen

import (
	"fmt"
	"math/rand"

	"kvcc/graph"
)

// Community-structured random graphs sized for the beyond-RAM serving
// benchmarks: consecutive blocks of communitySize vertices form dense
// communities (where the k-VCCs live), laced with a sparse background of
// cross-community edges. Vertex ids follow block order, so the CSR
// adjacency of a community is one local stretch of the flat edge array —
// the locality that makes paging-aware access order measurable, and the
// layout a relabeling pass would produce on a real dataset.
const (
	communitySize  = 64
	communityIntra = 0.85 // fraction of edges drawn inside a block
)

// communityEdges replays the deterministic edge stream of Community: a
// fresh generator per call, so the counting and placement passes of the
// CSR builder see the identical sequence. Self-loops and duplicates may
// be emitted; the builder drops them.
func communityEdges(n, m int, seed int64, emit func(u, v int64)) {
	rng := rand.New(rand.NewSource(seed))
	numComm := (n + communitySize - 1) / communitySize
	for i := 0; i < m; i++ {
		if rng.Float64() < communityIntra {
			c := rng.Intn(numComm)
			lo := c * communitySize
			size := communitySize
			if lo+size > n {
				size = n - lo
			}
			emit(int64(lo+rng.Intn(size)), int64(lo+rng.Intn(size)))
		} else {
			emit(int64(rng.Intn(n)), int64(rng.Intn(n)))
		}
	}
}

// Community returns the community-structured graph for (n, m, seed):
// up to m distinct edges (self-loops and collisions are dropped) over n
// vertices with labels 0..n-1 equal to ids. Deterministic in all three
// parameters. Construction is two passes of the replayable stream
// through a CSRBuilder, so peak memory is the graph itself — no edge
// list — which is what lets the benchmarks generate graphs near the
// memory budget they then serve under.
func Community(n, m int, seed int64) *graph.Graph {
	if n < 2 || m < 1 {
		panic(fmt.Sprintf("gen: bad Community parameters n=%d m=%d", n, m))
	}
	b := graph.NewCSRBuilder()
	for v := 0; v < n; v++ {
		b.InternVertex(int64(v))
	}
	communityEdges(n, m, seed, func(u, v int64) { b.CountEdge(u, v) })
	b.BeginPlacement()
	communityEdges(n, m, seed, func(u, v int64) { b.PlaceEdge(u, v) })
	g, err := b.Build()
	if err != nil {
		// The two passes replay one deterministic stream; divergence is a
		// generator bug, not an input condition.
		panic(fmt.Sprintf("gen: community build: %v", err))
	}
	return g
}

// To put a generated graph on disk, pair Community with the store
// package: store.WriteSnapshotStream(path, store.GraphStream(gen.Community(n, m, seed), 1)).
// gen deliberately does not import store — test and bench files across
// the repo import gen, and a gen→store edge would close a cycle through
// their packages.
