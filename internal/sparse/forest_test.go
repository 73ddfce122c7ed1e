package sparse

import (
	"math/rand"
	"testing"

	"kvcc/graph"
)

// forestIndices runs the certificate's forest decomposition of g alone
// and returns the edges of F_1 ∪ ... ∪ F_k with, parallel to them, the
// index i of the forest F_i each edge joined.
func forestIndices(g *graph.Graph, k int) ([][2]int, []int32) {
	var s Scratch
	decompose(g, k, &s)
	return s.certEdges, s.forest
}

// components counts the connected components of the graph on n vertices
// with the given edges.
func components(n int, edges [][2]int) int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	c := n
	for _, e := range edges {
		if ra, rb := find(e[0]), find(e[1]); ra != rb {
			parent[ra] = rb
			c--
		}
	}
	return c
}

// Each F_i (i <= k) of the one-pass decomposition must be a maximal
// spanning forest of G_{i-1} = G - F_1 - ... - F_{i-1}: its edges come
// from G_{i-1} with no edge repeated, it is acyclic, and it has as many
// components as G_{i-1} — a forest with fewer edges would leave some
// component of G_{i-1} split.
func TestForestDecompositionMaximal(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomConnectedGraph(n, 0.05+0.6*rng.Float64(), rng)
		for k := 1; k <= 6; k++ {
			edges, forest := forestIndices(g, k)
			byForest := make([][][2]int, k+1)
			seen := make(map[[2]int]bool)
			for j, e := range edges {
				u, v := min(e[0], e[1]), max(e[0], e[1])
				if !g.HasEdge(u, v) || seen[[2]int{u, v}] {
					t.Fatalf("seed %d k=%d: edge %v not in G or repeated", seed, k, e)
				}
				seen[[2]int{u, v}] = true
				i := forest[j]
				if i < 1 || int(i) > k {
					t.Fatalf("seed %d k=%d: edge %v in forest %d", seed, k, e, i)
				}
				byForest[i] = append(byForest[i], [2]int{u, v})
			}
			// rest holds the edges of G_{i-1} as i advances.
			rest := g.Edges(nil)
			for i := 1; i <= k; i++ {
				f := byForest[i]
				if c := components(n, f); c != n-len(f) {
					t.Fatalf("seed %d k=%d: F_%d has a cycle", seed, k, i)
				}
				if cf, cg := n-len(f), components(n, rest); cf != cg {
					t.Fatalf("seed %d k=%d: F_%d has %d components, G_%d has %d",
						seed, k, i, cf, i-1, cg)
				}
				inF := make(map[[2]int]bool, len(f))
				for _, e := range f {
					inF[e] = true
				}
				kept := rest[:0]
				for _, e := range rest {
					if !inF[e] {
						kept = append(kept, e)
					}
				}
				if len(rest)-len(kept) != len(f) {
					t.Fatalf("seed %d k=%d: F_%d uses edges outside G_%d", seed, k, i, i-1)
				}
				rest = kept
			}
		}
	}
}
