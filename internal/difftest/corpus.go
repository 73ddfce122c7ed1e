package difftest

import (
	"kvcc/gen"
	"kvcc/graph"
)

// Case is one corpus entry: a graph plus the k range worth diffing on it.
type Case struct {
	Name string
	G    *graph.Graph
	// MaxK bounds the per-k variant comparisons.
	MaxK int
}

// Corpus returns the generator-driven graph set for the full differential
// suite: random models, planted community structure, and adversarial
// shapes that pin down cut behavior.
func Corpus() []Case {
	planted, _ := gen.Planted(gen.PlantedConfig{
		Communities: 6, MinSize: 8, MaxSize: 14, IntraProb: 0.85,
		ChainOverlap: 2, ChainEvery: 2, BridgeEdges: 4,
		NoiseVertices: 50, NoiseDegree: 2, Seed: 11,
	})
	plantedDense, _ := gen.Planted(gen.PlantedConfig{
		Communities: 4, MinSize: 10, MaxSize: 16, IntraProb: 0.95,
		ChainOverlap: 3, ChainEvery: 1, BridgeEdges: 6,
		NoiseVertices: 20, NoiseDegree: 3, Seed: 23,
	})
	return []Case{
		// Random models.
		{"gnp-sparse", gen.GNP(50, 0.10, 1), 4},
		{"gnp-dense", gen.GNP(40, 0.30, 2), 8},
		{"gnm", gen.GNM(60, 240, 3), 6},
		{"barabasi-albert", gen.BarabasiAlbert(80, 5, 3, 4), 5},
		{"web-copying", gen.WebGraph(80, 4, 0.5, 5), 5},
		// Planted community structure (the paper's workload).
		{"planted", planted, 7},
		{"planted-dense", plantedDense, 9},
		// Adversarial shapes.
		{"clique-chain-subk-overlap", CliqueChain(5, 8, 3), 6},    // overlaps < k stay separate
		{"two-cliques-exact-overlap", TwoCliquesSharing(8, 4), 6}, // overlap = k must merge at k
		{"two-cliques-cut-vertex", TwoCliquesSharing(6, 1), 6},    // articulation point
		{"cycle", Cycle(30), 3},                                   // one 2-VCC, nothing deeper
		{"complete-bipartite", CompleteBipartite(5, 9), 6},        // κ = min side
		{"barbell", Barbell(7, 5), 7},                             // cliques joined by a path
		{"hypercube", Hypercube(4), 5},                            // 4-regular, 4-connected
		{"wheel", Wheel(12), 4},                                   // hub + cycle, κ = 3
		{"grid", Grid(6, 7), 3},                                   // planar, κ = 2
		{"disconnected-scraps", DisconnectedScraps(), 5},          // components + isolated vertices
		{"star", Star(20), 2},                                     // no 2-VCC at all
		// Cut-placement shapes: dense volume behind tiny cuts (barbell
		// above, lollipop), no small cut at all (expander), and one
		// shared cut serving many sides (star of cliques).
		{"lollipop", Lollipop(8, 6), 7},                     // clique + dangling path
		{"harary-expander", Harary(40, 8), 9},               // 8-regular, κ = 8, no local exit
		{"star-of-cliques", StarOfCliques(4, 8, 3), 6},      // hub set is every minimum cut
		{"star-of-cliques-deep", StarOfCliques(6, 7, 2), 6}, // more arms, thinner hub
	}
}

// OracleCorpus returns tiny graphs for the exponential brute-force
// comparison (n <= OracleVertexLimit).
func OracleCorpus() []Case {
	return []Case{
		{"oracle-gnp-1", gen.GNP(8, 0.4, 31), 4},
		{"oracle-gnp-2", gen.GNP(9, 0.5, 32), 5},
		{"oracle-gnp-3", gen.GNP(10, 0.35, 33), 4},
		{"oracle-gnm", gen.GNM(9, 18, 34), 4},
		{"oracle-two-k4s", TwoCliquesSharing(4, 1), 3},
		{"oracle-two-k5s-overlap-3", TwoCliquesSharing(5, 3), 4},
		{"oracle-cycle", Cycle(9), 3},
		{"oracle-bipartite", CompleteBipartite(3, 5), 4},
		{"oracle-wheel", Wheel(8), 4},
		{"oracle-star", Star(9), 2},
	}
}

// CliqueChain chains `blocks` cliques of the given size, consecutive
// blocks sharing `overlap` vertices. With overlap below k every block is
// its own k-VCC; the chain tempts the partitioner into bad cuts.
func CliqueChain(blocks, size, overlap int) *graph.Graph {
	if overlap >= size {
		panic("difftest: overlap must be below block size")
	}
	n := size + (blocks-1)*(size-overlap)
	var edges [][2]int
	start := 0
	for b := 0; b < blocks; b++ {
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				edges = append(edges, [2]int{start + i, start + j})
			}
		}
		start += size - overlap
	}
	return graph.FromEdges(n, edges)
}

// TwoCliquesSharing joins two cliques of the given size on `shared`
// common vertices. For k <= shared the union is one k-VCC (the shared set
// is the unique minimum cut, of size exactly `shared`); for k > shared
// the cliques separate.
func TwoCliquesSharing(size, shared int) *graph.Graph {
	if shared >= size {
		panic("difftest: shared must be below clique size")
	}
	n := 2*size - shared
	var edges [][2]int
	for i := 0; i < size; i++ {
		for j := i + 1; j < size; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	off := size - shared
	for i := 0; i < size; i++ {
		for j := i + 1; j < size; j++ {
			edges = append(edges, [2]int{off + i, off + j})
		}
	}
	return graph.FromEdges(n, edges)
}

// Cycle returns the n-cycle: 2-connected everywhere, 3-connected nowhere.
func Cycle(n int) *graph.Graph {
	edges := make([][2]int, n)
	for i := 0; i < n; i++ {
		edges[i] = [2]int{i, (i + 1) % n}
	}
	return graph.FromEdges(n, edges)
}

// CompleteBipartite returns K_{a,b}, whose connectivity is min(a, b) with
// every minimum cut one full side — the worst case for neighbor sweeps.
func CompleteBipartite(a, b int) *graph.Graph {
	var edges [][2]int
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			edges = append(edges, [2]int{i, a + j})
		}
	}
	return graph.FromEdges(a+b, edges)
}

// Barbell joins two cliques of the given size by a path of pathLen extra
// vertices: the path survives no 2-core of interest, the cliques are deep.
func Barbell(size, pathLen int) *graph.Graph {
	n := 2*size + pathLen
	var edges [][2]int
	for c := 0; c < 2; c++ {
		off := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				edges = append(edges, [2]int{off + i, off + j})
			}
		}
	}
	prev := size - 1 // last vertex of the first clique
	for p := 0; p < pathLen; p++ {
		edges = append(edges, [2]int{prev, 2*size + p})
		prev = 2*size + p
	}
	edges = append(edges, [2]int{prev, size}) // first vertex of the second clique
	return graph.FromEdges(n, edges)
}

// Lollipop attaches a path of pathLen vertices to one vertex of a
// clique: the classic lollipop graph. The path peels away under any
// k-core with k >= 2, but before that the attachment vertex is an
// articulation point — a size-1 cut guarding a dense far side, the shape
// a local cut search should resolve without exploring the clique.
func Lollipop(cliqueSize, pathLen int) *graph.Graph {
	n := cliqueSize + pathLen
	var edges [][2]int
	for i := 0; i < cliqueSize; i++ {
		for j := i + 1; j < cliqueSize; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	prev := 0
	for p := 0; p < pathLen; p++ {
		edges = append(edges, [2]int{prev, cliqueSize + p})
		prev = cliqueSize + p
	}
	return graph.FromEdges(n, edges)
}

// Harary returns the circulant Harary graph H_{d,n} for even d: every
// vertex adjacent to its d/2 nearest neighbors on each side of a ring.
// It is d-regular and exactly d-connected — an expander-like shape with
// no small cut anywhere, so a budget-bounded local search can never
// exhaust and must fall back on every query below the bound.
func Harary(n, d int) *graph.Graph {
	if d%2 != 0 || d >= n {
		panic("difftest: Harary wants even d < n")
	}
	var edges [][2]int
	for v := 0; v < n; v++ {
		for off := 1; off <= d/2; off++ {
			edges = append(edges, [2]int{v, (v + off) % n})
		}
	}
	return graph.FromEdges(n, edges)
}

// StarOfCliques joins `arms` cliques of the given size through one shared
// hub set of `shared` vertices common to all of them. The hub is the
// unique minimum cut between any two arms, so every partition step must
// rediscover the same `shared`-sized cut, and for k <= shared all arms
// merge into a single k-VCC.
func StarOfCliques(arms, size, shared int) *graph.Graph {
	if shared >= size {
		panic("difftest: shared must be below clique size")
	}
	own := size - shared
	n := shared + arms*own
	var edges [][2]int
	for a := 0; a < arms; a++ {
		// The clique = hub vertices 0..shared-1 plus this arm's own block.
		vs := make([]int, 0, size)
		for h := 0; h < shared; h++ {
			vs = append(vs, h)
		}
		for i := 0; i < own; i++ {
			vs = append(vs, shared+a*own+i)
		}
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				edges = append(edges, [2]int{vs[i], vs[j]})
			}
		}
	}
	return graph.FromEdges(n, edges)
}

// Hypercube returns the dim-dimensional hypercube: dim-regular and
// exactly dim-connected, with no cut smaller than a full neighborhood.
func Hypercube(dim int) *graph.Graph {
	n := 1 << dim
	var edges [][2]int
	for v := 0; v < n; v++ {
		for b := 0; b < dim; b++ {
			w := v ^ (1 << b)
			if v < w {
				edges = append(edges, [2]int{v, w})
			}
		}
	}
	return graph.FromEdges(n, edges)
}

// Wheel returns the wheel on n vertices: a hub adjacent to an (n-1)-cycle.
func Wheel(n int) *graph.Graph {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
		next := i + 1
		if next == n {
			next = 1
		}
		edges = append(edges, [2]int{i, next})
	}
	return graph.FromEdges(n, edges)
}

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int) *graph.Graph {
	var edges [][2]int
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	return graph.FromEdges(rows*cols, edges)
}

// Star returns K_{1,n-1}: connected but with no 2-VCC (no cycle at all).
func Star(n int) *graph.Graph {
	edges := make([][2]int, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return graph.FromEdges(n, edges)
}

// DisconnectedScraps combines a K5, a K4, a triangle, a path and isolated
// vertices in one graph — the component-split and k-core paths must keep
// them straight.
func DisconnectedScraps() *graph.Graph {
	var edges [][2]int
	addClique := func(vs []int) {
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				edges = append(edges, [2]int{vs[i], vs[j]})
			}
		}
	}
	addClique([]int{0, 1, 2, 3, 4})
	addClique([]int{5, 6, 7, 8})
	addClique([]int{9, 10, 11})
	edges = append(edges, [2]int{12, 13}, [2]int{13, 14}) // path
	return graph.FromEdges(17, edges)                     // 15, 16 isolated
}
