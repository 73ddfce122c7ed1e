// Package gen generates the synthetic graphs used to reproduce the paper's
// evaluation. The module is offline, so the seven SNAP datasets are
// replaced by deterministic generators calibrated to each dataset's
// character (see docs/DESIGN.md, "Substitutions"): random graphs, preferential
// attachment, a web-crawl copying model, planted dense communities with
// sub-k overlaps (the structure k-VCC enumeration is designed to recover),
// and collaboration ego networks for the Fig. 14 case study.
//
// Every generator is a pure function of its configuration including the
// seed, so experiments are exactly reproducible.
package gen

import (
	"fmt"
	"math/rand"
	"sort"

	"kvcc/graph"
)

// GNM returns a uniform random simple graph with n vertices and (up to) m
// distinct edges.
func GNM(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	maxEdges := n * (n - 1) / 2
	if m > maxEdges {
		m = maxEdges
	}
	seen := make(map[[2]int]bool, m)
	edges := make([][2]int, 0, m)
	for len(edges) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, [2]int{u, v})
	}
	return graph.FromEdges(n, edges)
}

// GNP returns an Erdős–Rényi G(n,p) graph.
func GNP(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return graph.FromEdges(n, edges)
}

// BarabasiAlbert grows a preferential-attachment graph: starting from a
// clique on m0 vertices, each new vertex attaches to mPer existing
// vertices chosen proportionally to degree. Produces the heavy-tailed
// degree distributions of citation and social graphs.
func BarabasiAlbert(n, m0, mPer int, seed int64) *graph.Graph {
	if m0 < 2 || mPer < 1 || mPer > m0 || n < m0 {
		panic(fmt.Sprintf("gen: bad BarabasiAlbert parameters n=%d m0=%d mPer=%d", n, m0, mPer))
	}
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	// Repeated-endpoint list for proportional sampling.
	var targets []int
	for i := 0; i < m0; i++ {
		for j := i + 1; j < m0; j++ {
			edges = append(edges, [2]int{i, j})
			targets = append(targets, i, j)
		}
	}
	chosen := make(map[int]bool, mPer)
	for v := m0; v < n; v++ {
		for k := range chosen {
			delete(chosen, k)
		}
		for len(chosen) < mPer {
			chosen[targets[rng.Intn(len(targets))]] = true
		}
		// Drain in sorted order: map iteration order would leak into the
		// targets list and break determinism.
		for _, u := range sortedKeys(chosen) {
			edges = append(edges, [2]int{u, v})
			targets = append(targets, u, v)
		}
	}
	return graph.FromEdges(n, edges)
}

// WebGraph grows a copying-model graph: each new page links to outDeg
// targets; with probability copyProb a target is copied from the link list
// of a random earlier page (creating hubs and dense local clusters, the
// signature of web crawls like Stanford/Cnr/ND).
func WebGraph(n, outDeg int, copyProb float64, seed int64) *graph.Graph {
	if n < 2 || outDeg < 1 {
		panic("gen: bad WebGraph parameters")
	}
	rng := rand.New(rand.NewSource(seed))
	adjacency := make([][]int, n)
	var edges [][2]int
	for v := 1; v < n; v++ {
		d := outDeg
		if d > v {
			d = v
		}
		chosen := map[int]bool{}
		for len(chosen) < d {
			var u int
			if rng.Float64() < copyProb && v > 1 {
				// Copy a link from a random earlier page.
				proto := rng.Intn(v)
				if len(adjacency[proto]) > 0 {
					u = adjacency[proto][rng.Intn(len(adjacency[proto]))]
				} else {
					u = proto
				}
			} else {
				u = rng.Intn(v)
			}
			if u != v {
				chosen[u] = true
			}
		}
		for _, u := range sortedKeys(chosen) {
			edges = append(edges, [2]int{u, v})
			adjacency[v] = append(adjacency[v], u)
			adjacency[u] = append(adjacency[u], v)
		}
	}
	return graph.FromEdges(n, edges)
}

func sortedKeys(set map[int]bool) []int {
	keys := make([]int, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// SampleVertices returns the subgraph induced by a uniform sample of
// round(frac*n) vertices (the paper's Fig. 13 "vary |V|" protocol).
func SampleVertices(g *graph.Graph, frac float64, seed int64) *graph.Graph {
	n := g.NumVertices()
	keep := int(frac*float64(n) + 0.5)
	if keep >= n {
		return g
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	return g.InducedSubgraph(perm[:keep])
}

// SampleEdges returns the graph on a uniform sample of round(frac*m)
// edges, with the incident vertices as the vertex set (the paper's Fig. 13
// "vary |E|" protocol).
func SampleEdges(g *graph.Graph, frac float64, seed int64) *graph.Graph {
	all := g.Edges(nil)
	keep := int(frac*float64(len(all)) + 0.5)
	if keep >= len(all) {
		return g
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	labelled := make([][2]int64, keep)
	for i, e := range all[:keep] {
		labelled[i] = [2]int64{g.Label(e[0]), g.Label(e[1])}
	}
	return graph.FromLabeledEdges(labelled)
}
