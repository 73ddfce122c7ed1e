package kvcc_test

import (
	"fmt"
	"sort"

	"kvcc"
	"kvcc/graph"
)

// Build the paper's Fig. 2 shape: two K5 cliques sharing two vertices.
// With k = 3 the shared pair is a qualified vertex cut, so the cliques are
// reported as two overlapping 3-VCCs.
func ExampleEnumerate() {
	var edges [][2]int64
	cliques := [][]int64{
		{0, 1, 2, 3, 4},
		{3, 4, 5, 6, 7},
	}
	for _, c := range cliques {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				edges = append(edges, [2]int64{c[i], c[j]})
			}
		}
	}
	g := graph.FromLabeledEdges(edges)

	res, err := kvcc.Enumerate(g, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("3-VCCs:", len(res.Components))
	for _, comp := range res.Components {
		labels := append([]int64(nil), comp.Labels()...)
		sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
		fmt.Println(labels)
	}
	fmt.Println("overlap:", res.OverlapMatrix()[0][1], "vertices")
	// Output:
	// 3-VCCs: 2
	// [0 1 2 3 4]
	// [3 4 5 6 7]
	// overlap: 2 vertices
}

// Vertex connectivity queries follow the paper's definitions: κ(C6) = 2,
// and the returned witness cut disconnects the cycle.
func ExampleVertexConnectivity() {
	var edges [][2]int
	for i := 0; i < 6; i++ {
		edges = append(edges, [2]int{i, (i + 1) % 6})
	}
	g := graph.FromEdges(6, edges)
	fmt.Println("κ =", kvcc.VertexConnectivity(g))
	fmt.Println("cut size =", len(kvcc.MinimumVertexCut(g)))
	// Output:
	// κ = 2
	// cut size = 2
}

// EnumerateContaining answers the paper's case-study question — "which
// k-VCCs contain this vertex?" — without enumerating unrelated regions.
func ExampleEnumerateContaining() {
	var edges [][2]int64
	for _, c := range [][]int64{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}} {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				edges = append(edges, [2]int64{c[i], c[j]})
			}
		}
	}
	edges = append(edges, [2]int64{4, 5}) // weak link between the cliques
	g := graph.FromLabeledEdges(edges)

	res, err := kvcc.EnumerateContaining(g, 3, []int64{7})
	if err != nil {
		panic(err)
	}
	fmt.Println("components containing 7:", len(res.Components))
	fmt.Println("size:", res.Components[0].NumVertices())
	// Output:
	// components containing 7: 1
	// size: 5
}
