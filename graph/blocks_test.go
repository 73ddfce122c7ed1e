package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// cutVertices is the brute-force oracle: v is a cut vertex when deleting
// it disconnects the connected component that holds it.
func cutVertices(g *Graph) map[int]bool {
	cuts := make(map[int]bool)
	for _, comp := range g.ConnectedComponents() {
		if len(comp) < 3 {
			continue
		}
		sub := g.InducedSubgraph(comp)
		for i, v := range comp {
			if !sub.ConnectedAvoiding(map[int]bool{i: true}) {
				cuts[v] = true
			}
		}
	}
	return cuts
}

// checkBlocks holds BiconnectedBlocks to the definition of a block, with
// s reused across calls so stale scratch state would show.
func checkBlocks(t *testing.T, g *Graph, s *Scratch) {
	t.Helper()
	blocks, starts := g.BiconnectedBlocks(s)
	n := g.NumVertices()

	// The component grouping matches ConnectedComponents.
	comps := g.ConnectedComponents()
	if len(starts) != len(comps)+1 || starts[0] != 0 || starts[len(comps)] != len(blocks) {
		t.Fatalf("starts %v for %d components and %d blocks", starts, len(comps), len(blocks))
	}
	for c, comp := range comps {
		seen := make(map[int]bool)
		for _, b := range blocks[starts[c]:starts[c+1]] {
			for _, v := range b {
				seen[v] = true
			}
		}
		if len(seen) != len(comp) {
			t.Fatalf("component %d: blocks cover %d of %d vertices", c, len(seen), len(comp))
		}
		for _, v := range comp {
			if !seen[v] {
				t.Fatalf("component %d: vertex %d in no block", c, v)
			}
		}
	}

	in := make([][]int, n) // blocks holding each vertex
	for id, b := range blocks {
		if len(b) == 0 || !sort.IntsAreSorted(b) {
			t.Fatalf("block %d not ascending: %v", id, b)
		}
		for i, v := range b {
			if i > 0 && b[i-1] == v {
				t.Fatalf("block %d repeats vertex %d", id, v)
			}
			in[v] = append(in[v], id)
		}
		sub := g.InducedSubgraph(b)
		switch {
		case len(b) == 1:
			if g.Degree(b[0]) != 0 {
				t.Fatalf("one-vertex block %v on a vertex with neighbours", b)
			}
		case len(b) == 2:
			if !g.HasEdge(b[0], b[1]) {
				t.Fatalf("two-vertex block %v is not an edge", b)
			}
		default:
			// No block of three or more vertices has a cut vertex.
			if !sub.IsConnected() {
				t.Fatalf("block %v is disconnected", b)
			}
			for i := range b {
				if !sub.ConnectedAvoiding(map[int]bool{i: true}) {
					t.Fatalf("block %v has cut vertex %d", b, b[i])
				}
			}
		}
		// Maximality: every component of g minus the block attaches to at
		// most one block vertex, so no path outside it joins two of them.
		inBlock := make(map[int]bool, len(b))
		for _, v := range b {
			inBlock[v] = true
		}
		var rest []int
		for v := 0; v < n; v++ {
			if !inBlock[v] {
				rest = append(rest, v)
			}
		}
		outside := g.InducedSubgraph(rest)
		for _, comp := range outside.ConnectedComponents() {
			attach := make(map[int]bool)
			for _, i := range comp {
				for _, w := range g.Neighbors(rest[i]) {
					if inBlock[w] {
						attach[w] = true
					}
				}
			}
			if len(attach) > 1 {
				t.Fatalf("block %v is not maximal: a path outside it joins %v", b, attach)
			}
		}
	}

	// Every edge lies in exactly one block.
	for _, e := range g.Edges(nil) {
		count := 0
		for _, id := range in[e[0]] {
			for _, id2 := range in[e[1]] {
				if id == id2 {
					count++
				}
			}
		}
		if count != 1 {
			t.Fatalf("edge %v lies in %d blocks", e, count)
		}
	}

	// Two blocks share at most one vertex, and the shared vertices are
	// exactly the cut vertices.
	shared := make(map[[2]int]int)
	cuts := cutVertices(g)
	for v, ids := range in {
		if (len(ids) > 1) != cuts[v] {
			t.Fatalf("vertex %d: in %d blocks, cut vertex %v", v, len(ids), cuts[v])
		}
		for i := range ids {
			for j := i + 1; j < len(ids); j++ {
				pair := [2]int{ids[i], ids[j]}
				if shared[pair]++; shared[pair] > 1 {
					t.Fatalf("blocks %v and %v share more than one vertex", blocks[ids[i]], blocks[ids[j]])
				}
			}
		}
	}
}

func TestBiconnectedBlocksShapes(t *testing.T) {
	var s Scratch
	twoTriangles := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}})
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"empty", &Graph{}},
		{"isolated", FromEdges(3, nil)},
		{"path", path(6)},
		{"cycle", cycle(7)},
		{"complete", complete(5)},
		{"two-triangles", twoTriangles},
		{"star", FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})},
	} {
		t.Run(tc.name, func(t *testing.T) { checkBlocks(t, tc.g, &s) })
	}
	blocks, starts := twoTriangles.BiconnectedBlocks(&s)
	if want := [][]int{{2, 3, 4}, {0, 1, 2}}; !reflect.DeepEqual(blocks, want) || !reflect.DeepEqual(starts, []int{0, 2}) {
		t.Fatalf("two triangles: blocks %v starts %v, want %v [0 2]", blocks, starts, want)
	}
	if blocks, _ := cycle(5).BiconnectedBlocks(&s); len(blocks) != 1 || len(blocks[0]) != 5 {
		t.Fatalf("a cycle is one block, got %v", blocks)
	}
}

// Random small graphs, connected and disconnected, against the oracle.
func TestBiconnectedBlocksRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var s Scratch
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(14)
		g := randomGraph(n, 0.05+0.5*rng.Float64(), rng)
		if trial%2 == 0 {
			// A spanning path makes the graph connected.
			edges := g.Edges(nil)
			for v := 0; v+1 < n; v++ {
				edges = append(edges, [2]int{v, v + 1})
			}
			g = FromEdges(n, edges)
		}
		checkBlocks(t, g, &s)
	}
}

// FuzzBiconnectedBlocks decodes a graph on up to 16 vertices (the first
// byte is n, each following byte pair an edge) and checks its blocks
// against the oracle.
func FuzzBiconnectedBlocks(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 0, 2, 2, 3, 3, 4, 2, 4})
	f.Add([]byte{9, 0, 1, 1, 2, 2, 3, 3, 0, 4, 5, 5, 6, 6, 4, 3, 4, 7, 8})
	f.Add([]byte{1})
	var s Scratch
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+2*64 {
			return
		}
		n := 1 + int(data[0])%16
		var edges [][2]int
		for data = data[1:]; len(data) >= 2; data = data[2:] {
			edges = append(edges, [2]int{int(data[0]) % n, int(data[1]) % n})
		}
		checkBlocks(t, FromEdges(n, edges), &s)
	})
}
