package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// cutSidesOracle lists, for every connected component of g − cut, the
// component plus the cut, ascending, in order of each component's
// smallest vertex.
func cutSidesOracle(g *Graph, cut []int) [][]int {
	inCut := make(map[int]bool, len(cut))
	for _, v := range cut {
		inCut[v] = true
	}
	var rest []int
	for v := 0; v < g.NumVertices(); v++ {
		if !inCut[v] {
			rest = append(rest, v)
		}
	}
	var sides [][]int
	for _, comp := range g.InducedSubgraph(rest).ConnectedComponents() {
		side := append([]int(nil), cut...)
		for _, i := range comp {
			side = append(side, rest[i])
		}
		sort.Ints(side)
		sides = append(sides, side)
	}
	return sides
}

// TestCutSidesScratch checks CutSidesScratch against the oracle on random
// graphs and cuts, with one Scratch that also extracts every side, as an
// overlapped partition does.
func TestCutSidesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var s Scratch
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(30)
		g := randomGraph(n, 0.02+0.3*rng.Float64(), rng)
		cut := rng.Perm(n)[:rng.Intn(min(n, 5)+1)]
		want := cutSidesOracle(g, cut)
		got := g.CutSidesScratch(cut, &s)
		var copied [][]int
		for _, side := range got {
			copied = append(copied, append([]int(nil), side...))
			g.InducedSubgraphScratch(side, &s)
		}
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(copied, want) || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: cut %v: sides %v (after extraction %v), want %v", trial, cut, copied, got, want)
		}
	}
}
