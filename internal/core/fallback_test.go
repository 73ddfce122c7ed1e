package core

import (
	"strings"
	"testing"

	"kvcc/graph"
)

// findCutBasic on the raw component is the defensive path used if a
// certificate cut ever failed to disconnect; exercise it directly.
func TestFindCutRaw(t *testing.T) {
	e := &enumerator{k: 3, opts: Options{}}
	stats := &Stats{}
	var ws workspace

	// Two K4s sharing two vertices: raw search must find the 2-cut.
	var edges [][2]int
	for _, c := range [][]int{{0, 1, 2, 3}, {2, 3, 4, 5}} {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				edges = append(edges, [2]int{c[i], c[j]})
			}
		}
	}
	g := graph.FromEdges(6, edges)
	cut := e.findCutBasic(g, g, stats, &ws)
	if len(cut) != 2 {
		t.Fatalf("raw cut = %v, want size 2", cut)
	}
	avoid := map[int]bool{}
	for _, v := range cut {
		avoid[v] = true
	}
	if g.ConnectedAvoiding(avoid) {
		t.Fatalf("raw cut %v does not disconnect", cut)
	}

	// A k-connected graph yields no cut.
	k4 := graph.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if cut := e.findCutBasic(k4, k4, stats, &ws); cut != nil {
		t.Fatalf("K4 raw cut = %v, want nil at k=3", cut)
	}
}

func TestStatsString(t *testing.T) {
	s := &Stats{GlobalCutCalls: 3, Partitions: 2, LocCutTests: 40, FlowRuns: 11}
	out := s.String()
	for _, want := range []string{"global-cuts=3", "partitions=2", "loc-cut=40", "flows=11"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Stats.String() = %q missing %q", out, want)
		}
	}
}
