package core

import (
	"reflect"
	"slices"
	"testing"

	"kvcc/graph"
)

// twoCubes joins two 4-dimensional hypercubes, 0..15 and 16..31, by the
// edges 15–16 and 14–17. A hypercube vertex's neighbours are pairwise
// non-adjacent with two common neighbours, so at k = 3 no vertex is a
// strong side-vertex, and {14, 15} is a cut of two vertices.
func twoCubes() *graph.Graph {
	var edges [][2]int
	for _, base := range []int{0, 16} {
		for v := 0; v < 16; v++ {
			for bit := 1; bit < 16; bit <<= 1 {
				if w := v ^ bit; v < w {
					edges = append(edges, [2]int{base + v, base + w})
				}
			}
		}
	}
	edges = append(edges, [2]int{15, 16}, [2]int{14, 17})
	return graph.FromEdges(32, edges)
}

// TestFirstTestBeforeCertificate runs GLOBAL-CUT* on a component whose
// first phase-1 test fails: source 0, a minimum-degree vertex of g, against
// 30, the farthest vertex. The cut must come from that one flow on g, with
// the certificate never built.
func TestFirstTestBeforeCertificate(t *testing.T) {
	const k = 3
	g := twoCubes()
	for _, algo := range []Algorithm{VCCEN, VCCEG, VCCEStar} {
		e := &enumerator{k: k, opts: Options{Algorithm: algo}}
		var ws workspace
		stats := &Stats{}
		cut := e.findCutOptimized(g, stats, &ws)
		checkCut(t, g, k, cut)
		if !slices.Equal(cut, []int{14, 15}) {
			t.Fatalf("%v: cut %v, want the source-closest cut [14 15]", algo, cut)
		}
		if !reflect.ValueOf(ws.sparse).IsZero() {
			t.Fatalf("%v: the certificate was built", algo)
		}
		want := Stats{LocCutTests: 1, TestedNonPrune: 1, FlowRuns: 1}
		if *stats != want {
			t.Fatalf("%v: stats %+v, want one test and one flow", algo, *stats)
		}
	}
}
