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

// petersen is the Petersen graph: outer cycle 0..4, spokes i–(i+5) and
// inner pentagram 5..9. It is 3-regular and 3-connected with girth 5, so
// two non-adjacent vertices have exactly one common neighbour, and each of
// the other two neighbours of one is adjacent to exactly one of the other
// two of the other: three disjoint paths of length at most 3. At k = 3 no
// vertex is a strong side-vertex.
func petersen() *graph.Graph {
	var edges [][2]int
	for i := 0; i < 5; i++ {
		edges = append(edges, [2]int{i, (i + 1) % 5}, [2]int{i, i + 5}, [2]int{5 + i, 5 + (i+2)%5})
	}
	return graph.FromEdges(10, edges)
}

// TestProbeSettledByShortPaths runs GLOBAL-CUT* at k = 3 on the Petersen
// graph. The probe tests source 0 against 2, which share the neighbour 1
// and are joined by 0–4–3–2 and 0–5–7–2, so it passes with no flow and the
// certificate is built after it. Every later phase-1 test is adjacent or
// has its three short paths too, and with |N_SC(0)| = 3 phase 2 has no
// round, so the whole search runs no flow.
func TestProbeSettledByShortPaths(t *testing.T) {
	const k = 3
	g := petersen()
	for _, tc := range []struct {
		algo Algorithm
		want Stats
	}{
		{VCCEN, Stats{LocCutTests: 6, TestedNonPrune: 6, SweptNS2: 3}},
		{VCCEG, Stats{LocCutTests: 9, TestedNonPrune: 9}},
		{VCCEStar, Stats{LocCutTests: 6, TestedNonPrune: 6, SweptNS2: 3}},
	} {
		e := &enumerator{k: k, opts: Options{Algorithm: tc.algo}}
		var ws workspace
		stats := &Stats{}
		if cut := e.findCutOptimized(g, stats, &ws); cut != nil {
			t.Fatalf("%v: cut %v of a 3-connected graph", tc.algo, cut)
		}
		if reflect.ValueOf(ws.sparse).IsZero() {
			t.Fatalf("%v: the certificate was not built after the probe passed", tc.algo)
		}
		if *stats != tc.want {
			t.Fatalf("%v: stats %+v, want %+v and no flow", tc.algo, *stats, tc.want)
		}
	}
}
