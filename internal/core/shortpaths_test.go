package core

import (
	"math/rand"
	"testing"

	"kvcc/graph"
	"kvcc/internal/flow"
)

// hubGraph joins a few hubs to most of n vertices and adds a sparse random
// background, so most pairs meet through many common neighbours and many
// paths of length 3.
func hubGraph(rng *rand.Rand, n int) *graph.Graph {
	hubs := 1 + rng.Intn(6)
	var edges [][2]int
	for h := 0; h < hubs; h++ {
		for v := hubs; v < n; v++ {
			if rng.Float64() < 0.7 {
				edges = append(edges, [2]int{h, v})
			}
		}
	}
	for i := 0; i < 2*n; i++ {
		edges = append(edges, [2]int{hubs + rng.Intn(n-hubs), hubs + rng.Intn(n-hubs)})
	}
	return graph.FromEdges(n, edges)
}

// randomGraph is G(n, p) on n vertices.
func randomGraph(rng *rand.Rand, n int, p float64) *graph.Graph {
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

// checkShortPaths tests every pair (a, b) with b outside r and not adjacent
// to a, under one setSource, at the given limit: when shortPathsAtLeast
// says yes, the flow on g − r, run on the cut finder's own network, must
// reach the limit. An SSV test runs
// between queries, as the sweeps run one between phase-1 tests. It
// returns how many pairs the helper settled and how many the flow passed.
func checkShortPaths(t *testing.T, cf *cutFinder, a int, r []int, limit int) (settled, passed int) {
	t.Helper()
	g, nw := cf.g, cf.nw
	inR := make([]bool, g.NumVertices())
	for _, v := range r {
		inR[v] = true
	}
	cf.setSource(a, r)
	nw.Exclude(r)
	for b := 0; b < g.NumVertices(); b++ {
		if b == a || inR[b] {
			continue
		}
		if cf.adjacent(b) != g.HasEdge(a, b) {
			t.Fatalf("adjacent(%d) = %v for source %d", b, cf.adjacent(b), a)
		}
		if cf.adjacent(b) {
			continue
		}
		yes := cf.shortPathsAtLeast(b, limit)
		cf.checkSSV(b)
		_, kappa, atLeast := nw.MinVertexCutLimit(a, b, limit)
		if yes && !atLeast {
			t.Fatalf("a=%d b=%d R=%v limit=%d: short paths say at least %d, the flow finds %d", a, b, r, limit, limit, kappa)
		}
		if yes {
			settled++
		}
		if atLeast {
			passed++
		}
	}
	return settled, passed
}

// TestShortPathsSound checks shortPathsAtLeast against the flow on random,
// planted and hub graphs of 10-120 vertices with random exclusion sets and
// limits: a "yes" must be a test the flow passes.
func TestShortPathsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	settled, passed := 0, 0
	for trial := 0; trial < 300; trial++ {
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			n := 10 + rng.Intn(111)
			g = randomGraph(rng, n, (2+18*rng.Float64())/float64(n))
		case 1:
			g = plantedGraph(rng, 2+rng.Intn(4), 5+rng.Intn(26), 0.5+0.5*rng.Float64(), rng.Intn(4))
		default:
			g = hubGraph(rng, 10+rng.Intn(111))
		}
		n := g.NumVertices()
		k := 1 + rng.Intn(12)
		e := &enumerator{k: k, opts: Options{Algorithm: VCCEStar}}
		var cf cutFinder
		cf.reset(e, g, &Stats{}, &flow.Scratch{})
		for range 3 {
			a := rng.Intn(n)
			r := make([]int, 0, k)
			for _, v := range rng.Perm(n)[:rng.Intn(min(k, n))] {
				if v != a {
					r = append(r, v)
				}
			}
			s, p := checkShortPaths(t, &cf, a, r, 1+rng.Intn(k))
			settled += s
			passed += p
		}
	}
	if settled < 1000 || passed-settled < 100 {
		t.Fatalf("%d pairs settled by short paths of %d the flow passed; the draw is too weak", settled, passed)
	}
	t.Logf("%d pairs settled by short paths of %d the flow passed", settled, passed)
}

// FuzzShortPaths decodes bytes into a graph of up to 24 vertices (each byte
// pair one edge), a source, an exclusion set and a limit, and checks every
// pair from the source with checkShortPaths.
func FuzzShortPaths(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 3, 2, 3, 0, 4, 4, 3}, uint8(0), uint16(0), uint8(2))
	f.Add([]byte{0, 5, 0, 6, 0, 7, 1, 5, 1, 6, 1, 7, 2, 5, 2, 6, 3, 7, 3, 4}, uint8(0), uint16(1<<5), uint8(3))
	f.Add([]byte{9, 1, 9, 2, 9, 3, 1, 4, 2, 5, 3, 6, 4, 7, 5, 7, 6, 7, 8, 1}, uint8(9), uint16(0), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, src uint8, rMask uint16, lim uint8) {
		const n = 24
		if len(data) > 160 {
			data = data[:160]
		}
		var edges [][2]int
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, [2]int{int(data[i]) % n, int(data[i+1]) % n})
		}
		g := graph.FromEdges(n, edges)
		a := int(src) % n
		var r []int
		for v := 0; v < 16; v++ {
			if rMask>>v&1 == 1 && v != a {
				r = append(r, v)
			}
		}
		const k = 8
		limit := 1 + int(lim)%k
		e := &enumerator{k: k, opts: Options{Algorithm: VCCEStar}}
		var cf cutFinder
		cf.reset(e, g, &Stats{}, &flow.Scratch{})
		checkShortPaths(t, &cf, a, r, limit)
	})
}
