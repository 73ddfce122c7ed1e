package flow

import (
	"math/bits"
	"slices"
	"testing"

	"kvcc/graph"
	"kvcc/internal/verify"
)

// fuzzGraph decodes the fuzz-input graph shape: a path backbone keeping
// n = 3..10 vertices connected, plus chord edges toggled by bits.
func fuzzGraph(nRaw uint8, bits uint16) *graph.Graph {
	n := 3 + int(nRaw)%8
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{i - 1, i})
	}
	b := uint32(bits)
	for u := 0; u < n && len(edges) < n+16; u++ {
		for v := u + 2; v < n; v++ {
			if b&1 == 1 {
				edges = append(edges, [2]int{u, v})
			}
			b = b>>1 | b<<15&0xffff // rotate for more than 16 pairs
		}
	}
	return graph.FromEdges(n, edges)
}

// FuzzMinVertexCut checks the zero-reset flow engine on arbitrary small
// graphs. A pooled network reused across every pair (exercising the
// undo-log path) must agree with a fresh network per query (exercising a
// clean build); every pair that reaches the flow must match the
// brute-force oracle, capped at the bound; and every returned cut must
// have size equal to the flow value, avoid both endpoints, actually
// disconnect the pair, and equal the brute-force source-closest minimum
// cut. That last check is what makes the cut independent of the order in
// which augmenting paths are found. A query that reaches the bound must
// leave a flow that checkFlowPaths decomposes along next.
func FuzzMinVertexCut(f *testing.F) {
	f.Add(uint8(6), uint16(0xffff), uint8(3))
	f.Add(uint8(9), uint16(0x1234), uint8(2))
	f.Add(uint8(12), uint16(0xbeef), uint8(7))
	f.Fuzz(func(t *testing.T, nRaw uint8, bits uint16, boundRaw uint8) {
		g := fuzzGraph(nRaw, bits)
		n := g.NumVertices()
		bound := 1 + int(boundRaw)%n

		pooled := NewNetwork(g, bound)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				cut, c, atLeast := pooled.MinVertexCut(u, v)
				fresh := NewNetwork(g, bound)
				_, cF, atLeastF := fresh.MinVertexCut(u, v)
				if c != cF || atLeast != atLeastF {
					t.Fatalf("(%d,%d): pooled (%d,%v) vs fresh (%d,%v)", u, v, c, atLeast, cF, atLeastF)
				}
				if !g.HasEdge(u, v) {
					want := verify.LocalConnectivityBrute(g, u, v)
					if want >= bound {
						if !atLeast || c != bound {
							t.Fatalf("(%d,%d): got (%d,%v), brute κ = %d >= bound %d", u, v, c, atLeast, want, bound)
						}
					} else if atLeast || c != want {
						t.Fatalf("(%d,%d): got (%d,%v), brute κ = %d", u, v, c, atLeast, want)
					}
				}
				if atLeast {
					if !g.HasEdge(u, v) {
						checkFlowPaths(t, pooled, u, v, bound)
					}
					continue
				}
				if len(cut) != c {
					t.Fatalf("(%d,%d): cut %v size != κ %d", u, v, cut, c)
				}
				avoid := map[int]bool{}
				for _, w := range cut {
					if w == u || w == v {
						t.Fatalf("(%d,%d): cut %v contains an endpoint", u, v, cut)
					}
					avoid[w] = true
				}
				if sameComp(g, u, v, avoid) {
					t.Fatalf("(%d,%d): cut %v does not separate", u, v, cut)
				}
				if want := sourceClosestMinCut(g, u, v, c); !slices.Equal(cut, want) {
					t.Fatalf("(%d,%d): cut %v, source-closest minimum cut %v", u, v, cut, want)
				}
			}
		}
	})
}

// sourceClosestMinCut returns, by brute force over every kappa-subset S of
// the other vertices, the minimum u-v vertex cut whose component of u in
// G−S is contained in that of every other minimum cut. The cut is unique,
// since it is the neighbourhood of its component, and it is the cut that
// the residual graph of every maximum flow yields. It returns nil if no
// minimum cut's component is contained in all the others.
func sourceClosestMinCut(g *graph.Graph, u, v, kappa int) []int {
	n := g.NumVertices()
	var cuts, comps []uint
	for s := uint(0); s < 1<<n; s++ {
		if bits.OnesCount(s) != kappa || s&(1<<u|1<<v) != 0 {
			continue
		}
		if c := componentMask(g, u, s); c&(1<<v) == 0 {
			cuts, comps = append(cuts, s), append(comps, c)
		}
	}
	for i, c := range comps {
		closest := true
		for _, o := range comps {
			closest = closest && c&^o == 0
		}
		if closest {
			cut := []int{}
			for w := 0; w < n; w++ {
				if cuts[i]&(1<<w) != 0 {
					cut = append(cut, w)
				}
			}
			return cut
		}
	}
	return nil
}

// componentMask returns the vertex set, as a bitmask, of the component of
// u in g minus the vertices of the mask removed.
func componentMask(g *graph.Graph, u int, removed uint) uint {
	comp := uint(1) << u
	stack := []int{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(x) {
			if bit := uint(1) << w; (comp|removed)&bit == 0 {
				comp |= bit
				stack = append(stack, w)
			}
		}
	}
	return comp
}
