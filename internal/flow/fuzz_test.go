package flow

import (
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
// have size equal to the flow value, avoid both endpoints, and actually
// disconnect the pair.
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
			}
		}
	})
}
