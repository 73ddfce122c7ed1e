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
// graphs with an excluded vertex set R drawn from exRaw (Network.Exclude).
// A pooled network, warmed by a query on all of G and reused across every
// pair (exercising the undo-log path), must agree with a fresh network per
// query (exercising a clean build). Every pair outside R that reaches the
// flow must match the brute-force oracle on the explicitly induced G − R,
// capped at a per-pair limit in [1, bound]; and every returned cut must
// have size equal to the flow value, avoid both endpoints and R, actually
// disconnect the pair in G − R, and equal the brute-force source-closest
// minimum cut there. That last check is what makes the cut independent of
// the order in which augmenting paths are found. A query that reaches its
// limit must leave a flow that checkFlowPaths decomposes along next, with
// no flow through R.
func FuzzMinVertexCut(f *testing.F) {
	f.Add(uint8(6), uint16(0xffff), uint8(3), uint16(0))
	f.Add(uint8(9), uint16(0x1234), uint8(2), uint16(0))
	f.Add(uint8(12), uint16(0xbeef), uint8(7), uint16(0))
	f.Add(uint8(7), uint16(0xffff), uint8(9), uint16(0x0005))
	f.Add(uint8(12), uint16(0xbeef), uint8(7), uint16(0x0102))
	f.Fuzz(func(t *testing.T, nRaw uint8, bits uint16, boundRaw uint8, exRaw uint16) {
		g := fuzzGraph(nRaw, bits)
		n := g.NumVertices()
		bound := 1 + int(boundRaw)%n

		// R takes the vertices of exRaw's low n bits; keep lists the rest
		// in ascending order, so vertex i of h = G − R is keep[i].
		var excl, keep []int
		for v := 0; v < n; v++ {
			if exRaw>>v&1 == 1 {
				excl = append(excl, v)
			} else {
				keep = append(keep, v)
			}
		}
		h := g.InducedSubgraph(keep)
		inH := func(cut []int) []int {
			out := []int{}
			for _, w := range cut {
				i, ok := slices.BinarySearch(keep, w)
				if !ok {
					t.Fatalf("cut %v contains excluded vertex %d (R = %v)", cut, w, excl)
				}
				out = append(out, i)
			}
			return out
		}

		pooled := NewNetwork(g, bound)
		pooled.MinVertexCut(0, n-1)
		pooled.Exclude(excl)
		for ui, u := range keep {
			for vi := ui + 1; vi < len(keep); vi++ {
				v := keep[vi]
				limit := 1 + (u+v+int(boundRaw))%bound
				cut, c, atLeast := pooled.MinVertexCutLimit(u, v, limit)
				fresh := NewNetwork(g, bound)
				fresh.Exclude(excl)
				_, cF, atLeastF := fresh.MinVertexCutLimit(u, v, limit)
				if c != cF || atLeast != atLeastF {
					t.Fatalf("(%d,%d) R=%v: pooled (%d,%v) vs fresh (%d,%v)", u, v, excl, c, atLeast, cF, atLeastF)
				}
				if !g.HasEdge(u, v) {
					want := verify.LocalConnectivityBrute(h, ui, vi)
					if want >= limit {
						if !atLeast || c != limit {
							t.Fatalf("(%d,%d) R=%v: got (%d,%v), brute κ = %d >= limit %d", u, v, excl, c, atLeast, want, limit)
						}
					} else if atLeast || c != want {
						t.Fatalf("(%d,%d) R=%v: got (%d,%v), brute κ = %d", u, v, excl, c, atLeast, want)
					}
				}
				if atLeast {
					if !g.HasEdge(u, v) {
						checkFlowPaths(t, pooled, u, v, limit, false)
						for _, r := range excl {
							if pooled.prev[r] >= 0 {
								t.Fatalf("(%d,%d): excluded vertex %d carries flow", u, v, r)
							}
						}
					}
					continue
				}
				if len(cut) != c {
					t.Fatalf("(%d,%d) R=%v: cut %v size != κ %d", u, v, excl, cut, c)
				}
				hcut := inH(cut)
				avoid := map[int]bool{}
				for _, w := range hcut {
					if w == ui || w == vi {
						t.Fatalf("(%d,%d): cut %v contains an endpoint", u, v, cut)
					}
					avoid[w] = true
				}
				if sameComp(h, ui, vi, avoid) {
					t.Fatalf("(%d,%d) R=%v: cut %v does not separate", u, v, excl, cut)
				}
				if want := sourceClosestMinCut(h, ui, vi, c); !slices.Equal(hcut, want) {
					t.Fatalf("(%d,%d) R=%v: cut %v, source-closest minimum cut %v (in G − R)", u, v, excl, hcut, want)
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
