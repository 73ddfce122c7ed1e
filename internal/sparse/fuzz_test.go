package sparse

import (
	"fmt"
	"slices"
	"testing"

	"kvcc/graph"
	"kvcc/internal/flow"
)

// fuzzGraph decodes a graph on n = 1..14 vertices whose edges are the set
// bits of pairs, one bit per vertex pair (u, v), u < v, in row order;
// missing bytes read as zero.
func fuzzGraph(nRaw uint8, pairs []byte) *graph.Graph {
	n := 1 + int(nRaw)%14
	var edges [][2]int
	bit := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if bit/8 < len(pairs) && pairs[bit/8]>>(bit%8)&1 == 1 {
				edges = append(edges, [2]int{u, v})
			}
			bit++
		}
	}
	return graph.FromEdges(n, edges)
}

// certDiff describes the first difference between two certificates of
// the same graph, or returns "" when their edge sets and side groups
// agree exactly.
func certDiff(a, b *Certificate) string {
	if ea, eb := a.SC.Edges(nil), b.SC.Edges(nil); !slices.Equal(ea, eb) {
		return fmt.Sprintf("SC edges %v != %v", ea, eb)
	}
	if !slices.Equal(a.GroupID, b.GroupID) {
		return fmt.Sprintf("GroupID %v != %v", a.GroupID, b.GroupID)
	}
	if !slices.EqualFunc(a.SideGroups, b.SideGroups, slices.Equal) {
		return fmt.Sprintf("side groups %v != %v", a.SideGroups, b.SideGroups)
	}
	return ""
}

// FuzzCertificate checks every property the engine takes from a
// certificate on arbitrary small graphs, connected or not: SC is a
// subgraph of G within the k(n-1) edge bound, for every non-adjacent pair
// a flow at bound k gives the same value and the same source-closest cut
// in G and SC, every dropped edge is k-connected inside SC, every
// side-group pair is k-connected in G, and a Scratch left dirty by a
// larger graph builds the same certificate as one-shot Compute.
func FuzzCertificate(f *testing.F) {
	f.Add(uint8(5), uint8(2), []byte{0xff, 0x03})
	f.Add(uint8(13), uint8(4), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(11), uint8(3), []byte{0x5a, 0xc3, 0x3c, 0xa5, 0x0f, 0xf0, 0x99, 0x66, 0x81, 0x7e, 0x24})
	f.Add(uint8(9), uint8(1), []byte{0x12, 0x34, 0x56, 0x78, 0x9a})
	f.Add(uint8(10), uint8(0), []byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde})
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint8, pairs []byte) {
		g := fuzzGraph(nRaw, pairs)
		n := g.NumVertices()
		k := 1 + int(kRaw)%5
		cert := Compute(g, k)
		sc := cert.SC

		if sc.NumVertices() != n {
			t.Fatalf("SC has %d vertices, want %d", sc.NumVertices(), n)
		}
		if m := sc.NumEdges(); m > k*(n-1) {
			t.Fatalf("k=%d: SC has %d edges > bound %d", k, m, k*(n-1))
		}
		for _, e := range sc.Edges(nil) {
			if !g.HasEdge(e[0], e[1]) {
				t.Fatalf("k=%d: SC edge %v not in G", k, e)
			}
		}
		inG, inSC := flow.NewNetwork(g, k), flow.NewNetwork(sc, k)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				switch {
				case !g.HasEdge(u, v):
					cutG, cG, _ := inG.MinVertexCut(u, v)
					if cutSC, cSC, _ := inSC.MinVertexCut(u, v); cG != cSC || !slices.Equal(cutG, cutSC) {
						t.Fatalf("k=%d: pair (%d,%d) has cut %v (min(κ,k) %d) in G, %v (%d) in SC", k, u, v, cutG, cG, cutSC, cSC)
					}
				case !sc.HasEdge(u, v):
					if c := flow.LocalConnectivity(sc, u, v, k); c < k {
						t.Fatalf("k=%d: dropped edge (%d,%d) has κ_SC = %d", k, u, v, c)
					}
				}
			}
		}
		for id, grp := range cert.SideGroups {
			for i, u := range grp {
				for _, v := range grp[i+1:] {
					if c := flow.LocalConnectivity(g, u, v, k); c < k {
						t.Fatalf("k=%d: side group %d pair (%d,%d) has κ_G = %d", k, id, u, v, c)
					}
				}
			}
		}

		var s Scratch
		ComputeScratch(complete(14), 5, &s)
		if d := certDiff(ComputeScratch(g, k, &s), cert); d != "" {
			t.Fatalf("k=%d: reused Scratch differs from Compute: %s", k, d)
		}
	})
}
