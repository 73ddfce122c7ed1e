package incr

import (
	"slices"
	"testing"

	"kvcc/gen"
	"kvcc/graph"
	"kvcc/internal/kcore"
)

// referencePartition is Partition built the direct way: reduce to the
// k-core graph, take its connected components, extract each one and
// fingerprint the extracted subgraph.
func referencePartition(g *graph.Graph, k int) (comps []*graph.Graph, keys []ComponentKey, peeled int) {
	cored, peeled := kcore.Reduce(g, k)
	ccs := cored.ConnectedComponents()
	for _, cc := range ccs {
		if len(cc) <= k {
			continue
		}
		sub := cored.InducedSubgraph(cc)
		if len(ccs) == 1 && cored.NumVertices() == len(cc) {
			sub = cored.Materialize()
		}
		comps = append(comps, sub)
		keys = append(keys, keyOf(sub))
	}
	return comps, keys, peeled
}

func sameGraph(a, b *graph.Graph) bool {
	ao, ae := a.Adjacency()
	bo, be := b.Adjacency()
	return slices.Equal(a.Labels(), b.Labels()) && slices.Equal(ao, bo) && slices.Equal(ae, be) &&
		a.NumEdges() == b.NumEdges()
}

// TestPartitionMatchesReduction pins Partition (peel mask, union-find
// labelling, fingerprints hashed from the parent graph) to the reference
// built from the reduced graph: same components in the same order, with
// identical vertex order, adjacency and keys.
func TestPartitionMatchesReduction(t *testing.T) {
	planted, _ := gen.Planted(gen.PlantedConfig{
		Communities: 6, MinSize: 6, MaxSize: 14, IntraProb: 0.8,
		ChainOverlap: 2, ChainEvery: 3, BridgeEdges: 2,
		NoiseVertices: 40, NoiseDegree: 3, Seed: 7,
	})
	graphs := map[string]*graph.Graph{
		"planted": planted,
		"gnm":     gen.GNM(300, 900, 3),
		"ba":      gen.BarabasiAlbert(200, 4, 3, 5),
		// Two disjoint triangles: nothing peels at k=2, two components.
		"triangles": graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}),
		"path":      graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}),
		"empty":     graph.FromEdges(0, nil),
	}
	for name, g := range graphs {
		for k := 0; k <= 6; k++ {
			comps, keys, peeled := Partition(g, k)
			wantComps, wantKeys, wantPeeled := referencePartition(g, k)
			if peeled != wantPeeled || len(comps) != len(wantComps) {
				t.Fatalf("%s k=%d: %d components, %d peeled; reference %d, %d",
					name, k, len(comps), peeled, len(wantComps), wantPeeled)
			}
			for i := range comps {
				if !sameGraph(comps[i], wantComps[i]) {
					t.Fatalf("%s k=%d: component %d differs from the reference", name, k, i)
				}
				if keys[i] != wantKeys[i] {
					t.Fatalf("%s k=%d: component %d key %+v, reference %+v", name, k, i, keys[i], wantKeys[i])
				}
			}
		}
	}
}
