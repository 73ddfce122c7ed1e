package core_test

import (
	"testing"

	"kvcc/graph"
	"kvcc/internal/core"
	"kvcc/internal/difftest"
)

var variants = []core.Algorithm{core.VCCE, core.VCCEN, core.VCCEG, core.VCCEStar}

// A component whose only small cuts are cut vertices is split into its
// biconnected blocks before any cut search: no variant runs a flow or an
// overlapped partition on it, and each split is counted.
func TestCutVertexSplitNeedsNoFlow(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		clique int   // both shapes' k-VCCs are their two cliques
		maxK   int   // the corpus k
		splits int64 // k values in 2..maxK whose k-core has a cut vertex
	}{
		{"two-cliques-cut-vertex", difftest.TwoCliquesSharing(6, 1), 6, 6, 4},
		{"barbell", difftest.Barbell(7, 5), 7, 7, 1},
	} {
		for _, algo := range variants {
			var splits int64
			for k := 2; k <= tc.maxK; k++ {
				comps, st, err := core.Enumerate(tc.g, k, core.Options{Algorithm: algo})
				if err != nil {
					t.Fatal(err)
				}
				if st.FlowRuns != 0 || st.Partitions != 0 {
					t.Errorf("%s %s k=%d: %d flow runs, %d partitions; want 0 and 0",
						tc.name, algo, k, st.FlowRuns, st.Partitions)
				}
				if k < tc.clique && len(comps) != 2 {
					t.Errorf("%s %s k=%d: %d k-VCCs, want 2", tc.name, algo, k, len(comps))
				}
				for _, comp := range comps {
					if n := comp.NumVertices(); n != tc.clique {
						t.Errorf("%s %s k=%d: k-VCC of %d vertices, want %d", tc.name, algo, k, n, tc.clique)
					}
				}
				splits += st.BlockSplits
			}
			if splits != tc.splits {
				t.Errorf("%s %s: %d block splits over k = 2..%d, want %d", tc.name, algo, splits, tc.maxK, tc.splits)
			}
		}
	}
}

// A 1-VCC is a connected component and may hold a cut vertex, so k = 1
// must not split at cut vertices: the barbell stays one 1-VCC.
func TestBarbellIsOneVCCAtK1(t *testing.T) {
	g := difftest.Barbell(7, 5)
	for _, algo := range variants {
		comps, st, err := core.Enumerate(g, 1, core.Options{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		if len(comps) != 1 || comps[0].NumVertices() != g.NumVertices() {
			t.Fatalf("%s: %d 1-VCCs, want the whole barbell", algo, len(comps))
		}
		if st.BlockSplits != 0 {
			t.Fatalf("%s: %d block splits at k = 1", algo, st.BlockSplits)
		}
	}
}
