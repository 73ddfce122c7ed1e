package core_test

import (
	"slices"
	"testing"

	"kvcc/graph"
	"kvcc/internal/core"
	"kvcc/internal/difftest"
)

// TestGroupSweepPrunesUnderEdgeBound: every component gets a sparse
// certificate, so the group sweep has side groups to prune with even
// when the component already has no more than k(n-1) edges and the
// certificate cannot be smaller than it.
func TestGroupSweepPrunesUnderEdgeBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"grid-6x6", difftest.Grid(6, 6), 2},
		{"hypercube-5", difftest.Hypercube(5), 3},
	} {
		if n, m := tc.g.NumVertices(), tc.g.NumEdges(); m > tc.k*(n-1) {
			t.Fatalf("%s: m=%d is above k(n-1)=%d", tc.name, m, tc.k*(n-1))
		}
		want, _, err := core.Enumerate(tc.g, tc.k, core.Options{Algorithm: core.VCCE})
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := core.Enumerate(tc.g, tc.k, core.Options{Algorithm: core.VCCEG})
		if err != nil {
			t.Fatal(err)
		}
		if st.SweptGS == 0 {
			t.Errorf("%s k=%d: VCCE-G swept no vertex by group sweep", tc.name, tc.k)
		}
		if a, b := difftest.Signatures(got), difftest.Signatures(want); !slices.Equal(a, b) {
			t.Errorf("%s k=%d: VCCE-G found %v, VCCE %v", tc.name, tc.k, a, b)
		}
	}
}
