package kvcc_test

import (
	"strings"
	"testing"

	"kvcc"
	"kvcc/gen"
	"kvcc/graph"
)

func TestValidateAcceptsRealResults(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{
		Communities: 6, MinSize: 10, MaxSize: 16, IntraProb: 0.85,
		ChainOverlap: 2, ChainEvery: 3, BridgeEdges: 4,
		NoiseVertices: 100, NoiseDegree: 2, Seed: 8,
	})
	for _, k := range []int{3, 5, 7} {
		res, err := kvcc.Enumerate(g, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := kvcc.Validate(g, res); err != nil {
			t.Fatalf("k=%d: valid result rejected: %v", k, err)
		}
	}
}

func TestValidateRejectsCorruptions(t *testing.T) {
	g := complete(8)
	res, err := kvcc.Enumerate(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := kvcc.Validate(g, res); err != nil {
		t.Fatalf("baseline result invalid: %v", err)
	}

	t.Run("nil result", func(t *testing.T) {
		if err := kvcc.Validate(g, nil); err == nil {
			t.Fatal("nil result accepted")
		}
	})
	t.Run("bad k", func(t *testing.T) {
		bad := &kvcc.Result{K: 0, Components: res.Components}
		if err := kvcc.Validate(g, bad); err == nil {
			t.Fatal("k=0 result accepted")
		}
	})
	t.Run("too small component", func(t *testing.T) {
		tri := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
		bad := &kvcc.Result{K: 4, Components: []*graph.Graph{tri}}
		if err := kvcc.Validate(g, bad); err == nil ||
			!strings.Contains(err.Error(), "<= k vertices") {
			t.Fatalf("undersized component accepted: %v", err)
		}
	})
	t.Run("foreign label", func(t *testing.T) {
		var edges [][2]int64
		for _, c := range [][]int64{{90, 91, 92, 93, 94}} {
			for i := 0; i < len(c); i++ {
				for j := i + 1; j < len(c); j++ {
					edges = append(edges, [2]int64{c[i], c[j]})
				}
			}
		}
		bad := &kvcc.Result{K: 4, Components: []*graph.Graph{graph.FromLabeledEdges(edges)}}
		if err := kvcc.Validate(g, bad); err == nil ||
			!strings.Contains(err.Error(), "absent from the input") {
			t.Fatalf("foreign labels accepted: %v", err)
		}
	})
	t.Run("not induced", func(t *testing.T) {
		// A 5-cycle inside K8 misses induced chords and is not 4-connected.
		cyc := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
		bad := &kvcc.Result{K: 4, Components: []*graph.Graph{cyc}}
		if err := kvcc.Validate(g, bad); err == nil {
			t.Fatal("non-induced component accepted")
		}
	})
	t.Run("duplicated component", func(t *testing.T) {
		bad := &kvcc.Result{K: 4, Components: []*graph.Graph{
			res.Components[0], res.Components[0],
		}}
		if err := kvcc.Validate(g, bad); err == nil {
			t.Fatal("duplicate components accepted")
		}
	})
	t.Run("too many components", func(t *testing.T) {
		many := make([]*graph.Graph, 0, 5)
		for i := 0; i < 5; i++ {
			many = append(many, res.Components[0])
		}
		bad := &kvcc.Result{K: 4, Components: many}
		if err := kvcc.Validate(g, bad); err == nil ||
			!strings.Contains(err.Error(), "Theorem 6") {
			t.Fatalf("component count bound not enforced: %v", err)
		}
	})
}

func TestValidateOverlapBound(t *testing.T) {
	// Two K6s overlapping in exactly k-1=3 vertices: legal.
	var edges [][2]int
	for _, c := range [][]int{{0, 1, 2, 3, 4, 5}, {3, 4, 5, 6, 7, 8}} {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				edges = append(edges, [2]int{c[i], c[j]})
			}
		}
	}
	g := graph.FromEdges(9, edges)
	res, err := kvcc.Enumerate(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Components) != 2 {
		t.Fatalf("components = %d, want 2", len(res.Components))
	}
	if err := kvcc.Validate(g, res); err != nil {
		t.Fatalf("k-1 overlap rejected: %v", err)
	}
}
