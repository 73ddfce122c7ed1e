package incr

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"kvcc/gen"
	"kvcc/graph"
	"kvcc/internal/core"
)

// signatures canonicalizes components for equality checks.
func signatures(comps []*graph.Graph) []string {
	out := make([]string, len(comps))
	for i, c := range comps {
		var sb strings.Builder
		for j, l := range core.SortedLabels(c) {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatInt(l, 10))
		}
		out[i] = sb.String()
	}
	return out
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, _ := gen.Planted(gen.PlantedConfig{
		Communities: 5, MinSize: 8, MaxSize: 12, IntraProb: 0.9,
		ChainOverlap: 2, ChainEvery: 2, BridgeEdges: 3,
		NoiseVertices: 30, NoiseDegree: 2, Seed: 42,
	})
	return g
}

func TestRunMatchesMonolithicEnumeration(t *testing.T) {
	g := testGraph(t)
	for k := 2; k <= 6; k++ {
		store, stats, err := Run(context.Background(), g, k, core.Options{}, nil)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		direct, _, err := core.Enumerate(g, k, core.Options{})
		if err != nil {
			t.Fatalf("k=%d direct: %v", k, err)
		}
		got, want := signatures(store.Flatten()), signatures(direct)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d components vs %d direct", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d component %d: %s vs %s", k, i, got[i], want[i])
			}
		}
		if stats.ComponentsReused != 0 {
			t.Fatalf("k=%d: cold run reports %d reused components", k, stats.ComponentsReused)
		}
		if int(stats.ComponentsRecomputed) != len(store.Components) {
			t.Fatalf("k=%d: recomputed %d of %d components on a cold run",
				k, stats.ComponentsRecomputed, len(store.Components))
		}
	}
}

func TestRunReusesUntouchedComponents(t *testing.T) {
	// Two disjoint cliques: editing inside one must not recompute the other.
	var edges [][2]int
	addClique := func(off, size int) {
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				edges = append(edges, [2]int{off + i, off + j})
			}
		}
	}
	addClique(0, 8)
	addClique(8, 8)
	g := graph.FromEdges(16, edges)

	const k = 4
	prev, _, err := Run(context.Background(), g, k, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prev.Components) != 2 {
		t.Fatalf("want 2 k-core components, got %d", len(prev.Components))
	}

	// Delete one edge inside the first clique (it stays a k-VCC at k=4).
	d := graph.NewDelta(g)
	if !d.DeleteEdge(0, 1) {
		t.Fatal("delete failed")
	}
	g2 := d.Compact()
	next, stats, err := Run(context.Background(), g2, k, core.Options{}, prev)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ComponentsReused != 1 || stats.ComponentsRecomputed != 1 {
		t.Fatalf("reused=%d recomputed=%d, want 1/1", stats.ComponentsReused, stats.ComponentsRecomputed)
	}
	direct, _, err := core.Enumerate(g2, k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, want := signatures(next.Flatten()), signatures(direct)
	if len(got) != len(want) {
		t.Fatalf("%d components vs %d direct", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("component %d: %s vs %s", i, got[i], want[i])
		}
	}
}

func TestKeyOfStructuralIdentity(t *testing.T) {
	// Same labeled structure under a different vertex numbering.
	a := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	b := a.InducedSubgraph([]int{2, 3, 0, 1})
	if keyOf(a) != keyOf(b) {
		t.Fatal("renumbering changed the fingerprint")
	}
	// Same vertex set, different edges.
	c := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 1}})
	if keyOf(a) == keyOf(c) {
		t.Fatal("different edge sets share a fingerprint")
	}
	// Different vertex labels, same shape.
	d := graph.FromEdges(5, [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 1}}).InducedSubgraph([]int{1, 2, 3, 4})
	if keyOf(a) == keyOf(d) {
		t.Fatal("different label sets share a fingerprint")
	}
	// An edge swap that preserves degree sums must still change the key.
	e := graph.FromEdges(4, [][2]int{{0, 2}, {1, 2}, {0, 3}, {1, 3}})
	if keyOf(a) == keyOf(e) {
		t.Fatal("edge swap preserved the fingerprint")
	}
}

// TestRunEmptyCoreParallel guards the empty-batch path: a graph whose
// k-core is empty must terminate (not deadlock the worker pool) under
// parallelism and return an empty store.
func TestRunEmptyCoreParallel(t *testing.T) {
	g := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}) // a path: no 2-core beyond cycles
	done := make(chan struct{})
	go func() {
		defer close(done)
		store, _, err := Run(context.Background(), g, 3, core.Options{Parallelism: 4}, nil)
		if err != nil {
			t.Errorf("Run: %v", err)
			return
		}
		if len(store.Components) != 0 {
			t.Errorf("empty 3-core produced %d components", len(store.Components))
		}
		// The exported batch entry must survive an explicitly empty batch
		// too — the parallel driver must not be started with no seeds.
		vccs, _, err := core.EnumerateComponentsContext(context.Background(), nil, 3, core.Options{Parallelism: 4})
		if err != nil || len(vccs) != 0 {
			t.Errorf("empty batch: vccs=%d err=%v", len(vccs), err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run deadlocked on an empty k-core with parallelism")
	}
}

func TestRunStoreKMismatchIgnored(t *testing.T) {
	g := testGraph(t)
	s3, _, err := Run(context.Background(), g, 3, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A store built at k=3 must not satisfy lookups for a k=4 run even
	// when some component happens to be structurally identical.
	s4, stats, err := Run(context.Background(), g, 4, core.Options{}, s3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ComponentsReused != 0 {
		t.Fatalf("k-mismatched store leaked %d reused components", stats.ComponentsReused)
	}
	if s4.K != 4 {
		t.Fatalf("store K = %d, want 4", s4.K)
	}
}
