package hierarchy

import (
	"context"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"kvcc/gen"
	"kvcc/graph"
	"kvcc/internal/core"
)

// twoK4sSharedVertex: two K4s joined at one vertex. Level 1: everything;
// levels 2-3: the two K4s; level 4+: empty.
func twoK4sSharedVertex() *graph.Graph {
	var edges [][2]int
	for _, c := range [][]int{{0, 1, 2, 3}, {3, 4, 5, 6}} {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				edges = append(edges, [2]int{c[i], c[j]})
			}
		}
	}
	return graph.FromEdges(7, edges)
}

func TestBuildKnownShape(t *testing.T) {
	tree, err := Build(twoK4sSharedVertex(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.MaxK != 3 {
		t.Fatalf("MaxK = %d, want 3 (K4 is 3-connected)", tree.MaxK)
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Component.NumVertices() != 7 {
		t.Fatalf("roots = %d", len(tree.Roots))
	}
	l2 := tree.Level(2)
	if len(l2) != 2 || l2[0].Component.NumVertices() != 4 {
		t.Fatalf("level 2 = %d nodes", len(l2))
	}
	l3 := tree.Level(3)
	if len(l3) != 2 {
		t.Fatalf("level 3 = %d nodes", len(l3))
	}
	if len(tree.Level(4)) != 0 {
		t.Fatal("level 4 must be empty")
	}
	if tree.Size() != 5 {
		t.Fatalf("size = %d, want 5", tree.Size())
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("nil graph must error")
	}
}

func TestCohesionAndPath(t *testing.T) {
	g := twoK4sSharedVertex()
	tree, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every K4 member has cohesion 3; an absent label has 0.
	for _, l := range []int64{0, 3, 6} {
		if c := tree.Cohesion(l); c != 3 {
			t.Fatalf("cohesion(%d) = %d, want 3", l, c)
		}
	}
	if c := tree.Cohesion(99); c != 0 {
		t.Fatalf("cohesion(absent) = %d", c)
	}
	path := tree.Path(0)
	if len(path) != 3 {
		t.Fatalf("path = %d nodes, want 3 (k=1,2,3)", len(path))
	}
	for i, n := range path {
		if n.K != i+1 {
			t.Fatalf("path level %d has K=%d", i, n.K)
		}
	}
}

// Level k of the hierarchy must equal a direct k-VCC enumeration of the
// whole graph — the strongest cross-check of the nested construction.
func TestLevelsMatchDirectEnumeration(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{
		Communities: 6, MinSize: 8, MaxSize: 14, IntraProb: 0.85,
		ChainOverlap: 2, ChainEvery: 2, BridgeEdges: 4,
		NoiseVertices: 60, NoiseDegree: 2, Seed: 9,
	})
	tree, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= tree.MaxK+1; k++ {
		direct, _, err := core.Enumerate(g, k, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		level := tree.Level(k)
		if len(level) != len(direct) {
			t.Fatalf("k=%d: hierarchy has %d components, direct %d",
				k, len(level), len(direct))
		}
		want := map[string]bool{}
		for _, c := range direct {
			want[signature(c)] = true
		}
		for _, n := range level {
			if !want[signature(n.Component)] {
				t.Fatalf("k=%d: hierarchy component not in direct enumeration", k)
			}
		}
	}
}

func signature(g *graph.Graph) string {
	labels := append([]int64(nil), g.Labels()...)
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(",")
		sb.WriteString(strconv.FormatInt(l, 10))
	}
	return sb.String()
}

func TestChildrenNestInParents(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var edges [][2]int
	n := 60
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{rng.Intn(i), i})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.2 {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	g := graph.FromEdges(n, edges)
	tree, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var walk func(node *Node)
	walk = func(node *Node) {
		parent := map[int64]bool{}
		for _, l := range node.Component.Labels() {
			parent[l] = true
		}
		for _, c := range node.Children {
			if c.K != node.K+1 {
				t.Fatalf("child level %d under parent level %d", c.K, node.K)
			}
			for _, l := range c.Component.Labels() {
				if !parent[l] {
					t.Fatalf("child vertex %d not in parent", l)
				}
			}
			walk(c)
		}
	}
	for _, r := range tree.Roots {
		walk(r)
	}
}

// The incremental build must do strictly less enumeration work than the
// per-level-from-scratch baseline, which passes the full graph to every
// level: baseline work = levels x |V| enumerated vertices.
func TestIncrementalBuildEnumeratesFewerVertices(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{
		Communities: 6, MinSize: 8, MaxSize: 14, IntraProb: 0.85,
		ChainOverlap: 2, ChainEvery: 2, BridgeEdges: 4,
		NoiseVertices: 60, NoiseDegree: 2, Seed: 9,
	})
	tree, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseline := int64(tree.Stats.Levels) * int64(g.NumVertices())
	if tree.Stats.EnumeratedVertices >= baseline {
		t.Fatalf("incremental build enumerated %d vertices, baseline %d (levels=%d, n=%d)",
			tree.Stats.EnumeratedVertices, baseline, tree.Stats.Levels, g.NumVertices())
	}
	// The per-level breakdown must sum to the total and match Level sizes.
	var sum int64
	for _, lvl := range tree.Stats.PerLevel {
		sum += lvl.EnumeratedVertices
		if lvl.K <= tree.MaxK && lvl.Components != len(tree.Level(lvl.K)) {
			t.Fatalf("level %d stats report %d components, tree has %d",
				lvl.K, lvl.Components, len(tree.Level(lvl.K)))
		}
	}
	if sum != tree.Stats.EnumeratedVertices {
		t.Fatalf("per-level sum %d != total %d", sum, tree.Stats.EnumeratedVertices)
	}
}

// Parallel sibling enumeration must produce the identical tree.
func TestParallelBuildMatchesSerial(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{
		Communities: 8, MinSize: 8, MaxSize: 16, IntraProb: 0.8,
		ChainOverlap: 2, ChainEvery: 2, BridgeEdges: 6,
		NoiseVertices: 80, NoiseDegree: 2, Seed: 17,
	})
	serial, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Build(g, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.MaxK != parallel.MaxK || serial.Size() != parallel.Size() {
		t.Fatalf("serial MaxK=%d size=%d, parallel MaxK=%d size=%d",
			serial.MaxK, serial.Size(), parallel.MaxK, parallel.Size())
	}
	for k := 1; k <= serial.MaxK; k++ {
		a, b := serial.Level(k), parallel.Level(k)
		if len(a) != len(b) {
			t.Fatalf("k=%d: serial %d components, parallel %d", k, len(a), len(b))
		}
		for i := range a {
			if signature(a[i].Component) != signature(b[i].Component) {
				t.Fatalf("k=%d component %d differs between serial and parallel", k, i)
			}
		}
	}
}

func TestBuildContextCancel(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{
		Communities: 6, MinSize: 10, MaxSize: 16, IntraProb: 0.8,
		ChainOverlap: 2, ChainEvery: 2, Seed: 3,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildContext(ctx, g, Options{}); err == nil {
		t.Fatal("cancelled build must return an error")
	}
}

// LevelComponents must be exactly what a direct enumeration returns,
// including the canonical order — the property the server's index-served
// responses rely on for byte-equality with cache-served ones.
func TestLevelComponentsCanonicalOrder(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{
		Communities: 5, MinSize: 8, MaxSize: 12, IntraProb: 0.85,
		ChainOverlap: 2, ChainEvery: 2, BridgeEdges: 3,
		NoiseVertices: 40, NoiseDegree: 2, Seed: 21,
	})
	tree, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= tree.MaxK+1; k++ {
		direct, _, err := core.Enumerate(g, k, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		level := tree.LevelComponents(k)
		if len(level) != len(direct) {
			t.Fatalf("k=%d: index %d components, direct %d", k, len(level), len(direct))
		}
		for i := range level {
			if signature(level[i]) != signature(direct[i]) {
				t.Fatalf("k=%d: component %d out of canonical order", k, i)
			}
		}
	}
}

// TestCovers: every tree is complete. The build enumerates one empty
// level past MaxK and stops there, so Level(k) is exact for every k >= 1.
func TestCovers(t *testing.T) {
	tree, err := Build(twoK4sSharedVertex(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.MaxK != 3 || tree.Stats.Levels != tree.MaxK+1 {
		t.Fatalf("MaxK=%d Levels=%d, want 3 and one empty level past it", tree.MaxK, tree.Stats.Levels)
	}
	for _, k := range []int{0, 4, 100} {
		if tree.Level(k) != nil || tree.LevelComponents(k) != nil {
			t.Fatalf("level %d must be empty", k)
		}
	}
}

// A K4 and a larger 5-cycle sharing one vertex: at level 2 the cycle is
// the bigger component, but only the K4 branch reaches level 3. Path must
// follow the branch that reaches the vertex's cohesion level, not greedily
// descend into the largest component per level (regression: the greedy
// walk returned a 2-step path for a cohesion-3 vertex).
func TestPathReachesCohesionLevel(t *testing.T) {
	edges := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, // 5-cycle through 0
		{0, 5}, {0, 6}, {0, 7}, {5, 6}, {5, 7}, {6, 7}, // K4 {0,5,6,7}
	}
	tree, err := Build(graph.FromEdges(8, edges), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c := tree.Cohesion(0); c != 3 {
		t.Fatalf("cohesion(0) = %d, want 3", c)
	}
	path := tree.Path(0)
	if len(path) != 3 {
		t.Fatalf("path(0) has %d steps, want 3", len(path))
	}
	for i, n := range path {
		if n.K != i+1 {
			t.Fatalf("path step %d has K=%d", i, n.K)
		}
		if i > 0 && n.Parent != path[i-1] {
			t.Fatalf("path step %d not a child of step %d", i, i-1)
		}
	}
	if path[2].Component.NumVertices() != 4 {
		t.Fatalf("deepest step has %d vertices, want the K4", path[2].Component.NumVertices())
	}
}

func TestWriteOutline(t *testing.T) {
	tree, err := Build(twoK4sSharedVertex(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tree.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "1-VCC: 7 vertices") {
		t.Fatalf("missing root line:\n%s", out)
	}
	if strings.Count(out, "3-VCC") != 2 {
		t.Fatalf("expected two 3-VCC lines:\n%s", out)
	}
}

func TestEmptyGraph(t *testing.T) {
	tree, err := Build(graph.FromEdges(0, nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Roots) != 0 || tree.MaxK != 0 || tree.Size() != 0 {
		t.Fatalf("empty graph tree: %+v", tree)
	}
}
