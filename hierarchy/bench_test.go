package hierarchy

import (
	"testing"

	"kvcc/gen"
	"kvcc/graph"
	"kvcc/internal/core"
)

func benchGraph() *graph.Graph {
	g, _ := gen.Planted(gen.PlantedConfig{
		Communities: 12, MinSize: 12, MaxSize: 24, IntraProb: 0.75,
		ChainOverlap: 3, ChainEvery: 2, BridgeEdges: 8,
		NoiseVertices: 400, NoiseDegree: 3, Seed: 42,
	})
	return g
}

// BenchmarkBuildIncremental measures the one-pass hierarchy construction;
// BenchmarkBuildPerLevelScratch is the baseline it replaces (one full-graph
// enumeration per level). The incremental build should win because deeper
// levels run on ever-smaller subgraphs.
func BenchmarkBuildIncremental(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildPerLevelScratch(b *testing.B) {
	g := benchGraph()
	tree, err := Build(g, Options{})
	if err != nil {
		b.Fatal(err)
	}
	levels := tree.Stats.Levels
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 1; k <= levels; k++ {
			if _, _, err := core.Enumerate(g, k, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCohesion guards the O(V x levels) -> O(1) label-scan fix: one
// lookup must stay in the tens-of-nanoseconds range regardless of tree
// size. Before the label index this walked every component's label slice.
func BenchmarkCohesion(b *testing.B) {
	g := benchGraph()
	tree, err := Build(g, Options{})
	if err != nil {
		b.Fatal(err)
	}
	labels := g.Labels()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Cohesion(labels[i%len(labels)])
	}
}

func BenchmarkPath(b *testing.B) {
	g := benchGraph()
	tree, err := Build(g, Options{})
	if err != nil {
		b.Fatal(err)
	}
	labels := g.Labels()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Path(labels[i%len(labels)])
	}
}

// BenchmarkAnyKFromTree vs BenchmarkAnyKColdEnumeration: serving an
// arbitrary level from a prebuilt tree against re-running the enumeration
// for that k — the speedup the server's hierarchy index banks on.
func BenchmarkAnyKFromTree(b *testing.B) {
	g := benchGraph()
	tree, err := Build(g, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := 2 + i%tree.MaxK
		if tree.LevelComponents(k) == nil && k <= tree.MaxK {
			b.Fatal("missing level")
		}
	}
}

func BenchmarkAnyKColdEnumeration(b *testing.B) {
	g := benchGraph()
	tree, err := Build(g, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := 2 + i%tree.MaxK
		if _, _, err := core.Enumerate(g, k, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
