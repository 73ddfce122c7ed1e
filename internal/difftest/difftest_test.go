package difftest

import (
	"reflect"
	"testing"

	"kvcc/gen"
	"kvcc/internal/flow"
	"kvcc/internal/verify"
)

// TestVariantsAgree diffs all four algorithm variants (and the parallel
// driver) against each other on every corpus graph and every k up to the
// case's MaxK.
//
// One extra planted graph rides along: at k = 6 one of its partitioned
// components has a strong side-vertex that is not a strong side-vertex of
// the piece it lands in, the case where a status carried across the
// partition (the paper's Lemma 16) would be wrong.
func TestVariantsAgree(t *testing.T) {
	ssvLoss, _ := gen.Planted(gen.PlantedConfig{
		Communities: 5, MinSize: 8, MaxSize: 12, IntraProb: 0.8,
		ChainOverlap: 2, ChainEvery: 1, BridgeEdges: 5,
		NoiseVertices: 20, NoiseDegree: 3, Seed: 19,
	})
	cases := append(Corpus(), Case{Name: "planted-ssv-loss", G: ssvLoss, MaxK: 6})
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			for k := 2; k <= c.MaxK; k++ {
				CheckVariantsAgree(t, c.G, k)
			}
		})
	}
}

// TestOracle diffs the default enumeration against the exponential
// brute-force oracle on tiny graphs — ground truth per Definition 2.
func TestOracle(t *testing.T) {
	for _, c := range OracleCorpus() {
		t.Run(c.Name, func(t *testing.T) {
			if c.G.NumVertices() > OracleVertexLimit {
				t.Fatalf("oracle case has %d vertices, limit %d", c.G.NumVertices(), OracleVertexLimit)
			}
			for k := 2; k <= c.MaxK; k++ {
				CheckOracle(t, c.G, k)
			}
		})
	}
}

// TestHierarchyMatchesEnumeration diffs every level of the incremental
// hierarchy build against direct per-k enumeration on the full corpus.
func TestHierarchyMatchesEnumeration(t *testing.T) {
	for _, c := range Corpus() {
		t.Run(c.Name, func(t *testing.T) {
			CheckHierarchy(t, c.G)
		})
	}
}

// TestIncrementalEquivalence replays deterministic random edit scripts
// over the full corpus and diffs the incrementally maintained result
// against a from-scratch enumeration after every batch — the dynamic
// layer's differential guarantee.
func TestIncrementalEquivalence(t *testing.T) {
	for _, c := range Corpus() {
		t.Run(c.Name, func(t *testing.T) {
			for k := 2; k <= c.MaxK; k++ {
				script := EditScript(c.G, 3, 6, int64(1000+17*k))
				CheckIncremental(t, c.G, k, script)
			}
		})
	}
}

// TestEditScriptReplayable requires one seed to give one edit script, so
// a failing TestIncrementalEquivalence round can be replayed from its
// seed.
func TestEditScriptReplayable(t *testing.T) {
	g := Corpus()[0].G
	a, b := EditScript(g, 5, 8, 7), EditScript(g, 5, 8, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 gave two scripts:\n  %v\n  %v", a, b)
	}
	deletes := 0
	for _, batch := range a {
		deletes += len(batch.Deletes)
	}
	if deletes == 0 {
		t.Fatal("the script deletes no edge")
	}
}

// TestAdversarialShapes pins the known connectivity structure of the
// hand-built graphs, so a generator bug cannot silently weaken the suite.
func TestAdversarialShapes(t *testing.T) {
	if got := len(CliqueChain(5, 8, 3).ConnectedComponents()); got != 1 {
		t.Fatalf("clique chain has %d components", got)
	}
	// K_{a,b} has connectivity min(a,b).
	if kappa := verify.VertexConnectivityBrute(CompleteBipartite(3, 5)); kappa != 3 {
		t.Fatalf("K_{3,5} connectivity = %d, want 3", kappa)
	}
	// The d-hypercube has connectivity d.
	if kappa := verify.VertexConnectivityBrute(Hypercube(3)); kappa != 3 {
		t.Fatalf("Q3 connectivity = %d, want 3", kappa)
	}
	// A wheel has connectivity 3.
	if kappa := verify.VertexConnectivityBrute(Wheel(8)); kappa != 3 {
		t.Fatalf("wheel connectivity = %d, want 3", kappa)
	}
	// Two cliques sharing s vertices separate exactly above k = s.
	g := TwoCliquesSharing(5, 3)
	if kappa := verify.VertexConnectivityBrute(g); kappa != 3 {
		t.Fatalf("shared-3 connectivity = %d, want 3", kappa)
	}
	// The lollipop's attachment vertex is an articulation point.
	if kappa := verify.VertexConnectivityBrute(Lollipop(6, 3)); kappa != 1 {
		t.Fatalf("lollipop connectivity = %d, want 1", kappa)
	}
	// H_{d,n} is exactly d-connected. The corpus instance is too large for
	// the exponential oracle, so pin it with the polynomial flow-based
	// computation and brute-check a small instance alongside.
	if kappa := verify.VertexConnectivityBrute(Harary(10, 4)); kappa != 4 {
		t.Fatalf("H_{4,10} connectivity = %d, want 4", kappa)
	}
	if kappa, _ := flow.GlobalVertexConnectivity(Harary(40, 8), 16); kappa != 8 {
		t.Fatalf("H_{8,40} connectivity = %d, want 8", kappa)
	}
	// The star of cliques is exactly `shared`-connected (the hub set).
	if kappa := verify.VertexConnectivityBrute(StarOfCliques(3, 4, 2)); kappa != 2 {
		t.Fatalf("star-of-cliques connectivity = %d, want 2", kappa)
	}
}
