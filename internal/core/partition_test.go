package core

import (
	"math/rand"
	"testing"

	"kvcc/graph"
	"kvcc/metrics"
)

// OVERLAP-PARTITION unit behaviour (Algorithm 1, lines 13-18).

func TestOverlapPartitionDuplicatesCut(t *testing.T) {
	// Two K4s sharing two cut vertices {3,4}: partition by that cut.
	var edges [][2]int
	for _, c := range [][]int{{0, 1, 2, 3, 4}, {3, 4, 5, 6, 7}} {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				edges = append(edges, [2]int{c[i], c[j]})
			}
		}
	}
	g := graph.FromEdges(8, edges)
	parts := overlapPartition(g, []int{3, 4}, &graph.Scratch{})
	if len(parts) != 2 {
		t.Fatalf("parts = %d, want 2", len(parts))
	}
	for _, p := range parts {
		if p.NumVertices() != 5 {
			t.Fatalf("part size %d, want 5 (3 own + 2 cut)", p.NumVertices())
		}
		// Cut vertices and their induced edge must be present in each part.
		idx := p.LabelIndex()
		i3, ok3 := idx[3]
		i4, ok4 := idx[4]
		if !ok3 || !ok4 {
			t.Fatal("cut vertices not duplicated into part")
		}
		if !p.HasEdge(i3, i4) {
			t.Fatal("induced cut edge lost")
		}
	}
}

func TestOverlapPartitionInvalidCut(t *testing.T) {
	// Removing a non-cut leaves one component: the caller treats a single
	// part as an invalid cut (defensive fallback).
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	parts := overlapPartition(g, []int{1}, &graph.Scratch{})
	if len(parts) != 1 {
		t.Fatalf("parts = %d, want 1 for a non-disconnecting set", len(parts))
	}
}

func TestOverlapPartitionLemma8Bound(t *testing.T) {
	// Each part gains at most |cut| extra vertices relative to its own
	// component (Lemma 8).
	rng := rand.New(rand.NewSource(12))
	g := plantedGraph(rng, 4, 12, 0.8, 2)
	k := 5
	comps, _, err := Enumerate(g, k, Options{Algorithm: VCCEStar})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range comps {
		total += c.NumVertices()
	}
	// Total duplication across all k-VCCs is bounded: sum of sizes is at
	// most n + partitions*(k-1) (Lemma 8 applied along the recursion).
	_, stats, err := Enumerate(g, k, Options{Algorithm: VCCEStar})
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(g.NumVertices()) + stats.Partitions*int64(k-1)*2
	if int64(total) > bound {
		t.Fatalf("component vertex total %d exceeds duplication bound %d", total, bound)
	}
}

// Lemma 10: the number of overlapped partitions is below n/2.
func TestPartitionCountLemma10(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := plantedGraph(rng, 5, 12, 0.8, 2)
		for k := 3; k <= 7; k += 2 {
			_, stats, err := Enumerate(g, k, Options{Algorithm: VCCEStar})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Partitions > int64(g.NumVertices())/2 {
				t.Fatalf("seed %d k %d: %d partitions exceeds n/2 = %d",
					seed, k, stats.Partitions, g.NumVertices()/2)
			}
		}
	}
}

// Theorem 2: diam(G_i) <= (|V(G_i)|-2)/κ(G_i) + 1 <= (|V|-2)/k + 1.
func TestDiameterBoundTheorem2(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := plantedGraph(rng, 6, 14, 0.75, 2)
	k := 6
	comps, _, err := Enumerate(g, k, Options{Algorithm: VCCEStar})
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) == 0 {
		t.Skip("no components")
	}
	for i, c := range comps {
		bound := (c.NumVertices()-2)/k + 1
		if d := metrics.Diameter(c); d > bound {
			t.Fatalf("component %d: diameter %d exceeds Theorem 2 bound %d", i, d, bound)
		}
	}
}

// Stats consistency: attribution categories partition the phase-1 work.
func TestStatsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := plantedGraph(rng, 6, 14, 0.8, 2)
	_, st, err := Enumerate(g, 6, Options{Algorithm: VCCEStar})
	if err != nil {
		t.Fatal(err)
	}
	if st.LocCutTests != st.TestedNonPrune+st.Phase2Pairs {
		t.Fatalf("LocCutTests %d != tested %d + phase2 %d",
			st.LocCutTests, st.TestedNonPrune, st.Phase2Pairs)
	}
	if st.FlowRuns > st.LocCutTests {
		t.Fatalf("flow runs %d exceed LOC-CUT tests %d", st.FlowRuns, st.LocCutTests)
	}
	if st.SweptNS1 < 0 || st.SweptNS2 < 0 || st.SweptGS < 0 {
		t.Fatal("negative sweep counters")
	}
}

// The basic algorithm must produce zero sweep attribution.
func TestBasicHasNoSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := plantedGraph(rng, 4, 12, 0.8, 2)
	_, st, err := Enumerate(g, 5, Options{Algorithm: VCCE})
	if err != nil {
		t.Fatal(err)
	}
	if st.SweptNS1+st.SweptNS2+st.SweptGS != 0 {
		t.Fatalf("VCCE performed sweeps: %+v", st)
	}
	if st.SSVDetected != 0 {
		t.Fatalf("VCCE detected SSVs: %+v", st)
	}
}

// VCCE-N must not use group sweeps and VCCE-G must not use neighbor
// sweeps.
func TestVariantAttributionIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := plantedGraph(rng, 6, 14, 0.8, 2)
	_, stN, err := Enumerate(g, 6, Options{Algorithm: VCCEN})
	if err != nil {
		t.Fatal(err)
	}
	if stN.SweptGS != 0 || stN.Phase2Skipped != 0 {
		t.Fatalf("VCCE-N used group sweep: %+v", stN)
	}
	_, stG, err := Enumerate(g, 6, Options{Algorithm: VCCEG})
	if err != nil {
		t.Fatal(err)
	}
	if stG.SweptNS1 != 0 && stG.SweptNS2 != 0 {
		// GS1 uses SSVs but never attributes NS causes.
		t.Fatalf("VCCE-G attributed neighbor sweeps: %+v", stG)
	}
}
