package core_test

import (
	"testing"

	"kvcc/gen"
	"kvcc/internal/core"
	"kvcc/internal/difftest"
)

// TestHintedSSVMatchesFreshCheck checks every strong side-vertex status a
// child component takes from its parent's hint against the pairwise test
// run on the child itself, over the difftest corpus.
//
// A Lemma 16 "yes" must agree with the fresh test: a wrong one would let
// neighbor sweep rule 1 skip a vertex that a small cut separates. A
// Lemma 15 "no" is conservative: a vertex whose non-adjacent neighbor pair
// lost a member in the partition can be an SSV of the child, and answering
// "no" then only forgoes pruning. Those answers are counted, not failed.
//
// The test also requires Lemma 16 to carry at least one SSV across a
// partition, so the inherited path stays exercised now that statuses are
// resolved only when a sweep rule reads them.
//
// On the corpus every parent SSV is still an SSV of its children. The
// extra planted graph has one that is not at k = 6, so a Lemma 16 that
// skipped its degree check would fail here.
func TestHintedSSVMatchesFreshCheck(t *testing.T) {
	ssvLoss, _ := gen.Planted(gen.PlantedConfig{
		Communities: 5, MinSize: 8, MaxSize: 12, IntraProb: 0.8,
		ChainOverlap: 2, ChainEvery: 1, BridgeEdges: 5,
		NoiseVertices: 20, NoiseDegree: 3, Seed: 19,
	})
	cases := append(difftest.Corpus(), difftest.Case{Name: "planted-ssv-loss", G: ssvLoss, MaxK: 6})
	var yes, no, conservative, inherited int64
	for _, c := range cases {
		for k := 2; k <= c.MaxK; k++ {
			stats, err := core.HintedSSV(c.G, k, func(hinted, fresh bool) {
				if hinted {
					yes++
					if !fresh {
						t.Errorf("%s k=%d: Lemma 16 inherited an SSV that the child's test rejects", c.Name, k)
					}
					return
				}
				no++
				if fresh {
					conservative++
				}
			})
			if err != nil {
				t.Fatalf("%s k=%d: %v", c.Name, k, err)
			}
			inherited += stats.SSVInherited
		}
	}
	t.Logf("hinted statuses: %d yes, %d no (%d of them SSVs of the child)", yes, no, conservative)
	if inherited == 0 || inherited != yes {
		t.Errorf("Stats.SSVInherited = %d, hinted yes answers = %d; want equal and > 0", inherited, yes)
	}
	if no == 0 {
		t.Error("no status was resolved through Lemma 15 anywhere in the corpus")
	}
}
