package core

import (
	"testing"

	"kvcc/gen"
)

// BenchmarkFindCutKConnected certifies a k-VCC: GLOBAL-CUT* at k = 25 on
// the 25-VCC of a dense random community, G(125, 0.27) with seed 1, which
// has 118 vertices and average degree 32.5. Dense k-connected components
// of this shape take most of the certification time of the enum-cold
// grid, and every phase-1 and phase-2 test there passes. The workspace is
// reused across ops, as one enumeration worker reuses it.
func BenchmarkFindCutKConnected(b *testing.B) {
	const k = 25
	comps, _, err := Enumerate(gen.GNP(125, 0.27, 1), k, Options{Algorithm: VCCEStar})
	if err != nil || len(comps) != 1 {
		b.Fatalf("got %d components (%v), want one 25-VCC", len(comps), err)
	}
	g := comps[0]
	e := &enumerator{k: k, opts: Options{Algorithm: VCCEStar}}
	var ws workspace
	var stats Stats
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if cut := e.findCutOptimized(g, &stats, &ws); cut != nil {
			b.Fatalf("cut %v of a 25-VCC", cut)
		}
	}
	b.ReportMetric(float64(stats.FlowRuns)/float64(b.N), "flows/op")
}
