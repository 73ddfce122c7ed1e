package difftest

import (
	"testing"

	"kvcc/internal/core"
)

// counters are the Table 2 and flow counters of core.Stats that describe
// what GLOBAL-CUT does: the cut searches, the partitions, the LOC-CUT tests
// and flow runs, the phase-1 sweep attribution and the phase-2 pairs.
type counters struct {
	globalCutCalls, partitions, flowRuns, locCutTests int64
	sweptNS1, sweptNS2, sweptGS, tested               int64
	phase2Pairs, phase2Skipped                        int64
}

func countersOf(s *core.Stats) counters {
	return counters{
		s.GlobalCutCalls, s.Partitions, s.FlowRuns, s.LocCutTests,
		s.SweptNS1, s.SweptNS2, s.SweptGS, s.TestedNonPrune,
		s.Phase2Pairs, s.Phase2Skipped,
	}
}

// pinnedCounters holds, per corpus case and algorithm, the counters summed
// over k = 2..MaxK, and the number of strong side-vertex statuses resolved
// to "yes" (SSVDetected). Every status is resolved lazily, by the Theorem 8
// test on the component being searched, so the SSV count is what the sweep
// rules read, not every SSV of the component.
var pinnedCounters = []struct {
	name string
	algo core.Algorithm
	want counters
	ssv  int64
}{
	{"gnp-sparse", core.VCCE, counters{3, 0, 120, 140, 0, 0, 0, 130, 10, 0}, 0},
	{"gnp-sparse", core.VCCEN, counters{3, 0, 31, 34, 3, 96, 0, 31, 3, 0}, 1},
	{"gnp-sparse", core.VCCEG, counters{3, 0, 49, 58, 0, 0, 75, 55, 3, 0}, 1},
	{"gnp-sparse", core.VCCEStar, counters{3, 0, 22, 25, 3, 34, 71, 22, 3, 0}, 1},
	{"gnp-dense", core.VCCE, counters{7, 0, 215, 353, 0, 0, 0, 269, 84, 0}, 0},
	{"gnp-dense", core.VCCEN, counters{7, 0, 9, 110, 31, 193, 0, 45, 65, 0}, 7},
	{"gnp-dense", core.VCCEG, counters{7, 0, 18, 119, 0, 0, 180, 89, 30, 35}, 2},
	{"gnp-dense", core.VCCEStar, counters{7, 0, 9, 72, 16, 54, 157, 42, 30, 35}, 2},
	{"gnm", core.VCCE, counters{4, 0, 215, 249, 0, 0, 0, 229, 20, 0}, 0},
	{"gnm", core.VCCEN, counters{4, 0, 30, 43, 4, 192, 0, 33, 10, 0}, 1},
	{"gnm", core.VCCEG, counters{4, 0, 59, 80, 0, 0, 156, 73, 7, 3}, 1},
	{"gnm", core.VCCEStar, counters{4, 0, 21, 29, 4, 52, 151, 22, 7, 3}, 1},
	{"barabasi-albert", core.VCCE, counters{3, 0, 145, 172, 0, 0, 0, 162, 10, 0}, 0},
	{"barabasi-albert", core.VCCEN, counters{3, 0, 0, 0, 15, 147, 0, 0, 0, 0}, 8},
	{"barabasi-albert", core.VCCEG, counters{3, 0, 5, 11, 0, 0, 151, 11, 0, 0}, 3},
	{"barabasi-albert", core.VCCEStar, counters{3, 0, 0, 0, 12, 5, 145, 0, 0, 0}, 5},
	{"web-copying", core.VCCE, counters{3, 0, 213, 247, 0, 0, 0, 237, 10, 0}, 0},
	{"web-copying", core.VCCEN, counters{3, 0, 6, 12, 5, 223, 0, 9, 3, 0}, 2},
	{"web-copying", core.VCCEG, counters{3, 0, 12, 25, 0, 0, 213, 24, 1, 2}, 1},
	{"web-copying", core.VCCEStar, counters{3, 0, 4, 6, 4, 18, 210, 5, 1, 2}, 1},
	{"planted", core.VCCE, counters{35, 13, 333, 942, 0, 0, 0, 650, 292, 0}, 0},
	{"planted", core.VCCEN, counters{35, 13, 39, 39, 288, 171, 0, 39, 0, 0}, 75},
	{"planted", core.VCCEG, counters{35, 13, 74, 226, 0, 0, 272, 226, 0, 0}, 56},
	{"planted", core.VCCEStar, counters{35, 13, 39, 39, 279, 57, 123, 39, 0, 0}, 85},
	{"planted-dense", core.VCCE, counters{32, 12, 187, 944, 0, 0, 0, 524, 420, 0}, 0},
	{"planted-dense", core.VCCEN, counters{32, 12, 16, 17, 282, 96, 0, 17, 0, 0}, 68},
	{"planted-dense", core.VCCEG, counters{32, 12, 25, 201, 0, 0, 194, 201, 0, 0}, 43},
	{"planted-dense", core.VCCEStar, counters{32, 12, 15, 16, 250, 24, 105, 16, 0, 0}, 67},
	{"clique-chain-subk-overlap", core.VCCE, counters{29, 12, 52, 414, 0, 0, 0, 255, 159, 0}, 0},
	{"clique-chain-subk-overlap", core.VCCEN, counters{29, 12, 12, 12, 159, 0, 0, 12, 0, 0}, 37},
	{"clique-chain-subk-overlap", core.VCCEG, counters{29, 12, 14, 100, 0, 0, 71, 100, 0, 0}, 36},
	{"clique-chain-subk-overlap", core.VCCEStar, counters{29, 12, 12, 12, 134, 0, 25, 12, 0, 0}, 41},
	{"two-cliques-exact-overlap", core.VCCE, counters{9, 2, 14, 137, 0, 0, 0, 77, 60, 0}, 0},
	{"two-cliques-exact-overlap", core.VCCEN, counters{9, 2, 2, 2, 61, 0, 0, 2, 0, 0}, 12},
	{"two-cliques-exact-overlap", core.VCCEG, counters{9, 2, 2, 36, 0, 0, 27, 36, 0, 0}, 12},
	{"two-cliques-exact-overlap", core.VCCEStar, counters{9, 2, 2, 2, 61, 0, 0, 2, 0, 0}, 14},
	{"two-cliques-cut-vertex", core.VCCE, counters{8, 0, 0, 80, 0, 0, 0, 40, 40, 0}, 0},
	{"two-cliques-cut-vertex", core.VCCEN, counters{8, 0, 0, 0, 40, 0, 0, 0, 0, 0}, 8},
	{"two-cliques-cut-vertex", core.VCCEG, counters{8, 0, 0, 26, 0, 0, 14, 26, 0, 0}, 12},
	{"two-cliques-cut-vertex", core.VCCEStar, counters{8, 0, 0, 0, 40, 0, 0, 0, 0, 0}, 12},
	{"cycle", core.VCCE, counters{1, 0, 28, 30, 0, 0, 0, 29, 1, 0}, 0},
	{"cycle", core.VCCEN, counters{1, 0, 27, 27, 0, 2, 0, 27, 0, 0}, 0},
	{"cycle", core.VCCEG, counters{1, 0, 27, 29, 0, 0, 0, 29, 0, 0}, 0},
	{"cycle", core.VCCEStar, counters{1, 0, 27, 27, 0, 2, 0, 27, 0, 0}, 0},
	{"complete-bipartite", core.VCCE, counters{4, 0, 40, 72, 0, 0, 0, 52, 20, 0}, 0},
	{"complete-bipartite", core.VCCEN, counters{4, 0, 0, 0, 52, 0, 0, 0, 0, 0}, 8},
	{"complete-bipartite", core.VCCEG, counters{4, 0, 0, 20, 0, 0, 32, 20, 0, 0}, 8},
	{"complete-bipartite", core.VCCEStar, counters{4, 0, 0, 0, 52, 0, 0, 0, 0, 0}, 12},
	{"barbell", core.VCCE, counters{10, 0, 0, 130, 0, 0, 0, 60, 70, 0}, 0},
	{"barbell", core.VCCEN, counters{10, 0, 0, 0, 60, 0, 0, 0, 0, 0}, 10},
	{"barbell", core.VCCEG, counters{10, 0, 0, 42, 0, 0, 18, 42, 0, 0}, 14},
	{"barbell", core.VCCEStar, counters{10, 0, 0, 0, 60, 0, 0, 0, 0, 0}, 14},
	{"hypercube", core.VCCE, counters{3, 0, 43, 55, 0, 0, 0, 45, 10, 0}, 0},
	{"hypercube", core.VCCEN, counters{3, 0, 19, 25, 15, 11, 0, 19, 6, 0}, 7},
	{"hypercube", core.VCCEG, counters{3, 0, 23, 40, 0, 0, 11, 34, 6, 0}, 3},
	{"hypercube", core.VCCEStar, counters{3, 0, 19, 25, 13, 11, 2, 19, 6, 0}, 5},
	{"wheel", core.VCCE, counters{2, 0, 17, 26, 0, 0, 0, 22, 4, 0}, 0},
	{"wheel", core.VCCEN, counters{2, 0, 8, 8, 11, 3, 0, 8, 0, 0}, 9},
	{"wheel", core.VCCEG, counters{2, 0, 8, 12, 0, 0, 10, 12, 0, 0}, 1},
	{"wheel", core.VCCEStar, counters{2, 0, 8, 8, 3, 3, 8, 8, 0, 0}, 1},
	{"grid", core.VCCE, counters{1, 0, 40, 42, 0, 0, 0, 41, 1, 0}, 0},
	{"grid", core.VCCEN, counters{1, 0, 6, 6, 4, 31, 0, 6, 0, 0}, 2},
	{"grid", core.VCCEG, counters{1, 0, 15, 16, 0, 0, 25, 16, 0, 0}, 2},
	{"grid", core.VCCEStar, counters{1, 0, 3, 3, 5, 16, 17, 3, 0, 0}, 3},
	{"disconnected-scraps", core.VCCE, counters{6, 0, 0, 35, 0, 0, 0, 20, 15, 0}, 0},
	{"disconnected-scraps", core.VCCEN, counters{6, 0, 0, 0, 20, 0, 0, 0, 0, 0}, 6},
	{"disconnected-scraps", core.VCCEG, counters{6, 0, 0, 15, 0, 0, 5, 15, 0, 0}, 8},
	{"disconnected-scraps", core.VCCEStar, counters{6, 0, 0, 0, 20, 0, 0, 0, 0, 0}, 8},
	{"star", core.VCCE, counters{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0},
	{"star", core.VCCEN, counters{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0},
	{"star", core.VCCEG, counters{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0},
	{"star", core.VCCEStar, counters{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0},
	{"lollipop", core.VCCE, counters{6, 0, 0, 98, 0, 0, 0, 42, 56, 0}, 0},
	{"lollipop", core.VCCEN, counters{6, 0, 0, 0, 42, 0, 0, 0, 0, 0}, 6},
	{"lollipop", core.VCCEG, counters{6, 0, 0, 27, 0, 0, 15, 27, 0, 0}, 9},
	{"lollipop", core.VCCEStar, counters{6, 0, 0, 0, 42, 0, 0, 0, 0, 0}, 9},
	{"harary-expander", core.VCCE, counters{7, 0, 247, 357, 0, 0, 0, 273, 84, 0}, 0},
	{"harary-expander", core.VCCEN, counters{7, 0, 139, 262, 0, 146, 0, 127, 135, 0}, 0},
	{"harary-expander", core.VCCEG, counters{7, 0, 157, 273, 0, 0, 105, 168, 105, 30}, 0},
	{"harary-expander", core.VCCEStar, counters{7, 0, 139, 232, 0, 53, 93, 127, 105, 30}, 0},
	{"star-of-cliques", core.VCCE, counters{17, 3, 18, 280, 0, 0, 0, 152, 128, 0}, 0},
	{"star-of-cliques", core.VCCEN, counters{17, 3, 3, 3, 128, 0, 0, 3, 0, 0}, 17},
	{"star-of-cliques", core.VCCEG, counters{17, 3, 3, 74, 0, 0, 57, 74, 0, 0}, 23},
	{"star-of-cliques", core.VCCEStar, counters{17, 3, 3, 3, 128, 0, 0, 3, 0, 0}, 23},
	{"star-of-cliques-deep", core.VCCE, counters{29, 4, 29, 408, 0, 0, 0, 203, 205, 0}, 0},
	{"star-of-cliques-deep", core.VCCEN, counters{29, 4, 4, 4, 175, 0, 0, 4, 0, 0}, 29},
	{"star-of-cliques-deep", core.VCCEG, counters{29, 4, 4, 125, 0, 0, 54, 125, 0, 0}, 36},
	{"star-of-cliques-deep", core.VCCEStar, counters{29, 4, 4, 4, 175, 0, 0, 4, 0, 0}, 36},
}

// TestTable2CountersPinned enumerates every corpus case with every
// algorithm and compares the sweep and flow counters with pinnedCounters,
// so a change to when statuses resolve cannot change what the sweeps do.
func TestTable2CountersPinned(t *testing.T) {
	want := make(map[string]int) // "case/algo" -> index into pinnedCounters
	for i, p := range pinnedCounters {
		want[p.name+"/"+p.algo.String()] = i
	}
	seen := 0
	for _, c := range Corpus() {
		for _, algo := range []core.Algorithm{core.VCCE, core.VCCEN, core.VCCEG, core.VCCEStar} {
			key := c.Name + "/" + algo.String()
			i, ok := want[key]
			if !ok {
				t.Errorf("%s: no pinned counters", key)
				continue
			}
			seen++
			var sum core.Stats
			for k := 2; k <= c.MaxK; k++ {
				_, st, err := core.Enumerate(c.G, k, core.Options{Algorithm: algo})
				if err != nil {
					t.Fatalf("%s k=%d: %v", key, k, err)
				}
				sum.Add(st)
			}
			if got := countersOf(&sum); got != pinnedCounters[i].want {
				t.Errorf("%s: counters %+v, pinned %+v", key, got, pinnedCounters[i].want)
			}
			if sum.SSVDetected != pinnedCounters[i].ssv {
				t.Errorf("%s: %d SSVs resolved, pinned %d", key, sum.SSVDetected, pinnedCounters[i].ssv)
			}
		}
	}
	if seen != len(pinnedCounters) {
		t.Errorf("matched %d of %d pinned rows", seen, len(pinnedCounters))
	}
}
