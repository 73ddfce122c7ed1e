package core

import "kvcc/graph"

// HintedSSV enumerates g at k with VCCE*, serially, and calls check with
// every strong side-vertex status taken from a parent's hint (Lemmas
// 15-16) next to the answer of a fresh Theorem 8 test on the child.
func HintedSSV(g *graph.Graph, k int, check func(hinted, fresh bool)) (*Stats, error) {
	testHookHinted = func(cf *cutFinder, v int, ssv bool) { check(ssv, cf.checkSSV(v)) }
	defer func() { testHookHinted = nil }()
	_, stats, err := Enumerate(g, k, Options{Algorithm: VCCEStar})
	return stats, err
}
