package core

import "kvcc/graph"

// Strong side-vertex (SSV) handling, Theorem 8 and Lemmas 14-16.
//
// A vertex u is a strong side-vertex if every pair of its neighbors is
// adjacent or shares at least k common neighbors; such a vertex cannot
// belong to any qualified vertex cut, which powers neighbor sweep rule 1,
// group sweep rule 1, source selection, and the phase-2 skip.
//
// Resolution is lazy and memoized: a status is resolved only when a rule
// is about to read it. The source scan asks a bounded prefix of vertices,
// the phase-2 skip asks the source, and sweep asks a swept vertex only at
// its first neighbor not yet swept (neighbor sweep rule 1) or when its
// side-group's deposit is still below k (group sweep rule 1). GLOBAL-CUT*
// on a component that is not k-connected typically finds a cut after
// testing one or two far vertices, so few statuses are ever computed.
// Terminal (k-connected) components resolve more, but they are exactly the
// components where the answers pay for themselves by sweeping phase 1 and
// skipping phase 2.

const (
	ssvUnknown int8 = iota
	ssvYes
	ssvNo
)

// ssvHint carries resolved SSV knowledge from a parent component to the
// subgraphs created by partitioning it:
//
//   - Lemma 15: a resolved "no" propagates as "no". The answer is
//     conservative, not exact: a vertex whose failing neighbor pair lost
//     a member to the partition can be an SSV of the child, and treating
//     it as a non-SSV only forgoes pruning.
//   - Lemma 16 (strengthened to survive the k-core reduction between
//     partitions): a parent SSV whose own degree and all of whose
//     neighbors' degrees are unchanged in the child has an identical
//     two-hop structure there and remains an SSV without rechecking.
//     Children only ever remove vertices and edges, so equal degree means
//     equal neighborhood.
//
// Unresolved vertices stay unknown and are rechecked on the child graph if
// ever queried, which is intrinsically sound.
type ssvHint struct {
	ssv map[int64]bool // resolved statuses by label (true = SSV)
	deg map[int64]int  // parent degrees of SSVs and of their neighbors
}

// isSSV resolves the strong side-vertex status of v, memoized.
func (cf *cutFinder) isSSV(v int) bool {
	switch cf.ssvMemo[v] {
	case ssvYes:
		return true
	case ssvNo:
		return false
	}
	res := cf.resolveSSV(v)
	if res {
		cf.ssvMemo[v] = ssvYes
	} else {
		cf.ssvMemo[v] = ssvNo
	}
	return res
}

// testHookHinted, when set, is called with every status resolveSSV takes
// from the parent's hint instead of testing it.
var testHookHinted func(cf *cutFinder, v int, ssv bool)

func (cf *cutFinder) resolveSSV(v int) bool {
	if ssv, ok := cf.hinted(v); ok {
		if testHookHinted != nil {
			testHookHinted(cf, v, ssv)
		}
		return ssv
	}
	if cf.checkSSV(v) {
		cf.stats.SSVDetected++
		return true
	}
	return false
}

// hinted resolves v's status from the parent's hint; ok is false when the
// hint does not decide it.
func (cf *cutFinder) hinted(v int) (ssv, ok bool) {
	h := cf.hint
	if h == nil {
		return false, false
	}
	known, resolved := h.ssv[cf.g.Label(v)]
	switch {
	case !resolved:
		return false, false
	case !known:
		return false, true // Lemma 15
	case h.preserved(cf.g, v):
		cf.stats.SSVInherited++
		return true, true // Lemma 16
	}
	return false, false
}

// buildHint snapshots the resolved part of the memo for the child tasks.
func (cf *cutFinder) buildHint() *ssvHint {
	h := &ssvHint{ssv: make(map[int64]bool), deg: make(map[int64]int)}
	for v, st := range cf.ssvMemo {
		switch st {
		case ssvYes:
			lab := cf.g.Label(v)
			h.ssv[lab] = true
			h.deg[lab] = cf.g.Degree(v)
			for _, w := range cf.g.Neighbors(v) {
				h.deg[cf.g.Label(w)] = cf.g.Degree(w)
			}
		case ssvNo:
			h.ssv[cf.g.Label(v)] = false
		}
	}
	return h
}

// preserved reports whether vertex v of g kept its parent degree and all
// its neighbors kept theirs (the Lemma 16 shortcut condition).
func (h *ssvHint) preserved(g *graph.Graph, v int) bool {
	if d, ok := h.deg[g.Label(v)]; !ok || d != g.Degree(v) {
		return false
	}
	for _, w := range g.Neighbors(v) {
		if d, ok := h.deg[g.Label(w)]; !ok || d != g.Degree(w) {
			return false
		}
	}
	return true
}

// checkSSV runs the Theorem 8 test: v is a strong side-vertex if every
// pair of its neighbors is adjacent or shares at least k common neighbors.
// The common-neighbor count stops as soon as it reaches k.
//
// The pairwise tests used to dominate enumeration profiles as binary
// searches (adjacency) and sorted merges (common neighbors). Instead, the
// outer loop stamps N(a) into a generation-stamped membership array once
// per neighbor a; adjacency then is one O(1) lookup and the common count
// one early-exiting scan of N(b).
func (cf *cutFinder) checkSSV(v int) bool {
	g := cf.g
	nbrs := g.Neighbors(v)
	for i := 0; i < len(nbrs); i++ {
		a := nbrs[i]
		cf.nbGen++
		gen := cf.nbGen
		for _, w := range g.Neighbors(a) {
			cf.nbStamp[w] = gen
		}
		for _, b := range nbrs[i+1:] {
			if cf.nbStamp[b] == gen {
				continue // a and b adjacent
			}
			count := 0
			for _, w := range g.Neighbors(b) {
				if cf.nbStamp[w] == gen {
					count++
					if count >= cf.k {
						break
					}
				}
			}
			if count < cf.k {
				return false
			}
		}
	}
	return true
}
