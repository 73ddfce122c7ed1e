package core

// Strong side-vertex (SSV) handling, Theorem 8.
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
//
// Every status is tested on the component being searched. The paper's
// Lemmas 15-16 would carry statuses into the pieces of an overlapped
// partition instead, but a carried "no" is often wrong for the piece (a
// vertex whose failing neighbor pair lost a member to the partition can be
// an SSV there) and forgoes pruning, and with lazy resolution the carried
// answers saved no measured time.

const (
	ssvUnknown int8 = iota
	ssvYes
	ssvNo
)

// isSSV resolves the strong side-vertex status of v, memoized.
func (cf *cutFinder) isSSV(v int) bool {
	switch cf.ssvMemo[v] {
	case ssvYes:
		return true
	case ssvNo:
		return false
	}
	if cf.checkSSV(v) {
		cf.ssvMemo[v] = ssvYes
		cf.stats.SSVDetected++
		return true
	}
	cf.ssvMemo[v] = ssvNo
	return false
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
