package core

import (
	"kvcc/graph"
	"kvcc/internal/flow"
	"kvcc/internal/sparse"
)

// findCut searches a connected component for a vertex cut with fewer than
// k vertices. It returns nil if the component is k-connected. The returned
// hint carries this component's strong side-vertex set to its children.
// Every variant runs its flow tests on the component's sparse certificate
// (Theorem 5), whatever the component's size: the certificate costs one
// O(n+m) pass, and its last forest gives the group sweep its side groups.
func (e *enumerator) findCut(g *graph.Graph, hint *ssvHint, stats *Stats, ws *workspace) ([]int, *ssvHint) {
	cert := sparse.ComputeScratch(g, e.k, &ws.sparse)
	if e.opts.Algorithm == VCCE {
		return e.findCutBasic(g, cert.SC, stats, ws), nil
	}
	return e.findCutOptimized(g, cert, hint, stats, ws)
}

// findCutBasic is GLOBAL-CUT (Algorithm 2) on component g with its flow
// tests run on sc: local connectivity tests from a minimum-degree source
// against every vertex (phase 1) and between every pair of the source's
// neighbors (phase 2, Lemma 4). VCCE passes g's sparse certificate as sc;
// the defensive fallback in step passes g itself, so any cut it finds is
// a cut of the component by construction.
func (e *enumerator) findCutBasic(g, sc *graph.Graph, stats *Stats, ws *workspace) []int {
	nw := flow.NewNetworkScratch(sc, e.k, &ws.flow)
	defer func() { stats.FlowRuns += nw.FlowRuns }()

	u, _ := sc.MinDegreeVertex()
	for v := 0; v < sc.NumVertices(); v++ {
		if v == u {
			continue
		}
		stats.LocCutTests++
		stats.TestedNonPrune++
		if g.HasEdge(u, v) {
			continue // Lemma 5: adjacent vertices are k-local connected
		}
		if cut, _, atLeast := nw.MinVertexCut(u, v); !atLeast {
			return cut
		}
	}
	nbrs := sc.Neighbors(u)
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			stats.LocCutTests++
			stats.Phase2Pairs++
			if g.HasEdge(nbrs[i], nbrs[j]) {
				continue
			}
			if cut, _, atLeast := nw.MinVertexCut(nbrs[i], nbrs[j]); !atLeast {
				return cut
			}
		}
	}
	return nil
}

// sweep causes recorded per vertex for Table 2 attribution.
const (
	causeNone   uint8 = iota
	causeSeed         // the source vertex itself
	causeTested       // swept after its own successful test
	causeNS1          // neighbor sweep rule 1: neighbor of a strong side-vertex
	causeNS2          // neighbor sweep rule 2: vertex deposit reached k
	causeGS           // group sweep rules 1-2
)

// cutFinder holds the per-component state of GLOBAL-CUT* (Algorithm 3).
// One cutFinder lives in each workspace and is re-primed per component by
// reset, so its buffers warm up to the largest component a worker sees
// and the per-component cost is clearing, not allocating.
type cutFinder struct {
	g  *graph.Graph // the component (sweeps, deposits, SSV tests)
	sc *graph.Graph // sparse certificate (flow tests, phase-2 neighbors)
	k  int
	nw *flow.Network

	useNS, useGS bool

	hint         *ssvHint
	ssvMemo      []int8
	ssvDegreeCap int
	stats        *Stats

	groupID []int
	groups  [][]int

	pru        []bool
	cause      []uint8
	deposit    []int
	gDeposit   []int
	gProcessed []bool

	stack  []int // scratch for iterative sweep
	order  []int // phase-1 vertex ordering
	counts []int // counting-sort buckets for the ordering

	// Neighborhood membership stamps for the SSV pairwise test. Stamps
	// only ever hold generations already issued, so growing the buffer
	// within capacity across components is safe: a strictly increasing
	// counter can never collide with a re-exposed stale stamp.
	nbStamp []int64
	nbGen   int64
}

// growClear reslices s to length n with every element zeroed,
// reallocating only when the capacity is insufficient.
func growClear[T bool | int | int8 | uint8](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reset primes cf for a new component.
func (cf *cutFinder) reset(e *enumerator, g *graph.Graph, cert *sparse.Certificate, hint *ssvHint, stats *Stats, ws *workspace) {
	n := g.NumVertices()
	cf.g = g
	cf.sc = cert.SC
	cf.k = e.k
	cf.nw = flow.NewNetworkScratch(cert.SC, e.k, &ws.flow)
	cf.useNS = e.opts.Algorithm.neighborSweep()
	cf.useGS = e.opts.Algorithm.groupSweep()
	cf.hint = hint
	cf.ssvDegreeCap = e.opts.SSVDegreeCap
	cf.stats = stats
	cf.ssvMemo = growClear(cf.ssvMemo, n)
	cf.pru = growClear(cf.pru, n)
	cf.cause = growClear(cf.cause, n)
	cf.deposit = growClear(cf.deposit, n)
	if cap(cf.nbStamp) < n {
		cf.nbStamp = make([]int64, n)
	} else {
		cf.nbStamp = cf.nbStamp[:n]
	}
	if cf.useGS {
		cf.groupID = cert.GroupID
		cf.groups = cert.SideGroups
		cf.gDeposit = growClear(cf.gDeposit, len(cf.groups))
		cf.gProcessed = growClear(cf.gProcessed, len(cf.groups))
	} else {
		cf.groupID, cf.groups = nil, nil
	}
}

// findCutOptimized is GLOBAL-CUT* (Algorithm 3) with the sweep strategies
// selected by the algorithm variant.
func (e *enumerator) findCutOptimized(g *graph.Graph, cert *sparse.Certificate, hint *ssvHint, stats *Stats, ws *workspace) ([]int, *ssvHint) {
	cf := &ws.cf
	cf.reset(e, g, cert, hint, stats, ws)
	defer func() { stats.FlowRuns += cf.nw.FlowRuns }()

	n := g.NumVertices()

	// Source selection (Algorithm 3, lines 4-7): prefer a strong
	// side-vertex, since the source then cannot belong to any qualified
	// cut and phase 2 can be skipped entirely. SSV statuses resolve
	// lazily, so the scan is bounded; if no SSV turns up quickly, fall
	// back to the minimum-degree vertex as in Algorithm 2.
	u := -1
	scan := n
	if scan > ssvSourceScanLimit {
		scan = ssvSourceScanLimit
	}
	for v := 0; v < scan; v++ {
		if cf.isSSV(v) {
			u = v
			break
		}
	}
	if u == -1 {
		// Minimum degree in the sparse certificate: phase 2 enumerates
		// pairs of N_SC(u), so the certificate degree is the quantity to
		// minimize.
		u, _ = cf.sc.MinDegreeVertex()
	}
	cf.sweep(u, causeSeed)

	// Phase 1: process vertices in non-ascending distance from u
	// (Algorithm 3, line 11) — remote vertices are the most likely to be
	// separated from the source.
	order := cf.orderByDistance(g.BFSDistancesScratch(u, &ws.graph), u)
	for _, v := range order {
		if cf.pru[v] {
			switch cf.cause[v] {
			case causeNS1:
				stats.SweptNS1++
			case causeNS2:
				stats.SweptNS2++
			case causeGS:
				stats.SweptGS++
			}
			continue
		}
		stats.LocCutTests++
		stats.TestedNonPrune++
		if !cf.g.HasEdge(u, v) { // Lemma 5 shortcut on the full component
			if cut, _, atLeast := cf.nw.MinVertexCut(u, v); !atLeast {
				return cut, cf.buildHint()
			}
		}
		cf.sweep(v, causeTested)
	}

	// Phase 2 (Algorithm 3, lines 16-21): only needed if the source could
	// itself belong to a cut.
	if !cf.isSSV(u) {
		nbrs := cf.sc.Neighbors(u)
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				va, vb := nbrs[i], nbrs[j]
				if cf.useGS && cf.groupID[va] >= 0 && cf.groupID[va] == cf.groupID[vb] {
					stats.Phase2Skipped++ // group sweep rule 3
					continue
				}
				stats.LocCutTests++
				stats.Phase2Pairs++
				if cf.g.HasEdge(va, vb) {
					continue
				}
				if cut, _, atLeast := cf.nw.MinVertexCut(va, vb); !atLeast {
					return cut, cf.buildHint()
				}
			}
		}
	}
	// No cut: the component is a k-VCC and will never be partitioned, so
	// there are no children to hand a hint to — skip building one. This
	// matters: terminal components resolve the most SSV statuses (full
	// phase-1 and phase-2 scans), which made their discarded hints the
	// most expensive ones.
	return nil, nil
}

// orderByDistance lays out the vertices other than u in non-ascending
// BFS distance from u, ties broken by ascending vertex id. Distances are
// small integers, so a counting sort bucketed by distance replaces the
// closure-based comparison sort that used to show up on profiles of
// large components; a single ascending placement scan keeps ties in
// ascending id order, so the result is identical to the old sort.
// Unreachable vertices (distance -1 — impossible for a connected
// component, but the +1 bucket shift keeps them well-defined) come last,
// as they did under the old comparator. The returned slice is owned by
// cf and valid until its next use.
func (cf *cutFinder) orderByDistance(dist []int, u int) []int {
	n := len(dist)
	maxD := 0
	for _, d := range dist {
		if d > maxD {
			maxD = d
		}
	}
	counts := growClear(cf.counts, maxD+2)
	for v := 0; v < n; v++ {
		if v != u {
			counts[dist[v]+1]++
		}
	}
	// Rewrite counts into write cursors for a descending-bucket layout:
	// the bucket of the largest distance starts at 0.
	start := 0
	for b := maxD + 1; b >= 0; b-- {
		c := counts[b]
		counts[b] = start
		start += c
	}
	cf.counts = counts
	if cap(cf.order) < n-1 {
		cf.order = make([]int, n-1)
	}
	order := cf.order[:n-1]
	for v := 0; v < n; v++ {
		if v == u {
			continue
		}
		b := dist[v] + 1
		order[counts[b]] = v
		counts[b]++
	}
	cf.order = order
	return order
}

// ssvSourceScanLimit bounds the lazy scan for a strong side-vertex source.
const ssvSourceScanLimit = 64

// sweep marks v as swept (u ≡k v is established) and propagates the
// neighbor-sweep and group-sweep rules iteratively (Algorithm 4).
func (cf *cutFinder) sweep(v int, cause uint8) {
	if cf.pru[v] {
		return
	}
	cf.pru[v] = true
	cf.cause[v] = cause
	cf.stack = append(cf.stack[:0], v)
	for len(cf.stack) > 0 {
		x := cf.stack[len(cf.stack)-1]
		cf.stack = cf.stack[:len(cf.stack)-1]

		if cf.useNS {
			xIsSSV := cf.isSSV(x)
			for _, w := range cf.g.Neighbors(x) {
				if cf.pru[w] {
					continue
				}
				cf.deposit[w]++
				switch {
				case xIsSSV: // neighbor sweep rule 1 (Theorem 8 + Lemma 11)
					cf.mark(w, causeNS1)
				case cf.deposit[w] >= cf.k: // neighbor sweep rule 2 (Theorem 9)
					cf.mark(w, causeNS2)
				}
			}
		}
		if cf.useGS {
			gid := cf.groupID[x]
			if gid >= 0 && !cf.gProcessed[gid] {
				cf.gDeposit[gid]++
				// Group sweep rule 1 (strong side-vertex member) or
				// rule 2 (group deposit reached k, Theorem 11).
				if cf.isSSV(x) || cf.gDeposit[gid] >= cf.k {
					cf.gProcessed[gid] = true
					for _, w := range cf.groups[gid] {
						if !cf.pru[w] {
							cf.mark(w, causeGS)
						}
					}
				}
			}
		}
	}
}

func (cf *cutFinder) mark(w int, cause uint8) {
	cf.pru[w] = true
	cf.cause[w] = cause
	cf.stack = append(cf.stack, w)
}
