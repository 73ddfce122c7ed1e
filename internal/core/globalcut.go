package core

import (
	"sort"

	"kvcc/graph"
	"kvcc/internal/flow"
	"kvcc/internal/sparse"
)

// findCut searches a connected component for a vertex cut with fewer than
// k vertices. It returns nil if the component is k-connected. VCCE keeps
// the paper's order: it builds the component's sparse certificate
// (Theorem 5) and runs every flow test on it. The sweep variants run
// GLOBAL-CUT*, which runs every flow test on the component itself and
// builds only the certificate's forests, and only if its first phase-1
// test passes (findCutOptimized).
func (e *enumerator) findCut(g *graph.Graph, stats *Stats, ws *workspace) []int {
	if e.opts.Algorithm == VCCE {
		return e.findCutBasic(g, sparse.ComputeScratch(g, e.k, &ws.sparse).SC, stats, ws)
	}
	return e.findCutOptimized(g, stats, ws)
}

// findCutBasic is GLOBAL-CUT (Algorithm 2) on component g with its flow
// tests run on sc: local connectivity tests from a minimum-degree source
// against every vertex (phase 1) and between every pair of the source's
// neighbors (phase 2, Lemma 4). It is the paper's baseline: GLOBAL-CUT*
// replaces its phase 2 with terminal elimination (eliminate), and this
// all-pairs loop stays as stated. VCCE passes g's sparse certificate as
// sc; the defensive fallback in step, which guards those flows on SC,
// passes g itself, so any cut it finds is a cut of the component by
// construction.
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
	g  *graph.Graph  // the component: sweeps, SSV tests and every flow
	nw *flow.Network // the flow network on g
	k  int
	t  []int // phase 2's terminals N_SC(u), ascending

	useNS, useGS bool

	ssvMemo []int8
	stats   *Stats

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
	excl   []int // phase 2: the removed set R_i
	need   []int // phase 2: a round's partners that need a flow

	// Neighborhood membership stamps for the SSV pairwise test. Stamps
	// only ever hold generations already issued (or 0), so growing the
	// buffer within capacity across components is safe: a strictly
	// increasing counter can never collide with a re-exposed stale stamp.
	nbStamp []int64
	nbGen   int64

	// Short-path stamps (shortPathsAtLeast), apart from nbStamp because
	// SSV tests run between the phase-1 tests of one source. For the
	// source a and set R of the last setSource, srcStamp[w] is srcGen when
	// w ∈ N(a) − R and srcGen+1 when w ∈ R; pathStamp[w] is pathGen once
	// the current query has put w on a path. The same stale-stamp argument
	// holds.
	srcStamp, pathStamp []int64
	srcGen, pathGen     int64
}

// growStamps reslices s to length n, reallocating (zeroed) only when the
// capacity is insufficient; see nbStamp for why stale stamps are safe.
func growStamps(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
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

// reset primes cf for a new component with the state that reads only g:
// the flow network on g (in fs), the SSV memo, the sweep marks and
// deposits, and the neighbourhood stamps. The certificate's state comes
// later, from setCertificate.
func (cf *cutFinder) reset(e *enumerator, g *graph.Graph, stats *Stats, fs *flow.Scratch) {
	n := g.NumVertices()
	cf.g = g
	cf.nw = flow.NewNetworkScratch(g, e.k, fs)
	cf.k = e.k
	cf.useNS = e.opts.Algorithm.neighborSweep()
	cf.useGS = e.opts.Algorithm.groupSweep()
	cf.stats = stats
	cf.ssvMemo = growClear(cf.ssvMemo, n)
	cf.pru = growClear(cf.pru, n)
	cf.cause = growClear(cf.cause, n)
	cf.deposit = growClear(cf.deposit, n)
	cf.nbStamp = growStamps(cf.nbStamp, n)
	cf.srcStamp = growStamps(cf.srcStamp, n)
	cf.pathStamp = growStamps(cf.pathStamp, n)
}

// setCertificate primes the state that needs g's certificate forests:
// phase 2's terminals T = N_SC(u), read from the forest edges at the
// source u, and, with the group sweep, the side groups.
func (cf *cutFinder) setCertificate(cert *sparse.Certificate, u int) {
	t := cf.t[:0]
	for _, e := range cert.Edges {
		switch u {
		case e[0]:
			t = append(t, e[1])
		case e[1]:
			t = append(t, e[0])
		}
	}
	sort.Ints(t)
	cf.t = t
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
// selected by the algorithm variant. Every flow runs on g, and the
// certificate's forests are built only when a cut has not turned up
// first: when no strong side-vertex is found as the source, the first
// phase-1 test runs before them (docs/DESIGN.md, "Every GLOBAL-CUT* flow
// runs on G").
func (e *enumerator) findCutOptimized(g *graph.Graph, stats *Stats, ws *workspace) []int {
	cf := &ws.cf
	cf.reset(e, g, stats, &ws.flow)
	defer func() { stats.FlowRuns += cf.nw.FlowRuns }()

	// Source selection (Algorithm 3, lines 4-7): prefer a strong
	// side-vertex, since the source then cannot belong to any qualified
	// cut and phase 2 can be skipped entirely. SSV statuses resolve
	// lazily, so the scan is bounded; if no SSV turns up quickly, fall
	// back to a minimum-degree vertex of g as in Algorithm 2.
	u := -1
	for v := range min(g.NumVertices(), ssvSourceScanLimit) {
		if cf.isSSV(v) {
			u = v
			break
		}
	}
	probe := u == -1
	if probe {
		u, _ = g.MinDegreeVertex()
	}

	// Phase 1 tests vertices in non-ascending distance from u (Algorithm
	// 3, line 11): remote vertices are the most likely to be separated
	// from the source.
	order := cf.orderByDistance(g.BFSDistancesScratch(u, &ws.graph), u)

	// The first test runs before the forests exist. An SSV source skips
	// this: its seed sweep may prune order[0] untested. Every test from u,
	// this one included, first counts short disjoint paths, and runs a
	// flow only if they fall short of k.
	cf.setSource(u, nil)
	probe = probe && !cf.adjacent(order[0])
	if probe {
		stats.LocCutTests++
		stats.TestedNonPrune++
		if !cf.shortPathsAtLeast(order[0], e.k) {
			if cut, _, atLeast := cf.nw.MinVertexCut(u, order[0]); !atLeast {
				return cut
			}
		}
	}
	cf.setCertificate(sparse.ForestsScratch(g, e.k, &ws.sparse), u)
	cf.sweep(u, causeSeed)
	if probe {
		cf.sweep(order[0], causeTested)
		order = order[1:]
	}
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
		// Lemma 5 and the short paths settle the test without a flow.
		if !cf.adjacent(v) && !cf.shortPathsAtLeast(v, cf.k) {
			if cut, _, atLeast := cf.nw.MinVertexCut(u, v); !atLeast {
				return cut
			}
		}
		cf.sweep(v, causeTested)
	}

	// Phase 2 (Algorithm 3, lines 16-21): only needed if the source could
	// itself belong to a cut.
	if !cf.isSSV(u) {
		return cf.eliminate(u)
	}
	return nil
}

// eliminate is phase 2 of GLOBAL-CUT* by terminal elimination
// (docs/DESIGN.md, "Phase 2 by terminal elimination"). Phase 1 has passed
// from u, so every cut of fewer than k vertices contains u, and each side
// of such a cut holds at least two vertices of T = N_SC(u). Round i tests
// T[i] against every later T[j] in g − R_i, R_i = {u, T[0..i−1]}, with
// flow limit k−1−i. A passing round puts T[i] into every cut, and after
// round min(|T|−4, k−2) no cut is left. A pair needs no flow when it is
// adjacent, lies in one side group (group sweep rule 3), or is joined by
// at least k−1−i internally disjoint paths of length 2 or 3 in g − R_i
// (shortPathsAtLeast); and the last pair of a round that still needs a
// flow is left untested, because a side without T[i] would hold two of
// the round's partners. Only passing pairs leave the need list, so its
// first failing partner is the same as with every pair in it. A failing
// pair returns its source-closest cut plus R_i, which is the cut the
// all-pairs loop of Algorithm 3 on SC returns for its first failing pair:
// below the limit, g − R_i and SC − R_i have the same minimum separators.
func (cf *cutFinder) eliminate(u int) []int {
	t := cf.t
	excl := append(cf.excl[:0], u)
	defer func() { cf.excl = excl }()
	for i := 0; i <= min(len(t)-4, cf.k-2); i++ {
		a, limit := t[i], cf.k-1-i
		cf.nw.Exclude(excl)
		cf.setSource(a, excl)
		need := cf.need[:0]
		for _, b := range t[i+1:] {
			if cf.useGS && cf.groupID[a] >= 0 && cf.groupID[a] == cf.groupID[b] {
				cf.stats.Phase2Skipped++ // group sweep rule 3
				continue
			}
			cf.stats.LocCutTests++
			cf.stats.Phase2Pairs++
			if !cf.adjacent(b) && !cf.shortPathsAtLeast(b, limit) {
				need = append(need, b)
			}
		}
		cf.need = need
		for _, b := range need[:max(len(need)-1, 0)] {
			if cut, _, atLeast := cf.nw.MinVertexCutLimit(a, b, limit); !atLeast {
				cut = append(cut, excl...)
				sort.Ints(cut)
				return cut
			}
		}
		excl = append(excl, a)
	}
	return nil
}

// setSource stamps N(a) − R and R for adjacent and shortPathsAtLeast,
// which then test pairs (a, b) in g − R.
func (cf *cutFinder) setSource(a int, r []int) {
	cf.srcGen += 2
	for _, w := range cf.g.Neighbors(a) {
		cf.srcStamp[w] = cf.srcGen
	}
	for _, w := range r {
		cf.srcStamp[w] = cf.srcGen + 1
	}
}

// adjacent reports whether b, outside R, is a neighbour of the source.
func (cf *cutFinder) adjacent(b int) bool { return cf.srcStamp[b] == cf.srcGen }

// shortPathsAtLeast reports whether g − R holds at least limit internally
// vertex-disjoint paths of length 2 or 3 between the source a and b, a
// vertex outside R and not adjacent to a (docs/DESIGN.md, "Short paths
// before a flow"). It counts every common neighbour w (the path a–w–b),
// then greedily matches each other neighbour y of b to a neighbour x of a
// not yet on a path (the path a–x–y–b). Such paths share no inner
// vertex, so by Menger's theorem κ(a, b) in g − R is at least their
// number: a "yes" settles a test the flow would pass, and a "no" proves
// nothing.
func (cf *cutFinder) shortPathsAtLeast(b, limit int) bool {
	nbr, inR := cf.srcGen, cf.srcGen+1
	cf.pathGen++
	used := cf.pathGen
	count, ends := 0, 0
	for _, w := range cf.g.Neighbors(b) {
		switch cf.srcStamp[w] {
		case nbr:
			if count++; count >= limit {
				return true
			}
			cf.pathStamp[w] = used
		case inR:
		default:
			ends++
		}
	}
	for _, y := range cf.g.Neighbors(b) {
		if count+ends < limit {
			return false
		}
		if s := cf.srcStamp[y]; s == nbr || s == inR {
			continue
		}
		ends--
		for _, x := range cf.g.Neighbors(y) {
			if cf.srcStamp[x] == nbr && cf.pathStamp[x] != used {
				cf.pathStamp[x] = used
				if count++; count >= limit {
					return true
				}
				break
			}
		}
	}
	return false
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
// neighbor-sweep and group-sweep rules iteratively (Algorithm 4). A swept
// vertex's strong side-vertex status is resolved only when a rule reads
// it: neighbor sweep rule 1 at the first neighbor not yet swept (with
// none, rule 1 has nothing to mark), and group sweep rule 1 only when the
// group deposit has not already fired rule 2.
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
			resolved, xIsSSV := false, false
			for _, w := range cf.g.Neighbors(x) {
				if cf.pru[w] {
					continue
				}
				if !resolved { // first unpruned neighbor: rule 1 reads it
					resolved, xIsSSV = true, cf.isSSV(x)
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
				// Group sweep rule 2 (group deposit reached k, Theorem
				// 11) or rule 1 (strong side-vertex member); the
				// deposit goes first so a firing rule 2 never resolves
				// x's status.
				if cf.gDeposit[gid] >= cf.k || cf.isSSV(x) {
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
