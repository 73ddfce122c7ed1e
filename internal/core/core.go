// Package core implements KVCC-ENUM, the paper's algorithm for enumerating
// all k-vertex connected components of a graph (Algorithms 1-4).
//
// The framework recursively partitions the graph: reduce to the k-core,
// split into connected components, and for each component search for a
// vertex cut with fewer than k vertices (GLOBAL-CUT). A component with no
// such cut is a k-VCC; otherwise the cut is duplicated into every side
// (overlapped partition) and the sides are processed recursively. For
// k >= 2 the component split also splits at cut vertices, so a component
// with a one-vertex cut is cut into its biconnected blocks without a cut
// search; this departs from Algorithm 1, which finds each such cut with
// GLOBAL-CUT, and leaves the k-VCCs unchanged.
//
// GLOBAL-CUT* settles a local connectivity test without a max flow when
// the pair is adjacent (Lemma 5) or when it counts enough internally
// disjoint paths of length 2 or 3 between the pair (common neighbours
// plus a greedy matching of the remaining neighbours), which proves the
// flow would pass. Only flow runs change; every cut, sweep and test count
// is the one the flows alone would give. VCCE keeps the paper's GLOBAL-CUT.
//
// Four algorithm variants are provided, matching the paper's evaluation:
//
//	VCCE      - basic GLOBAL-CUT (Algorithm 2)
//	VCCE-N    - basic + neighbor sweep (Section 5.1)
//	VCCE-G    - basic + group sweep (Section 5.2)
//	VCCE-Star - both sweep strategies (GLOBAL-CUT*, Algorithm 3)
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"kvcc/graph"
	"kvcc/internal/flow"
	"kvcc/internal/kcore"
	"kvcc/internal/sparse"
)

// Algorithm selects the GLOBAL-CUT variant used by Enumerate.
type Algorithm int

const (
	// VCCE is the basic algorithm without sweep optimizations.
	VCCE Algorithm = iota
	// VCCEN adds the neighbor-sweep pruning rules (strong side-vertices
	// and vertex deposits).
	VCCEN
	// VCCEG adds the group-sweep pruning rules (side-groups and group
	// deposits).
	VCCEG
	// VCCEStar enables both sweep strategies; this is GLOBAL-CUT*.
	VCCEStar
)

// String returns the paper's name for the variant.
func (a Algorithm) String() string {
	switch a {
	case VCCE:
		return "VCCE"
	case VCCEN:
		return "VCCE-N"
	case VCCEG:
		return "VCCE-G"
	case VCCEStar:
		return "VCCE*"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

func (a Algorithm) neighborSweep() bool { return a == VCCEN || a == VCCEStar }
func (a Algorithm) groupSweep() bool    { return a == VCCEG || a == VCCEStar }

// Options configures Enumerate.
type Options struct {
	// Algorithm selects the GLOBAL-CUT variant. The zero value is VCCE;
	// kvcc.Enumerate defaults to VCCEStar.
	Algorithm Algorithm
	// Parallelism is the number of workers processing independent
	// partitioned subgraphs. Values below 1 mean one worker, which
	// processes them in a fixed order, so its Stats are deterministic.
	Parallelism int
}

// Stats reports the work performed by one Enumerate call. Counters follow
// the paper's measurements: sweep-rule attribution feeds Table 2, the
// partition and memory counters feed Figs. 11-12. The JSON tags define the
// wire form used by the kvccd server's enumerate responses.
type Stats struct {
	GlobalCutCalls int64 `json:"global_cut_calls"` // components examined for a cut
	Partitions     int64 `json:"partitions"`       // overlapped partitions performed
	BlockSplits    int64 `json:"block_splits"`     // components split at their cut vertices (k >= 2)
	KCorePeeled    int64 `json:"kcore_peeled"`     // vertices removed by k-core reduction
	FlowRuns       int64 `json:"flow_runs"`        // max flows run: LOC-CUT tests not settled by adjacency or, in GLOBAL-CUT*, by short disjoint paths
	LocCutTests    int64 `json:"loc_cut_tests"`    // LOC-CUT invocations (phase 1 + phase 2)

	// Phase-1 vertex attribution (Table 2). For every vertex visited in
	// the phase-1 loop of GLOBAL-CUT*: either it was already swept by one
	// of the rules, or its local connectivity was tested.
	SweptNS1       int64 `json:"swept_ns1"` // neighbor sweep rule 1 (strong side-vertex)
	SweptNS2       int64 `json:"swept_ns2"` // neighbor sweep rule 2 (vertex deposit)
	SweptGS        int64 `json:"swept_gs"`  // group sweep (side-group rules)
	TestedNonPrune int64 `json:"tested"`    // vertices actually tested

	Phase2Pairs   int64 `json:"phase2_pairs"`   // neighbor pairs tested in phase 2
	Phase2Skipped int64 `json:"phase2_skipped"` // pairs skipped by group sweep rule 3

	SSVDetected int64 `json:"ssv_detected"` // strong side-vertices found by the pairwise test

	CutFallbacks int64 `json:"cut_fallbacks"` // defensive re-computations of an invalid cut (expect 0)
	PeakBytes    int64 `json:"peak_bytes"`    // peak structural bytes held by queued subgraphs + results

	// Always 0 (Dinic is the only flow engine); kept because kvccbench/layers.go reads it.
	LocalCutAttempts int64 `json:"local_cut_attempts,omitempty"`
	// Always 0 (Dinic is the only flow engine); kept because kvccbench/layers.go reads it.
	LocalCutFallbacks int64 `json:"local_cut_fallbacks,omitempty"`

	// ColdPages counts major page faults taken while this enumeration
	// ran — pages that had to come from disk, i.e. the beyond-RAM cost
	// of the query. The serving layer measures it as a process-wide
	// fault delta around the computation, so attribution is approximate
	// under concurrency; 0 on platforms without fault counters.
	ColdPages int64 `json:"cold_pages,omitempty"`

	// Per-component accounting for the incremental maintenance path
	// (internal/incr): of the k-core connected components of the input,
	// how many were recomputed versus served verbatim from a previous
	// result. A from-scratch run recomputes every component; a single-edge
	// update typically recomputes one.
	ComponentsRecomputed int64 `json:"components_recomputed,omitempty"`
	ComponentsReused     int64 `json:"components_reused,omitempty"`
}

// String summarizes the statistics in one line.
func (s *Stats) String() string {
	return fmt.Sprintf(
		"global-cuts=%d partitions=%d block-splits=%d peeled=%d loc-cut=%d flows=%d swept(ns1/ns2/gs)=%d/%d/%d tested=%d",
		s.GlobalCutCalls, s.Partitions, s.BlockSplits, s.KCorePeeled, s.LocCutTests,
		s.FlowRuns, s.SweptNS1, s.SweptNS2, s.SweptGS, s.TestedNonPrune)
}

// Add accumulates s2 into s. Counters sum; PeakBytes takes the maximum,
// matching how independent subproblems contribute to a whole run.
func (s *Stats) Add(s2 *Stats) {
	s.GlobalCutCalls += s2.GlobalCutCalls
	s.Partitions += s2.Partitions
	s.BlockSplits += s2.BlockSplits
	s.KCorePeeled += s2.KCorePeeled
	s.FlowRuns += s2.FlowRuns
	s.LocCutTests += s2.LocCutTests
	s.SweptNS1 += s2.SweptNS1
	s.SweptNS2 += s2.SweptNS2
	s.SweptGS += s2.SweptGS
	s.TestedNonPrune += s2.TestedNonPrune
	s.Phase2Pairs += s2.Phase2Pairs
	s.Phase2Skipped += s2.Phase2Skipped
	s.SSVDetected += s2.SSVDetected
	s.CutFallbacks += s2.CutFallbacks
	s.ColdPages += s2.ColdPages
	s.ComponentsRecomputed += s2.ComponentsRecomputed
	s.ComponentsReused += s2.ComponentsReused
	if s2.PeakBytes > s.PeakBytes {
		s.PeakBytes = s2.PeakBytes
	}
}

// Enumerate computes all k-VCCs of g. The result graphs preserve the
// vertex labels of g; overlapping components share labels. Components are
// returned in a canonical order (largest first, ties by labels).
func Enumerate(g *graph.Graph, k int, opts Options) ([]*graph.Graph, *Stats, error) {
	return EnumerateContext(context.Background(), g, k, opts)
}

// EnumerateContext is Enumerate with cancellation: the recursion checks
// the context between partition steps and returns ctx.Err() once it is
// done, discarding partial results.
func EnumerateContext(ctx context.Context, g *graph.Graph, k int, opts Options) ([]*graph.Graph, *Stats, error) {
	return EnumerateComponentContext(ctx, g, k, opts)
}

// EnumerateComponentContext is the component-scoped entry point of the
// enumeration engine: it decomposes one subgraph — typically a single
// connected component of the k-core, as produced by internal/incr's
// partition step — and returns its k-VCCs in canonical order. The engine
// itself is general (its first step re-peels the subgraph and splits it
// into connected components, and for k >= 2 into biconnected blocks, so
// an arbitrary graph is also accepted; EnumerateContext is exactly this
// function on the whole graph), but the contract matters for incremental
// maintenance: the k-VCCs of a graph are the disjoint union of the k-VCCs
// of its k-core connected components, so callers may enumerate components
// independently, cache per-component results, and merge.
func EnumerateComponentContext(ctx context.Context, g *graph.Graph, k int, opts Options) ([]*graph.Graph, *Stats, error) {
	if g == nil {
		return nil, nil, errors.New("core: nil graph")
	}
	return EnumerateComponentsContext(ctx, []*graph.Graph{g}, k, opts)
}

// EnumerateComponentsContext decomposes a batch of vertex-disjoint
// subgraphs — typically the k-core connected components an incremental
// update needs to recompute — through one shared driver: every batch
// member seeds the same task queue, so WithParallelism workers balance
// across all components exactly as a whole-graph run would, instead of
// draining one component at a time. The returned k-VCCs cover the whole
// batch in canonical order (components are label-disjoint, so callers
// can attribute each k-VCC to its batch member by any one label).
func EnumerateComponentsContext(ctx context.Context, comps []*graph.Graph, k int, opts Options) ([]*graph.Graph, *Stats, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	for _, g := range comps {
		if g == nil {
			return nil, nil, errors.New("core: nil graph")
		}
	}
	if len(comps) == 0 {
		// Nothing to do — and the worker pool must not start: with an
		// empty seed the task queue would never close and the workers
		// would block in pop() forever.
		return nil, &Stats{}, ctx.Err()
	}
	e := &enumerator{k: k, opts: opts, ctx: ctx}
	stats := &Stats{}
	results := e.run(comps, stats)
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	SortComponents(results)
	return results, stats, nil
}

type enumerator struct {
	k    int
	opts Options
	ctx  context.Context
}

// workspace bundles the per-worker scratch arenas threaded through the
// recursion: the graph renumbering scratch (subgraph extraction, k-core
// peeling, BFS ordering), the pooled flow network, the sparse-certificate
// buffers, and the reusable per-component cut-finder state. One workspace
// serves one worker of the enumeration pool, so the steady-state recursion
// allocates only what it returns: result subgraphs, certificates and cuts.
type workspace struct {
	graph  graph.Scratch
	flow   flow.Scratch
	sparse sparse.Scratch
	cf     cutFinder
}

// run processes the queued subgraphs with max(1, Parallelism) workers
// sharing one LIFO task queue. The result set does not depend on the
// worker count; only discovery order differs (and is then canonicalized).
// With one worker the order is fixed, so every Stats field, PeakBytes
// included, is deterministic. Each worker settles its task's live/result
// byte delta and races the observed total against the shared peak, so
// several workers report a PeakBytes comparable to (not byte-equal with)
// one worker's.
func (e *enumerator) run(seed []*graph.Graph, stats *Stats) []*graph.Graph {
	var (
		mu      sync.Mutex
		results []*graph.Graph

		liveBytes, resultBytes, peakBytes atomic.Int64
	)
	// The input starts as live bytes, and the peak is observed at task
	// settlement points only, so a run that peels everything in one step
	// reports 0.
	var seedBytes int64
	for _, g := range seed {
		seedBytes += g.Bytes()
	}
	liveBytes.Store(seedBytes)
	// The queue pops LIFO, so push the seeds reversed: batch members are
	// then started in their given (ascending component) order, which on a
	// mapped snapshot keeps the first pass over each component moving
	// forward through the edges array instead of starting from the back.
	q := newTaskQueue()
	for i := len(seed) - 1; i >= 0; i-- {
		q.push(seed[i])
	}
	var workers sync.WaitGroup
	for w := 0; w < max(1, e.opts.Parallelism); w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			var ws workspace
			for {
				g, ok := q.pop()
				if !ok {
					return
				}
				if e.ctx.Err() != nil {
					q.finish() // drain without processing
					continue
				}
				local := &Stats{}
				children, vccs := e.step(g, local, &ws)
				delta := -g.Bytes()
				for _, c := range children {
					delta += c.Bytes()
				}
				var resDelta int64
				for _, v := range vccs {
					resDelta += v.Bytes()
				}
				total := liveBytes.Add(delta) + resultBytes.Add(resDelta)
				for {
					peak := peakBytes.Load()
					if total <= peak || peakBytes.CompareAndSwap(peak, total) {
						break
					}
				}
				mu.Lock()
				stats.Add(local)
				results = append(results, vccs...)
				mu.Unlock()
				// Children go in before finish so the queue cannot observe
				// a zero in-flight count while work remains.
				for _, c := range children {
					q.push(c)
				}
				q.finish()
			}
		}()
	}
	workers.Wait()
	if peak := peakBytes.Load(); peak > stats.PeakBytes {
		stats.PeakBytes = peak
	}
	return results
}

// step performs one level of Algorithm 1 on a queued subgraph: k-core
// reduction, component split, cut search, and overlapped partition. For
// k >= 2 the component split is one biconnected-block pass: a component
// without a cut vertex goes to the cut search, and one with a cut vertex
// is replaced by its blocks of more than k vertices, queued as children
// with no cut search. It returns the child subgraphs and any k-VCCs found. The workspace is reused
// for every subgraph extraction, certificate, and flow network in this
// step (and across the caller's steps), which keeps the hot recursion at
// a constant number of allocations per extracted subgraph.
func (e *enumerator) step(g *graph.Graph, stats *Stats, ws *workspace) (children, vccs []*graph.Graph) {
	scratch := &ws.graph
	cored, peeled := kcore.ReduceScratch(g, e.k, scratch)
	stats.KCorePeeled += int64(peeled)
	if cored.NumVertices() == 0 {
		return nil, nil
	}
	var comps [][]int
	if e.k == 1 {
		// A 1-VCC is a whole connected component, cut vertices included.
		comps = cored.ConnectedComponents()
	} else {
		// For k >= 2 every k-VCC is 2-connected and lies inside one
		// biconnected block, so a component with a cut vertex is split
		// into its blocks with no cut search. Blocks of at most k
		// vertices, bridges included, hold no k-VCC and are dropped; the
		// others are queued, and their own step re-peels and re-splits
		// them. The blocks stay valid below: no other block pass runs
		// on this scratch within the step.
		blocks, starts := cored.BiconnectedBlocks(scratch)
		for c := 0; c+1 < len(starts); c++ {
			own := blocks[starts[c]:starts[c+1]]
			if len(own) == 1 {
				comps = append(comps, own[0])
				continue
			}
			stats.BlockSplits++
			for _, b := range own {
				if len(b) > e.k {
					children = append(children, cored.InducedSubgraphScratch(b, scratch))
				}
			}
		}
	}
	for _, comp := range comps {
		var sub *graph.Graph
		if len(comps) == 1 && cored.NumVertices() == len(comp) {
			// Whole graph survived reduction in one piece. Materialize
			// copies it off a mapped snapshot before the cut search's
			// random-access flow probes; for heap graphs it is the
			// identity, preserving the zero-copy fast path.
			sub = cored.Materialize()
		} else {
			sub = cored.InducedSubgraphScratch(comp, scratch)
		}
		if sub.NumVertices() <= e.k {
			// Cannot satisfy Definition 2; unreachable after k-core
			// reduction (min degree >= k implies n >= k+1) but kept as a
			// guard.
			continue
		}
		stats.GlobalCutCalls++
		cut := e.findCut(sub, stats, ws)
		if cut == nil {
			vccs = append(vccs, sub)
			continue
		}
		parts := overlapPartition(sub, cut, scratch)
		if len(parts) < 2 {
			// The cut failed to disconnect the component. With a correct
			// sparse certificate this cannot happen; recompute the cut on
			// the raw graph as a defensive fallback.
			stats.CutFallbacks++
			cut = e.findCutBasic(sub, sub, stats, ws)
			if cut == nil {
				vccs = append(vccs, sub)
				continue
			}
			parts = overlapPartition(sub, cut, scratch)
			if len(parts) < 2 {
				panic("core: vertex cut does not disconnect component")
			}
		}
		stats.Partitions++
		children = append(children, parts...)
	}
	return children, vccs
}

// overlapPartition implements OVERLAP-PARTITION (Algorithm 1, lines 13-18):
// remove the cut, and return for every remaining connected component the
// subgraph induced by the component plus the whole cut. The sides come
// from scratch, ascending, so each extraction takes
// InducedSubgraphScratch's monotone fast path and re-sorts no run.
func overlapPartition(g *graph.Graph, cut []int, scratch *graph.Scratch) []*graph.Graph {
	sides := g.CutSidesScratch(cut, scratch)
	parts := make([]*graph.Graph, len(sides))
	for i, side := range sides {
		parts[i] = g.InducedSubgraphScratch(side, scratch)
	}
	return parts
}

// SortComponents puts components in a canonical order: by descending
// vertex count, then lexicographically by sorted label sequence. Every
// Enumerate result is in this order; the hierarchy package applies the
// same ordering to its levels so that an index-served level is
// indistinguishable from a direct enumeration.
func SortComponents(comps []*graph.Graph) {
	keys := make(map[*graph.Graph][]int64, len(comps))
	for _, c := range comps {
		keys[c] = SortedLabels(c)
	}
	sort.Slice(comps, func(i, j int) bool {
		return LabelsLess(keys[comps[i]], keys[comps[j]])
	})
}

// SortedLabels returns the component's vertex labels in ascending order.
func SortedLabels(c *graph.Graph) []int64 {
	labels := append([]int64(nil), c.Labels()...)
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	return labels
}

// LabelsLess is the canonical component order on sorted label slices:
// larger components first, ties broken lexicographically.
func LabelsLess(a, b []int64) bool {
	if len(a) != len(b) {
		return len(a) > len(b)
	}
	for x := range a {
		if a[x] != b[x] {
			return a[x] < b[x]
		}
	}
	return false
}
