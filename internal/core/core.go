// Package core implements KVCC-ENUM, the paper's algorithm for enumerating
// all k-vertex connected components of a graph (Algorithms 1-4).
//
// The framework recursively partitions the graph: reduce to the k-core,
// split into connected components, and for each component search for a
// vertex cut with fewer than k vertices (GLOBAL-CUT). A component with no
// such cut is a k-VCC; otherwise the cut is duplicated into every side
// (overlapped partition) and the sides are processed recursively.
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
	// SSVDegreeCap skips the strong-side-vertex test for vertices whose
	// degree exceeds the cap (0 = no cap). Skipping is a sound
	// under-approximation: it can only reduce pruning, never correctness.
	SSVDegreeCap int
	// Parallelism is the number of workers processing independent
	// partitioned subgraphs. Values below 2 select the deterministic
	// serial loop.
	Parallelism int
}

// Stats reports the work performed by one Enumerate call. Counters follow
// the paper's measurements: sweep-rule attribution feeds Table 2, the
// partition and memory counters feed Figs. 11-12. The JSON tags define the
// wire form used by the kvccd server's enumerate responses.
type Stats struct {
	GlobalCutCalls int64 `json:"global_cut_calls"` // components examined for a cut
	Partitions     int64 `json:"partitions"`       // overlapped partitions performed
	KCorePeeled    int64 `json:"kcore_peeled"`     // vertices removed by k-core reduction
	FlowRuns       int64 `json:"flow_runs"`        // max-flow computations (non-shortcut LOC-CUT)
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

	SSVDetected  int64 `json:"ssv_detected"`  // strong side-vertices found by the pairwise test
	SSVInherited int64 `json:"ssv_inherited"` // SSVs carried across a partition (Lemmas 15-16)

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
		"global-cuts=%d partitions=%d peeled=%d loc-cut=%d flows=%d swept(ns1/ns2/gs)=%d/%d/%d tested=%d",
		s.GlobalCutCalls, s.Partitions, s.KCorePeeled, s.LocCutTests,
		s.FlowRuns, s.SweptNS1, s.SweptNS2, s.SweptGS, s.TestedNonPrune)
}

// Add accumulates s2 into s. Counters sum; PeakBytes takes the maximum,
// matching how independent subproblems contribute to a whole run.
func (s *Stats) Add(s2 *Stats) {
	s.GlobalCutCalls += s2.GlobalCutCalls
	s.Partitions += s2.Partitions
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
	s.SSVInherited += s2.SSVInherited
	s.CutFallbacks += s2.CutFallbacks
	s.ColdPages += s2.ColdPages
	s.ComponentsRecomputed += s2.ComponentsRecomputed
	s.ComponentsReused += s2.ComponentsReused
	if s2.PeakBytes > s.PeakBytes {
		s.PeakBytes = s2.PeakBytes
	}
}

// task is one unit of recursive work: a subgraph to decompose, plus the
// strong side-vertex hint inherited from its parent (Lemmas 15-16).
type task struct {
	g    *graph.Graph
	hint *ssvHint
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
// itself is general (it re-peels and re-splits defensively, so an
// arbitrary graph is also accepted; EnumerateContext is exactly this
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
	tasks := make([]task, 0, len(comps))
	for _, g := range comps {
		if g == nil {
			return nil, nil, errors.New("core: nil graph")
		}
		tasks = append(tasks, task{g: g})
	}
	if len(tasks) == 0 {
		// Nothing to do — and the parallel driver must not start: with an
		// empty seed the task queue would never close and the workers
		// would block in pop() forever.
		return nil, &Stats{}, ctx.Err()
	}
	e := &enumerator{k: k, opts: opts, ctx: ctx}
	var results []*graph.Graph
	stats := &Stats{}
	if opts.Parallelism >= 2 {
		results = e.runParallel(tasks, stats)
	} else {
		results = e.runSerial(tasks, stats)
	}
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
// serves a whole driver (or one worker of the parallel pool), so the
// steady-state recursion allocates only what it returns: result
// subgraphs, certificates, cuts, and hints.
type workspace struct {
	graph  graph.Scratch
	flow   flow.Scratch
	sparse sparse.Scratch
	cf     cutFinder
}

// runSerial is the deterministic single-threaded driver.
func (e *enumerator) runSerial(seed []task, stats *Stats) []*graph.Graph {
	var results []*graph.Graph
	var ws workspace
	// The queue pops LIFO, so load the seeds reversed: batch members are
	// then processed in their given (ascending component) order, which on
	// a mapped snapshot keeps the first pass over each component moving
	// forward through the edges array instead of starting from the back.
	queue := make([]task, len(seed))
	for i, t := range seed {
		queue[len(seed)-1-i] = t
	}
	var liveBytes, resultBytes int64
	for _, t := range seed {
		liveBytes += t.g.Bytes()
	}
	for len(queue) > 0 {
		if e.ctx.Err() != nil {
			return nil
		}
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		liveBytes -= t.g.Bytes()
		children, vccs := e.step(t, stats, &ws)
		for _, c := range children {
			liveBytes += c.g.Bytes()
		}
		for _, v := range vccs {
			resultBytes += v.Bytes()
		}
		if liveBytes+resultBytes > stats.PeakBytes {
			stats.PeakBytes = liveBytes + resultBytes
		}
		queue = append(queue, children...)
		results = append(results, vccs...)
	}
	return results
}

// runParallel processes independent subgraphs with a worker pool. The
// result set is identical to the serial driver; only discovery order
// differs (and is then canonicalized). Live/result byte tracking mirrors
// runSerial but uses atomics: each worker settles its task's byte delta
// and races the observed total against the shared peak, so parallel runs
// report a PeakBytes comparable to (not byte-equal with) the serial one.
func (e *enumerator) runParallel(seed []task, stats *Stats) []*graph.Graph {
	var (
		mu      sync.Mutex
		results []*graph.Graph

		liveBytes, resultBytes, peakBytes atomic.Int64
	)
	// Mirror runSerial: the input starts as live bytes, and the peak is
	// observed at task settlement points only, so a run that peels
	// everything in one step reports 0 in both drivers.
	var seedBytes int64
	for _, t := range seed {
		seedBytes += t.g.Bytes()
	}
	liveBytes.Store(seedBytes)
	q := newTaskQueue()
	for _, t := range seed {
		q.push(t)
	}
	var workers sync.WaitGroup
	for w := 0; w < e.opts.Parallelism; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			var ws workspace
			for {
				t, ok := q.pop()
				if !ok {
					return
				}
				if e.ctx.Err() != nil {
					q.finish() // drain without processing
					continue
				}
				local := &Stats{}
				children, vccs := e.step(t, local, &ws)
				delta := -t.g.Bytes()
				for _, c := range children {
					delta += c.g.Bytes()
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
// reduction, component split, cut search, and overlapped partition. It
// returns the child tasks and any k-VCCs found. The workspace is reused
// for every subgraph extraction, certificate, and flow network in this
// step (and across the caller's steps), which keeps the hot recursion at
// a constant number of allocations per extracted subgraph.
func (e *enumerator) step(t task, stats *Stats, ws *workspace) (children []task, vccs []*graph.Graph) {
	scratch := &ws.graph
	cored, peeled := kcore.ReduceScratch(t.g, e.k, scratch)
	stats.KCorePeeled += int64(peeled)
	if cored.NumVertices() == 0 {
		return nil, nil
	}
	comps := cored.ConnectedComponents()
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
		cut, childHint := e.findCut(sub, t.hint, stats, ws)
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
		for _, p := range parts {
			children = append(children, task{g: p, hint: childHint})
		}
	}
	return children, vccs
}

// overlapPartition implements OVERLAP-PARTITION (Algorithm 1, lines 13-18):
// remove the cut, and return for every remaining connected component the
// subgraph induced by the component plus the whole cut.
func overlapPartition(g *graph.Graph, cut []int, scratch *graph.Scratch) []*graph.Graph {
	inCut := make([]bool, g.NumVertices())
	for _, v := range cut {
		inCut[v] = true
	}
	n := g.NumVertices()
	seen := make([]bool, n)
	var parts []*graph.Graph
	stack := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if seen[s] || inCut[s] {
			continue
		}
		seen[s] = true
		stack = append(stack[:0], s)
		comp := []int{s}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(v) {
				if !seen[w] && !inCut[w] {
					seen[w] = true
					comp = append(comp, w)
					stack = append(stack, w)
				}
			}
		}
		comp = append(comp, cut...)
		// Ascending vertex lists hit InducedSubgraphScratch's monotone
		// fast path: the renumbering preserves run order, so no adjacency
		// run is ever re-sorted. One small sort here replaces one sort
		// per vertex there.
		sort.Ints(comp)
		parts = append(parts, g.InducedSubgraphScratch(comp, scratch))
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
