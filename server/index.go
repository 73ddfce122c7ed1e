package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"kvcc"
	"kvcc/cohesion"
	"kvcc/hierarchy"
)

// indexKey addresses one hierarchy index: every registered graph can hold
// one tree per cohesion measure, built independently. The zero measure is
// kvcc, so single-measure deployments key exactly as they always did.
type indexKey struct {
	graph   string
	measure cohesion.Measure
}

// graphIndex is one hierarchy-index build for one (graph, measure,
// generation) triple. The build runs in a background goroutine; ready is
// closed when it finishes, after which tree/err/buildMS are immutable. A
// replaced graph cancels its index builds via cancel, so a stale build
// can never serve queries: lookups always match the generation first.
type graphIndex struct {
	graph   string
	measure cohesion.Measure
	gen     uint64
	maxK    int // Options.MaxK the build uses (0 = full depth)
	ready   chan struct{}
	cancel  context.CancelFunc

	// Written once before ready is closed.
	tree    *hierarchy.Tree
	err     error
	buildMS float64

	// levelRes memoizes the kvcc.Result materialized for each served
	// level, so per-Result lazy state (the label→components inverted
	// index behind ComponentsContaining/OverlapMatrix) amortizes across
	// requests instead of being rebuilt per call. Only touched after
	// ready closes with err == nil; the tree is immutable by then.
	resMu    sync.Mutex
	levelRes map[int]*kvcc.Result
}

// levelResult returns the (memoized) Result for level k of a finished
// build. Callers must have checked done(), err == nil and tree.Covers(k).
func (ix *graphIndex) levelResult(k int) *kvcc.Result {
	ix.resMu.Lock()
	defer ix.resMu.Unlock()
	if r, ok := ix.levelRes[k]; ok {
		return r
	}
	if ix.levelRes == nil {
		ix.levelRes = make(map[int]*kvcc.Result)
	}
	r := resultFromIndex(ix.tree, k)
	ix.levelRes[k] = r
	return r
}

// done reports whether the build has finished, without blocking.
func (ix *graphIndex) done() bool {
	select {
	case <-ix.ready:
		return true
	default:
		return false
	}
}

// invalidateIndex unconditionally cancels and drops every measure's index
// for name.
func (s *Server) invalidateIndex(name string) {
	s.indexMu.Lock()
	var ixs []*graphIndex
	for key, ix := range s.indexes {
		if key.graph == name {
			ixs = append(ixs, ix)
			delete(s.indexes, key)
		}
	}
	s.indexMu.Unlock()
	for _, ix := range ixs {
		ix.cancel()
	}
}

// retireIndex drops the indexes for name (all measures) that belong to a
// generation older than gen. The generation guard makes concurrent
// AddGraph calls commute: the call that lost the registry race (its
// generation is older) can neither cancel the winner's builds nor
// install its own over them (see resetIndex).
func (s *Server) retireIndex(name string, gen uint64) {
	s.indexMu.Lock()
	var ixs []*graphIndex
	for key, ix := range s.indexes {
		if key.graph == name && ix.gen < gen {
			ixs = append(ixs, ix)
			delete(s.indexes, key)
		}
	}
	s.indexMu.Unlock()
	for _, ix := range ixs {
		ix.cancel()
	}
}

// resetIndex retires any older-generation builds and starts one per
// configured index measure for e, unless a build of e's generation or
// newer is already installed for that measure.
func (s *Server) resetIndex(name string, e graphEntry) {
	s.retireIndex(name, e.gen)
	s.indexMu.Lock()
	for _, m := range s.indexMeasures {
		if cur := s.indexes[indexKey{graph: name, measure: m}]; cur == nil || cur.gen < e.gen {
			s.startIndexBuildLocked(name, e, m)
		}
	}
	s.indexMu.Unlock()
}

// startIndexBuildLocked launches the background hierarchy build of one
// measure for one graph entry and installs it in the index table,
// cancelling any build it displaces (once evicted from the table a build
// is unreachable by retireIndex, so this is its only cancellation point).
// Callers hold indexMu.
func (s *Server) startIndexBuildLocked(name string, e graphEntry, m cohesion.Measure) *graphIndex {
	key := indexKey{graph: name, measure: m}
	if old := s.indexes[key]; old != nil {
		old.cancel()
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.IndexBuildTimeout)
	ix := &graphIndex{
		graph:   name,
		measure: m,
		gen:     e.gen,
		maxK:    s.cfg.IndexMaxK,
		ready:   make(chan struct{}),
		cancel:  cancel,
	}
	s.indexes[key] = ix
	s.indexWG.Add(1)
	go func() {
		defer s.indexWG.Done()
		defer cancel()
		begin := time.Now()
		tree, err := hierarchy.BuildContext(ctx, e.g, hierarchy.Options{
			MaxK:        ix.maxK,
			Measure:     m,
			Algorithm:   kvcc.VCCEStar,
			Parallelism: s.cfg.Parallelism,
		})
		ix.buildMS = float64(time.Since(begin)) / float64(time.Millisecond)
		ix.tree, ix.err = tree, err
		close(ix.ready)
		// Persist after ready closes so queries start using the index
		// immediately; the save is advisory (it only speeds up the next
		// restart) and checks the generation itself.
		s.persistIndex(ix)
	}()
	return ix
}

// installReadyIndex registers an already-finished tree (loaded from a
// graph's durable store at recovery) as the graph's index for the tree's
// measure: a graphIndex born ready, with nothing to cancel. The usual
// generation guard applies, so a racing build for a newer generation is
// never displaced.
func (s *Server) installReadyIndex(name string, e graphEntry, tree *hierarchy.Tree, buildMS float64) {
	ix := &graphIndex{
		graph:   name,
		measure: tree.Measure,
		gen:     e.gen,
		maxK:    s.cfg.IndexMaxK,
		ready:   make(chan struct{}),
		cancel:  func() {},
		tree:    tree,
		buildMS: buildMS,
	}
	close(ix.ready)
	key := indexKey{graph: name, measure: tree.Measure}
	s.indexMu.Lock()
	if cur := s.indexes[key]; cur == nil || cur.gen < e.gen {
		if cur != nil {
			cur.cancel()
		}
		s.indexes[key] = ix
	}
	s.indexMu.Unlock()
}

// readyIndex returns the finished index build for (name, gen, measure),
// or nil when no matching build has completed successfully. Non-blocking:
// the enumerate fast path uses it to opportunistically serve from the
// index while a build in progress falls back to the cache/singleflight
// path.
func (s *Server) readyIndex(name string, gen uint64, m cohesion.Measure) *graphIndex {
	s.indexMu.Lock()
	ix := s.indexes[indexKey{graph: name, measure: m}]
	s.indexMu.Unlock()
	if ix == nil || ix.gen != gen || !ix.done() || ix.err != nil {
		return nil
	}
	return ix
}

// indexFor returns the finished index for the named graph, starting a
// build on demand if none matches the current generation, and waiting for
// completion within ctx. This is the blocking path behind the hierarchy
// and cohesion endpoints, which exist only in terms of the index. A build
// that completed with an error (e.g. it hit IndexBuildTimeout) is not
// cached: the next request starts a fresh build rather than replaying the
// stale failure forever. An index of a newer generation than this
// caller's lookup is used as-is — newer is the current graph.
func (s *Server) indexFor(ctx context.Context, name string, m cohesion.Measure) (*graphIndex, error) {
	entry, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	s.indexMu.Lock()
	ix := s.indexes[indexKey{graph: name, measure: m}]
	if ix == nil || ix.gen < entry.gen || (ix.gen == entry.gen && ix.done() && ix.err != nil) {
		ix = s.startIndexBuildLocked(name, entry, m)
	}
	s.indexMu.Unlock()
	select {
	case <-ix.ready:
		if ix.err != nil {
			return nil, fmt.Errorf("server: index build for %q: %w", name, ix.err)
		}
		return ix, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// resultFromIndex materializes a kvcc.Result for level k of a finished
// hierarchy. Components come out in the exact canonical order (and with
// the exact vertex sets) a direct enumeration would produce; Stats reports
// the work the index build spent producing that level, which is the only
// honest attribution for a query that ran no enumeration at all.
func resultFromIndex(tree *hierarchy.Tree, k int) *kvcc.Result {
	res := &kvcc.Result{K: k, Components: tree.LevelComponents(k)}
	for _, lvl := range tree.Stats.PerLevel {
		if lvl.K == k {
			res.Stats = lvl.Core
			break
		}
	}
	return res
}

// Hierarchy serves one hierarchy request: a per-level summary of the
// graph's full cohesion tree, building the index on demand when it is not
// already (being) built.
func (s *Server) Hierarchy(ctx context.Context, req HierarchyRequest) (*HierarchyResponse, error) {
	m, err := parseMeasure(req.Measure, "")
	if err != nil {
		return nil, err
	}
	ctx, cancel, err := s.requestContext(ctx, req.TimeoutMillis)
	if err != nil {
		return nil, err
	}
	defer cancel()
	release, err := s.admit(ctx, classCheap, req.Graph)
	if err != nil {
		return nil, err
	}
	defer release()
	ix, err := s.indexFor(ctx, req.Graph, m)
	if err != nil {
		return nil, err
	}
	tree := ix.tree
	resp := &HierarchyResponse{
		Graph:    req.Graph,
		Measure:  wireMeasure(m),
		MaxK:     tree.MaxK,
		Size:     tree.Size(),
		Complete: tree.Covers(tree.MaxK + 1),
		BuildMS:  ix.buildMS,
		Stats:    tree.Stats,
	}
	for k := 1; k <= tree.MaxK; k++ {
		level := tree.LevelComponents(k)
		vertices := 0
		for _, c := range level {
			vertices += c.NumVertices()
		}
		lvl := HierarchyLevel{K: k, Components: len(level), Vertices: vertices}
		if req.IncludeComponents {
			lvl.ComponentSets = wireComponents(level, false)
		}
		resp.Levels = append(resp.Levels, lvl)
	}
	return resp, nil
}

// Cohesion serves one cohesion request: for each queried vertex label, the
// deepest k at which a k-VCC contains it, plus the nesting chain of
// components down to that level.
func (s *Server) Cohesion(ctx context.Context, req CohesionRequest) (*CohesionResponse, error) {
	if len(req.Vertices) == 0 {
		return nil, fmt.Errorf("%w: cohesion request needs at least one vertex", ErrBadRequest)
	}
	if len(req.Vertices) > maxCohesionVertices {
		return nil, fmt.Errorf("%w: at most %d vertices per cohesion request, got %d",
			ErrBadRequest, maxCohesionVertices, len(req.Vertices))
	}
	m, err := parseMeasure(req.Measure, "")
	if err != nil {
		return nil, err
	}
	ctx, cancel, err := s.requestContext(ctx, req.TimeoutMillis)
	if err != nil {
		return nil, err
	}
	defer cancel()
	release, err := s.admit(ctx, classCheap, req.Graph)
	if err != nil {
		return nil, err
	}
	defer release()
	ix, err := s.indexFor(ctx, req.Graph, m)
	if err != nil {
		return nil, err
	}
	resp := &CohesionResponse{Graph: req.Graph, Measure: wireMeasure(m)}
	for _, v := range req.Vertices {
		vc := VertexCohesion{Vertex: v, Cohesion: ix.tree.Cohesion(v)}
		for _, n := range ix.tree.Path(v) {
			vc.Path = append(vc.Path, PathStep{
				K:           n.K,
				NumVertices: n.Component.NumVertices(),
				NumEdges:    n.Component.NumEdges(),
			})
		}
		resp.Results = append(resp.Results, vc)
	}
	return resp, nil
}

// EnumerateBatch serves one multi-k enumerate request under a single
// deadline. Each k goes through the same serving ladder as a standalone
// enumerate (index, then cache, then singleflight enumeration), so a batch
// against an indexed graph is answered entirely from the tree.
func (s *Server) EnumerateBatch(ctx context.Context, req BatchEnumerateRequest) (*BatchEnumerateResponse, error) {
	algo, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	m, err := parseMeasure(req.Measure, req.Algorithm)
	if err != nil {
		return nil, err
	}
	if len(req.Ks) == 0 {
		return nil, fmt.Errorf("%w: batch request needs at least one k", ErrBadRequest)
	}
	if len(req.Ks) > maxBatchKs {
		return nil, fmt.Errorf("%w: at most %d values of k per batch, got %d",
			ErrBadRequest, maxBatchKs, len(req.Ks))
	}
	ctx, cancel, err := s.requestContext(ctx, req.TimeoutMillis)
	if err != nil {
		return nil, err
	}
	defer cancel()
	release, err := s.admit(ctx, classCheap, req.Graph)
	if err != nil {
		return nil, err
	}
	defer release()

	resp := &BatchEnumerateResponse{
		Graph:     req.Graph,
		Measure:   wireMeasure(m),
		Algorithm: wireAlgorithm(m, algo),
	}
	for _, k := range req.Ks {
		begin := time.Now()
		res, src, err := s.result(ctx, req.Graph, k, m, algo)
		if err != nil {
			return nil, fmt.Errorf("k=%d: %w", k, err)
		}
		resp.Results = append(resp.Results,
			buildEnumerateResponse(req.Graph, k, m, algo, res, src, begin, req.IncludeMetrics))
	}
	return resp, nil
}

// Request-size guardrails for the index endpoints.
const (
	maxCohesionVertices = 1024
	maxBatchKs          = 64
)

// indexInfos snapshots the state of every index build for Stats.
func (s *Server) indexInfos() []IndexInfo {
	s.indexMu.Lock()
	defer s.indexMu.Unlock()
	out := make([]IndexInfo, 0, len(s.indexes))
	for key, ix := range s.indexes {
		info := IndexInfo{Graph: key.graph, Measure: wireMeasure(key.measure), MaxK: ix.maxK}
		switch {
		case !ix.done():
			info.State = "building"
		case ix.err != nil:
			info.State = "failed"
		default:
			info.State = "ready"
			info.Size = ix.tree.Size()
			info.TreeMaxK = ix.tree.MaxK
			info.Complete = ix.tree.Covers(ix.tree.MaxK + 1)
			info.BuildMS = ix.buildMS
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Graph != out[j].Graph {
			return out[i].Graph < out[j].Graph
		}
		return out[i].Measure < out[j].Measure
	})
	return out
}
