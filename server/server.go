// Package server turns the one-shot k-VCC enumeration library into a
// long-running query service. A Server holds a registry of named,
// versioned graphs (each an immutable snapshot fronted by a mutation
// overlay), a per-graph hierarchy index (the full k-VCC cohesion tree,
// built in the background), an LRU cache of enumeration results with one
// slot per (graph, measure, k, algorithm) whose entry carries the graph
// generation it was computed on, and a singleflight layer that collapses
// concurrent identical requests into one computation. On top of that it
// exposes an HTTP/JSON API (see Handler) with per-request timeouts; the
// Client type in this package speaks the same wire format.
//
// Requests descend a serving ladder: a ready hierarchy index answers any
// covered k instantly; otherwise the cache answers repeats; otherwise one
// flight leader runs the enumeration while identical requests wait. Every
// rung is sound because an enumeration is a pure function of its key: a
// registered snapshot is never mutated in place, the four algorithm
// variants (Section 6.2 of the paper) produce identical component sets —
// they differ only in pruning work — and a finished hierarchy level holds
// exactly the k-VCCs of the graph in the same canonical order a direct
// enumeration returns. Replacing a graph bumps its generation, which
// simultaneously invalidates the cache entries and the index for the old
// graph; an edit batch (Edits) installs a new snapshot under a new
// generation but re-stamps the cache entries the batch provably did not
// affect, and keeps each affected k-VCC entry as a stale entry: it no
// longer answers lookups, but it seeds the incremental recomputation that
// replaces it and is the degraded answer when fresh compute cannot run.
// RemoveGraph completes the lifecycle. The derived endpoints
// (components-containing, overlap, cohesion, batch enumerate) are cheap
// post-processing over the same results.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"kvcc"
	"kvcc/cohesion"
	"kvcc/graph"
	"kvcc/graphio"
	"kvcc/internal/failpoint"
	"kvcc/internal/residency"
	"kvcc/store"
)

// Errors mapped to HTTP statuses by the handlers; the Client surfaces the
// same conditions from response bodies.
var (
	// ErrUnknownGraph reports a request naming a graph the server has not
	// loaded.
	ErrUnknownGraph = errors.New("server: unknown graph")
	// ErrBadRequest reports an invalid parameter (k < 2, unknown
	// algorithm, k above the configured limit).
	ErrBadRequest = errors.New("server: bad request")
)

// Config tunes a Server. The zero value is usable: every field has a
// sensible default applied by New.
type Config struct {
	// CacheSize is the maximum number of cached enumeration results
	// (default 64), current and stale together: the k-VCC results an edit
	// batch made stale stay cached as incremental seeds and count against
	// the same bound. Each entry retains its component subgraphs, so the
	// memory cost scales with result size, not input size.
	CacheSize int
	// RequestTimeout bounds how long a request waits for its result
	// (default 30s). Clients may lower it per request but never raise it
	// above this ceiling: a larger timeout_ms is clamped, not rejected,
	// and the clamp is counted in AdmissionStats.TimeoutsClamped; a
	// negative timeout_ms is rejected.
	RequestTimeout time.Duration
	// ComputeTimeout bounds one background enumeration (default 5m). It
	// is deliberately independent of RequestTimeout: a request that gives
	// up does not cancel the computation, which keeps running to fill the
	// cache.
	ComputeTimeout time.Duration
	// MaxK rejects requests with k above this value (default 0: no
	// limit). Useful as a guardrail on public deployments.
	MaxK int
	// Parallelism is passed through to kvcc.WithParallelism for every
	// enumeration (default 1: one worker, deterministic Stats).
	Parallelism int
	// BuildIndex starts a background k-VCC hierarchy-index build for
	// every graph as it is registered and after every edit batch. Once a
	// graph's index is ready, enumerate and components-containing queries
	// for any k are served from the tree without touching the cache or
	// running an enumeration; until then they fall back to the
	// cache/singleflight path. The hierarchy, cohesion and profile
	// endpoints build the index of any measure on demand regardless of
	// this flag — BuildIndex only controls eager kvcc builds.
	BuildIndex bool
	// DataDir enables durability: every registered graph gets an on-disk
	// store (mmap-able CSR snapshot + write-ahead log of edit batches +
	// persisted hierarchy index) in a subdirectory, and Open recovers the
	// whole registry from it after a restart. Empty (the default) keeps
	// the server purely in-memory.
	DataDir string
	// CheckpointEvery folds the WAL into a fresh snapshot after this many
	// durably logged edit batches (default 32). Negative disables
	// checkpointing beyond the initial registration snapshot, leaving the
	// WAL to grow; 0 selects the default.
	CheckpointEvery int
	// MaxInflight caps concurrently running expensive work — cold
	// enumerations that miss both the index and the cache (default
	// max(2, GOMAXPROCS)). Arrivals past the cap queue (bounded, see
	// AdmissionQueue) and are shed with an OverloadError once the queue
	// or its deadline overflows.
	MaxInflight int
	// MaxInflightCheap caps concurrent request goroutines of any kind —
	// cache/index reads, stats, derived post-processing (default 1024).
	// Its job is bounding goroutines and memory under a request flood,
	// not scheduling: cheap requests almost never queue.
	MaxInflightCheap int
	// AdmissionQueue bounds how many requests may wait for a permit in
	// each cost class (default 4×MaxInflight). The queue is the burst
	// absorber; past it, requests are shed immediately with 429.
	AdmissionQueue int
	// QueueTimeout bounds how long an admitted-to-queue request waits for
	// a permit before being shed (default 2s). Keeping it well below
	// RequestTimeout means a shed request still has budget to act on the
	// Retry-After hint.
	QueueTimeout time.Duration
	// ShedLatency is the adaptive-shedding trip point: when the p95 queue
	// wait of the expensive class exceeds it, new arrivals that would
	// queue are shed up front instead (default QueueTimeout/2; negative
	// disables the breaker). The no-wait fast path stays open, so the
	// breaker closes itself as soon as capacity frees up.
	ShedLatency time.Duration
	// QuotaRPS enables per-tenant token-bucket quotas at this sustained
	// request rate (default 0: no quotas). The tenant is the request's
	// X-API-Key when present, else a per-graph bucket.
	QuotaRPS float64
	// QuotaBurst is the token-bucket burst size (default 2×QuotaRPS+1;
	// only meaningful with QuotaRPS set).
	QuotaBurst int
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.ComputeTimeout <= 0 {
		c.ComputeTimeout = 5 * time.Minute
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 32
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
		if c.MaxInflight < 2 {
			c.MaxInflight = 2
		}
	}
	if c.MaxInflightCheap <= 0 {
		c.MaxInflightCheap = 1024
	}
	if c.AdmissionQueue <= 0 {
		c.AdmissionQueue = 4 * c.MaxInflight
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.ShedLatency == 0 {
		c.ShedLatency = c.QueueTimeout / 2
	}
	return c
}

// Server is the enumeration service. Create one with New, register graphs
// with AddGraph or LoadGraphFile, then either serve HTTP via Handler or
// call the request methods directly.
type Server struct {
	cfg    Config
	cache  *resultCache
	flight *flightGroup
	adm    *admission
	start  time.Time

	mu      sync.Mutex
	graphs  map[string]graphEntry
	nextGen uint64

	// editMu serializes registry mutations (Edits, AddGraph, RemoveGraph)
	// against each other; queries never take it. Each graph's Delta is
	// only touched under editMu, so overlay mutation needs no lock of its
	// own, and an edit batch can never interleave with a replacement or
	// removal of the graph it is updating.
	editMu sync.Mutex

	indexMu sync.Mutex
	indexes map[indexKey]*graphIndex
	// indexWG counts running index-build goroutines, save included, so
	// Close can wait for displaced builds too, not only installed ones.
	indexWG sync.WaitGroup

	statsMu      sync.Mutex
	enum         EnumStats
	measureStats map[cohesion.Measure]*MeasureCounters

	// profileMu guards the per-graph cache of graph-level profiles (see
	// profile.go); entries are validated against the graph generation.
	profileMu sync.Mutex
	profiles  map[string]*graphProfile

	// storeMu guards the per-graph durability stores and the persistence
	// counters (see persist.go). Nil-able independent of cfg: with no
	// DataDir the map simply stays empty.
	storeMu sync.Mutex
	stores  map[string]*store.Store
	persist PersistStats

	// idemMu guards idem, the per-graph idempotency-key replay tables
	// (see idempotency.go). Leaf lock: never held while taking another.
	idemMu sync.Mutex
	idem   map[string]*idemTable
}

// graphEntry pairs a registered graph with the generation of the AddGraph
// or Edits call that installed it; the generation is part of every flight
// key and stamped on every cache entry (see cacheKey), which keeps an
// in-flight enumeration on a replaced graph from serving or caching
// results under the new graph.
// The delta is the graph's mutation overlay (the current g is always its
// compacted snapshot), created lazily by the first Edits call so
// read-only graphs carry no edit bookkeeping; version is the overlay's
// monotonic version stamp (1 until first edit) and modified the
// wall-clock time of the last installing call, both surfaced through
// GraphInfo so clients can detect staleness. cores caches the core
// number of every vertex of g, the input to the affected-level
// computation of the next edit batch (filled lazily on first edit).
type graphEntry struct {
	g        *graph.Graph
	gen      uint64
	version  uint64
	modified time.Time
	delta    *graph.Delta
	cores    []int
}

// testHookEnumerateStarted, when non-nil, runs at the start of every
// flight-leader enumeration (after the cache double-check). Tests use it
// to hold an enumeration open so concurrent requests demonstrably pile up.
var testHookEnumerateStarted func()

// New returns a Server with no graphs loaded.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:          cfg,
		cache:        newResultCache(cfg.CacheSize),
		flight:       newFlightGroup(),
		adm:          newAdmission(cfg),
		start:        time.Now(),
		graphs:       make(map[string]graphEntry),
		indexes:      make(map[indexKey]*graphIndex),
		measureStats: make(map[cohesion.Measure]*MeasureCounters),
		stores:       make(map[string]*store.Store),
		idem:         make(map[string]*idemTable),
	}
}

// BeginDrain flips the server into graceful-shutdown mode: every new
// admission is refused with a draining OverloadError (HTTP 503) while
// requests already in flight run to completion. Irreversible by design —
// a draining server is on its way out.
func (s *Server) BeginDrain() { s.adm.beginDrain() }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.adm.isDraining() }

// admit runs one request through the admission ladder: the per-tenant
// quota first, then a cost-class permit held (via the returned release)
// for the request's lifetime.
func (s *Server) admit(ctx context.Context, cls costClass, graphName string) (release func(), err error) {
	if err := s.adm.checkQuota(tenantFrom(ctx, graphName)); err != nil {
		return nil, err
	}
	return s.adm.acquire(ctx, cls)
}

// countMeasure ticks one per-measure serving-ladder counter.
func (s *Server) countMeasure(m cohesion.Measure, tick func(*MeasureCounters)) {
	s.statsMu.Lock()
	c := s.measureStats[m]
	if c == nil {
		c = &MeasureCounters{}
		s.measureStats[m] = c
	}
	tick(c)
	s.statsMu.Unlock()
}

// AddGraph registers g under name, replacing any previous graph with that
// name and invalidating its cached results and hierarchy index. The
// server treats g as immutable from this point on; callers must not
// modify it. With Config.BuildIndex set, a background hierarchy-index
// build starts immediately.
func (s *Server) AddGraph(name string, g *graph.Graph) {
	// Serialize with in-flight edit batches: an Edits call must finish
	// migrating its cache entries and index state before a replacement
	// tears them down (and vice versa). The mutation overlay is created lazily
	// by the first Edits call, so registration costs no edit bookkeeping.
	s.editMu.Lock()
	defer s.editMu.Unlock()
	s.mu.Lock()
	_, replaced := s.graphs[name]
	s.nextGen++
	entry := graphEntry{
		g:        g,
		gen:      s.nextGen,
		version:  1,
		modified: time.Now(),
	}
	s.graphs[name] = entry
	s.mu.Unlock()
	if replaced {
		s.cache.invalidateGraph(name)
		s.dropIdem(name)
	}
	// Persist before starting the index build: the build's save needs
	// the store registered, and persistNewGraph's DropIndex must not
	// delete an index a fast build already saved for this graph.
	s.persistNewGraph(name, g)
	if s.cfg.BuildIndex {
		s.resetIndex(name, entry)
	} else {
		s.retireIndex(name, entry.gen)
	}
}

// RemoveGraph unregisters the named graph, drops its cached results (stale
// ones included), and cancels (and discards) any background hierarchy
// index build. It reports whether the graph was registered. A long-running
// daemon that cycles datasets uses this to keep its memory bounded;
// requests already in flight finish against the snapshot they hold but
// can no longer cache results (their generation is retired with the
// entry).
func (s *Server) RemoveGraph(name string) bool {
	// Serialize with Edits for the same reason as AddGraph: without this,
	// an in-flight edit could migrate cache entries or restart an index build
	// after this removal swept them, resurrecting state for an
	// unregistered graph.
	s.editMu.Lock()
	defer s.editMu.Unlock()
	s.mu.Lock()
	_, ok := s.graphs[name]
	delete(s.graphs, name)
	s.mu.Unlock()
	if !ok {
		return false
	}
	s.cache.invalidateGraph(name)
	s.dropIdem(name)
	s.invalidateIndex(name)
	s.dropProfile(name)
	s.dropStore(name)
	return true
}

// LoadGraphFile reads a SNAP-style edge list and registers the graph
// under name. Regular files go through graphio's two-pass streaming
// loader — the file is scanned twice and the CSR arrays are filled in
// place, so multi-million-edge files load with bounded memory; pipes and
// other non-seekable paths fall back to the one-pass reader.
func (s *Server) LoadGraphFile(name, path string) error {
	g, err := graphio.ReadEdgeListFile(path)
	if err != nil {
		return fmt.Errorf("server: load %q: %w", name, err)
	}
	s.AddGraph(name, g)
	return nil
}

// Graphs lists the registered graphs sorted by name.
func (s *Server) Graphs() []GraphInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GraphInfo, 0, len(s.graphs))
	for name, e := range s.graphs {
		out = append(out, GraphInfo{
			Name:       name,
			Vertices:   e.g.NumVertices(),
			Edges:      e.g.NumEdges(),
			Version:    e.version,
			ModifiedAt: e.modified,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (s *Server) lookup(name string) (graphEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.graphs[name]
	if !ok {
		return graphEntry{}, fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}
	return e, nil
}

// requestContext derives the context that bounds one request's wait: the
// client's override or the default, never past Config.RequestTimeout. An
// over-the-ceiling override is clamped (and counted) rather than
// rejected; a negative one is a malformed request and rejected outright.
func (s *Server) requestContext(ctx context.Context, timeoutMillis int64) (context.Context, context.CancelFunc, error) {
	if timeoutMillis < 0 {
		return nil, nil, fmt.Errorf("%w: negative timeout_ms %d", ErrBadRequest, timeoutMillis)
	}
	timeout := s.cfg.RequestTimeout
	if timeoutMillis > 0 {
		timeout = time.Duration(timeoutMillis) * time.Millisecond
		if timeout > s.cfg.RequestTimeout {
			timeout = s.cfg.RequestTimeout
			s.adm.countClamped()
		}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, cancel, nil
}

// resultSource identifies which rung of the serving ladder answered a
// request: the hierarchy index, the result cache, an in-flight
// enumeration this caller joined, or a fresh enumeration it led.
type resultSource int

const (
	srcComputed resultSource = iota
	srcCache
	srcDeduped
	srcIndex
	// srcDegraded marks a previous-generation result served because fresh
	// compute could not fit the request's deadline budget or was shed by
	// admission control. Degraded results are never cached.
	srcDegraded
)

// result is the heart of the server: a serving ladder of hierarchy index,
// cache lookup, then singleflight around the actual enumeration, shared
// by every cohesion measure. The index rung is sound because a finished
// hierarchy level holds exactly the measure's components a direct
// enumeration returns, in the same canonical order, for any algorithm
// variant (all four k-VCC variants are exact); the generation check
// keeps a replaced graph's index from ever answering.
func (s *Server) result(ctx context.Context, graphName string, k int, m cohesion.Measure, algo kvcc.Algorithm) (res *kvcc.Result, src resultSource, err error) {
	if k < 2 {
		return nil, srcComputed, fmt.Errorf("%w: k must be >= 2, got %d", ErrBadRequest, k)
	}
	if s.cfg.MaxK > 0 && k > s.cfg.MaxK {
		return nil, srcComputed, fmt.Errorf("%w: k %d exceeds server limit %d", ErrBadRequest, k, s.cfg.MaxK)
	}
	entry, err := s.lookup(graphName)
	if err != nil {
		return nil, srcComputed, err
	}

	if ix := s.readyIndex(graphName, entry.gen, m); ix != nil {
		s.statsMu.Lock()
		s.enum.IndexServed++
		s.statsMu.Unlock()
		s.countMeasure(m, func(c *MeasureCounters) { c.IndexServed++ })
		// The per-level Result is memoized on the index so its lazy label
		// index (behind components-containing/overlap) builds once, not
		// once per request.
		return ix.levelResult(k), srcIndex, nil
	}

	key := cacheKey{graph: graphName, gen: entry.gen, measure: m, k: k, algo: algo}
	if res, ok := s.cache.get(key); ok {
		s.countMeasure(m, func(c *MeasureCounters) { c.CacheHits++ })
		return res, srcCache, nil
	}

	// Deadline budget: when the remaining budget provably cannot fit a
	// fresh enumeration (per-key EWMA cost estimate), skip the doomed
	// compute and serve the previous generation's result marked degraded
	// instead of timing out with nothing.
	if res := s.degradedFor(ctx, key); res != nil {
		s.adm.countDegraded()
		return res, srcDegraded, nil
	}

	// Double-check inside the flight: this caller may have missed the
	// cache above and then won the flight race only after a previous
	// leader already stored the result. lateHit is only written by this
	// caller's own closure, and flight.do's completion channel orders the
	// write before the read.
	var lateHit bool
	res, deduped, err := s.flight.do(ctx, key, func() (*kvcc.Result, error) {
		if r, ok := s.cache.getIfPresent(key); ok {
			lateHit = true
			return r, nil
		}
		// The expensive permit is taken by the flight leader, on a context
		// detached from any request (the leader outlives its requesters by
		// design); the wait is bounded by QueueTimeout alone. A shed here
		// propagates to every deduped waiter, each of which falls back to
		// its own degraded rung below.
		release, aerr := s.adm.acquire(context.Background(), classExpensive)
		if aerr != nil {
			return nil, aerr
		}
		defer release()
		return s.enumerate(key, entry.g)
	})
	if err != nil {
		// Graceful degradation: a shed or out-of-deadline request can
		// still be answered — one generation stale, and saying so — when
		// an edit left the previous generation's result behind.
		if errors.Is(err, ErrOverloaded) || errors.Is(err, context.DeadlineExceeded) {
			if res := s.previousResult(key); res != nil {
				s.adm.countDegraded()
				return res, srcDegraded, nil
			}
		}
		return nil, srcComputed, err
	}
	if lateHit {
		s.countMeasure(m, func(c *MeasureCounters) { c.CacheHits++ })
		return res, srcCache, nil
	}
	if deduped {
		return res, srcDeduped, nil
	}
	return res, srcComputed, nil
}

// estimateKey addresses the per-query EWMA cost estimate: enumeration
// cost varies by graph, measure and k, so all three are in the key.
func estimateKey(key cacheKey) string {
	return key.graph + "/" + key.measure.String() + "/" + strconv.Itoa(key.k)
}

// previousResult returns the stale result in key's cache slot: the last
// Result computed on an older generation before an edit batch that
// affected key's k. Only kvcc entries are kept stale; nil otherwise.
func (s *Server) previousResult(key cacheKey) *kvcc.Result {
	if key.measure != kvcc.MeasureKVCC {
		return nil
	}
	return s.cache.stale(key)
}

// degradedFor decides up front whether fresh compute fits the request's
// deadline budget: with a cost estimate on record and less remaining
// budget than it predicts, the previous-generation result (if any) is the
// best answer the deadline allows.
func (s *Server) degradedFor(ctx context.Context, key cacheKey) *kvcc.Result {
	dl, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	est, ok := s.adm.estimateMS(estimateKey(key))
	if !ok || float64(time.Until(dl))/float64(time.Millisecond) >= est {
		return nil
	}
	return s.previousResult(key)
}

// enumerate runs one cache-filling enumeration as the flight leader, on a
// context detached from any request, and records latency metrics. A kvcc
// enumeration starts from the stale entry in key's cache slot, if an edit
// batch left one, and its put replaces that entry.
func (s *Server) enumerate(key cacheKey, g *graph.Graph) (*kvcc.Result, error) {
	if testHookEnumerateStarted != nil {
		testHookEnumerateStarted()
	}
	if err := failpoint.Eval("server/enumerate"); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ComputeTimeout)
	defer cancel()

	s.statsMu.Lock()
	s.enum.Started++
	s.statsMu.Unlock()
	s.countMeasure(key.measure, func(c *MeasureCounters) { c.Enumerations++ })

	// Seed the enumeration with the stale result in key's cache slot, if
	// an edit batch left one: it then reuses every k-core component the
	// edits did not touch. Only kvcc entries are kept stale (the
	// incremental path is k-VCC-specific); the other measures always
	// enumerate from scratch. The put below replaces the stale entry.
	seed := s.previousResult(key)

	begin := time.Now()
	// Bracket the computation with the process's major-fault counter: the
	// delta is the pages this query pulled from disk — its beyond-RAM
	// cost — reported as Stats.ColdPages. Attribution is approximate
	// under concurrency (overlapping queries' faults are counted too) and
	// zero where the platform has no counters.
	majBefore, _, haveFaults := residency.Faults()
	var res *kvcc.Result
	var err error
	if key.measure == kvcc.MeasureKVCC {
		res, err = kvcc.EnumerateIncrementalContext(ctx, g, key.k, seed,
			kvcc.WithAlgorithm(key.algo), kvcc.WithParallelism(s.cfg.Parallelism))
	} else {
		res, err = kvcc.EnumerateMeasureContext(ctx, g, key.k, key.measure,
			kvcc.WithParallelism(s.cfg.Parallelism))
	}
	elapsed := time.Since(begin)
	if haveFaults && res != nil {
		if majAfter, _, ok := residency.Faults(); ok {
			res.Stats.ColdPages = majAfter - majBefore
		}
	}

	s.statsMu.Lock()
	// A canceled enumeration is the caller's choice (a disconnected
	// client, a withdrawn request), not a server failure — only genuine
	// errors (timeouts included) count toward Errors.
	if err != nil && !errors.Is(err, context.Canceled) {
		s.enum.Errors++
	}
	ms := float64(elapsed) / float64(time.Millisecond)
	s.enum.TotalMS += ms
	if ms > s.enum.MaxMS {
		s.enum.MaxMS = ms
	}
	s.statsMu.Unlock()
	// Feed the admission layer's cost model: the estimate drives budget
	// pre-checks and Retry-After hints. Timed-out runs count too — they
	// are exactly the evidence that this key cannot fit small budgets.
	s.adm.noteServiceMS(estimateKey(key), ms)

	if err != nil {
		return nil, err
	}
	// Only cache if the graph generation is still current: a leader
	// pinned to a retired generation (its lookup raced an edit or a
	// replacement) may reuse the stale entry's components, but must leave
	// that entry in place for the first current-generation enumeration.
	s.mu.Lock()
	cur, ok := s.graphs[key.graph]
	s.mu.Unlock()
	if ok && cur.gen == key.gen {
		s.cache.put(key, res)
		if seed != nil {
			s.statsMu.Lock()
			s.enum.IncrementalRuns++
			s.enum.ComponentsReused += res.Stats.ComponentsReused
			s.statsMu.Unlock()
		}
	}
	return res, nil
}

// Enumerate serves one enumerate request. It is the method behind
// POST /api/v1/enumerate and is equally usable in-process.
func (s *Server) Enumerate(ctx context.Context, req EnumerateRequest) (*EnumerateResponse, error) {
	algo, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	m, err := parseMeasure(req.Measure, req.Algorithm)
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

	begin := time.Now()
	res, src, err := s.result(ctx, req.Graph, req.K, m, algo)
	if err != nil {
		return nil, err
	}
	resp := buildEnumerateResponse(req.Graph, req.K, m, algo, res, src, begin, req.IncludeMetrics)
	return &resp, nil
}

// buildEnumerateResponse assembles the wire response for one (graph, k)
// result; Enumerate and EnumerateBatch share it so the two endpoints can
// never diverge field by field.
func buildEnumerateResponse(graphName string, k int, m cohesion.Measure, algo kvcc.Algorithm, res *kvcc.Result, src resultSource, begin time.Time, includeMetrics bool) EnumerateResponse {
	resp := EnumerateResponse{
		Graph:       graphName,
		K:           k,
		Measure:     wireMeasure(m),
		Algorithm:   wireAlgorithm(m, algo),
		Cached:      src == srcCache,
		Deduped:     src == srcDeduped,
		IndexServed: src == srcIndex,
		Degraded:    src == srcDegraded,
		ElapsedMS:   float64(time.Since(begin)) / float64(time.Millisecond),
		Components:  wireComponents(res.Components, includeMetrics),
		Stats:       res.Stats,
	}
	if includeMetrics {
		avg := averageComponents(res.Components)
		resp.Metrics = &avg
	}
	return resp
}

// ComponentsContaining serves one components-containing request: the
// indices (and bodies) of the cached components holding one vertex label.
func (s *Server) ComponentsContaining(ctx context.Context, req ContainingRequest) (*ContainingResponse, error) {
	algo, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	m, err := parseMeasure(req.Measure, req.Algorithm)
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

	res, src, err := s.result(ctx, req.Graph, req.K, m, algo)
	if err != nil {
		return nil, err
	}
	indices := res.ComponentsContaining(req.Vertex)
	comps := make([]Component, len(indices))
	for i, idx := range indices {
		comps[i] = wireComponent(res.Components[idx], false)
	}
	return &ContainingResponse{
		Graph:       req.Graph,
		K:           req.K,
		Measure:     wireMeasure(m),
		Algorithm:   wireAlgorithm(m, algo),
		Cached:      src == srcCache,
		IndexServed: src == srcIndex,
		Degraded:    src == srcDegraded,
		Vertex:      req.Vertex,
		Indices:     indices,
		Components:  comps,
	}, nil
}

// Overlap serves one overlap request: the pairwise overlap matrix of the
// cached components.
func (s *Server) Overlap(ctx context.Context, req OverlapRequest) (*OverlapResponse, error) {
	algo, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	m, err := parseMeasure(req.Measure, req.Algorithm)
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

	res, src, err := s.result(ctx, req.Graph, req.K, m, algo)
	if err != nil {
		return nil, err
	}
	return &OverlapResponse{
		Graph:       req.Graph,
		K:           req.K,
		Measure:     wireMeasure(m),
		Algorithm:   wireAlgorithm(m, algo),
		Cached:      src == srcCache,
		IndexServed: src == srcIndex,
		Degraded:    src == srcDegraded,
		Matrix:      res.OverlapMatrix(),
	}, nil
}

// Stats returns the operational snapshot behind GET /api/v1/stats.
func (s *Server) Stats() *StatsResponse {
	s.statsMu.Lock()
	enum := s.enum
	if len(s.measureStats) > 0 {
		// Materialize a fresh map per call: the response may outlive this
		// snapshot and must not alias the live counters.
		enum.Measures = make(map[string]MeasureCounters, len(s.measureStats))
		for m, c := range s.measureStats {
			enum.Measures[m.String()] = *c
		}
	}
	s.statsMu.Unlock()
	enum.Deduped = s.flight.dedupedCount()
	adm := s.adm.snapshot()
	adm.FailpointTrips = failpoint.TotalTrips()
	adm.Failpoints = failpoint.Snapshot()
	return &StatsResponse{
		Graphs:       s.Graphs(),
		Cache:        s.cache.stats(),
		Enumerations: enum,
		Indexes:      s.indexInfos(),
		Persistence:  s.persistStats(),
		Admission:    adm,
		Paging:       s.pagingStats(),
		UptimeMS:     float64(time.Since(s.start)) / float64(time.Millisecond),
	}
}
