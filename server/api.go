package server

import (
	"fmt"
	"sort"
	"time"

	"kvcc"
	"kvcc/graph"
	"kvcc/hierarchy"
	"kvcc/metrics"
	"kvcc/store"
)

// The wire types below are shared by the HTTP handlers and the Go Client,
// so a round trip through JSON is lossless by construction.

// EnumerateRequest asks for all level-k components of a named graph under
// one cohesion measure (k-VCCs by default).
type EnumerateRequest struct {
	// Graph names a graph loaded into the server.
	Graph string `json:"graph"`
	// K is the connectivity parameter (>= 2 for a meaningful component).
	K int `json:"k"`
	// Measure selects the cohesion measure: "kvcc" (the default when
	// empty), "kecc" or "kcore". Every measure is served through the same
	// index → cache → singleflight ladder.
	Measure string `json:"measure,omitempty"`
	// Algorithm selects the k-VCC enumeration variant: "basic" (VCCE),
	// "ns" (VCCE-N), "gs" (VCCE-G) or "star" (VCCE*, the default when
	// empty). The paper's own names are accepted too. Only valid with the
	// kvcc measure — the other engines have no variants.
	Algorithm string `json:"algorithm,omitempty"`
	// TimeoutMillis bounds how long this request waits, overriding the
	// server's default request timeout when positive. It does not cancel
	// the underlying enumeration, which keeps running to populate the
	// cache for later requests.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// IncludeMetrics adds per-result quality measures (diameter, density,
	// clustering — the paper's Section 6.1 effectiveness metrics) to the
	// response. Diameter is exact and costs O(n·m) per component.
	IncludeMetrics bool `json:"include_metrics,omitempty"`
}

// Component is one k-VCC on the wire: its sorted vertex labels plus sizes.
type Component struct {
	Vertices    []int64          `json:"vertices"`
	NumVertices int              `json:"num_vertices"`
	NumEdges    int              `json:"num_edges"`
	Metrics     *metrics.Summary `json:"metrics,omitempty"`
}

// EnumerateResponse is the result of one enumerate call. When IndexServed
// is set the components came from the hierarchy index and Stats reports
// the work the index build spent on that level (the query itself ran no
// enumeration); otherwise Stats describes the enumeration that produced
// the (possibly cached) result.
type EnumerateResponse struct {
	Graph string `json:"graph"`
	K     int    `json:"k"`
	// Measure is set for non-default measures only, so k-VCC responses
	// are byte-identical to the pre-measure wire format.
	Measure     string `json:"measure,omitempty"`
	Algorithm   string `json:"algorithm,omitempty"`
	Cached      bool   `json:"cached"`
	Deduped     bool   `json:"deduped,omitempty"`
	IndexServed bool   `json:"index_served,omitempty"`
	// Degraded marks a previous-generation result served because fresh
	// compute could not fit the request's deadline budget (or was shed
	// under overload): correct for the graph as it was one edit batch
	// ago, stale for the current one.
	Degraded   bool              `json:"degraded,omitempty"`
	ElapsedMS  float64           `json:"elapsed_ms"`
	Components []Component       `json:"components"`
	Stats      kvcc.Stats        `json:"stats"`
	Metrics    *metrics.Averages `json:"avg_metrics,omitempty"`
}

// ContainingRequest asks which level-k components contain one vertex
// label (at most one for the disjoint kecc/kcore measures).
type ContainingRequest struct {
	Graph         string `json:"graph"`
	K             int    `json:"k"`
	Measure       string `json:"measure,omitempty"`
	Algorithm     string `json:"algorithm,omitempty"`
	TimeoutMillis int64  `json:"timeout_ms,omitempty"`
	// Vertex is the label of the vertex to look up (labels are the ids
	// from the input edge list).
	Vertex int64 `json:"vertex"`
}

// ContainingResponse lists the matching components. Indices refer to the
// component order of EnumerateResponse for the same (graph, k, algorithm);
// index-served and enumerated results use the same canonical order, so the
// indices are stable across serving paths.
type ContainingResponse struct {
	Graph       string      `json:"graph"`
	K           int         `json:"k"`
	Measure     string      `json:"measure,omitempty"`
	Algorithm   string      `json:"algorithm,omitempty"`
	Cached      bool        `json:"cached"`
	IndexServed bool        `json:"index_served,omitempty"`
	Degraded    bool        `json:"degraded,omitempty"`
	Vertex      int64       `json:"vertex"`
	Indices     []int       `json:"indices"`
	Components  []Component `json:"components"`
}

// OverlapRequest asks for the pairwise overlap matrix of the level-k
// components (diagonal for the disjoint kecc/kcore measures).
type OverlapRequest struct {
	Graph         string `json:"graph"`
	K             int    `json:"k"`
	Measure       string `json:"measure,omitempty"`
	Algorithm     string `json:"algorithm,omitempty"`
	TimeoutMillis int64  `json:"timeout_ms,omitempty"`
}

// OverlapResponse carries the symmetric overlap matrix: entry [i][j] is
// the number of shared vertices between components i and j, and [i][i] is
// the size of component i. Property 1 of the paper guarantees every
// off-diagonal entry is below k.
type OverlapResponse struct {
	Graph       string  `json:"graph"`
	K           int     `json:"k"`
	Measure     string  `json:"measure,omitempty"`
	Algorithm   string  `json:"algorithm,omitempty"`
	Cached      bool    `json:"cached"`
	IndexServed bool    `json:"index_served,omitempty"`
	Degraded    bool    `json:"degraded,omitempty"`
	Matrix      [][]int `json:"matrix"`
}

// HierarchyRequest asks for the per-level summary of a graph's cohesion
// hierarchy. The request blocks (within its timeout) until the graph's
// index build finishes, starting one on demand if necessary.
type HierarchyRequest struct {
	Graph string `json:"graph"`
	// Measure selects which cohesion hierarchy to summarize ("kvcc" when
	// empty).
	Measure       string `json:"measure,omitempty"`
	TimeoutMillis int64  `json:"timeout_ms,omitempty"`
	// IncludeComponents adds the full vertex sets of every level to the
	// response. Off by default: a deep hierarchy repeats most of the graph
	// once per level.
	IncludeComponents bool `json:"include_components,omitempty"`
}

// HierarchyLevel summarizes one level of the hierarchy.
type HierarchyLevel struct {
	K          int `json:"k"`
	Components int `json:"components"`
	// Vertices is the total vertex count across the level's components;
	// a vertex in several k-VCCs is counted once per component.
	Vertices      int         `json:"vertices"`
	ComponentSets []Component `json:"component_sets,omitempty"`
}

// HierarchyResponse summarizes a finished hierarchy index.
type HierarchyResponse struct {
	Graph   string `json:"graph"`
	Measure string `json:"measure,omitempty"`
	// MaxK is the deepest level with at least one component.
	MaxK int `json:"max_k"`
	// Size is the total number of components across all levels.
	Size    int              `json:"size"`
	BuildMS float64          `json:"build_ms"`
	Levels  []HierarchyLevel `json:"levels"`
	// Stats describes the enumeration work of the index build.
	Stats hierarchy.Stats `json:"build_stats"`
}

// CohesionRequest asks for the structural cohesion of up to 1024 vertex
// labels: the deepest k at which some k-VCC contains each vertex.
type CohesionRequest struct {
	Graph string `json:"graph"`
	// Measure selects which hierarchy answers ("kvcc" when empty): the
	// kcore measure reports core numbers, kecc per-vertex λ, kvcc
	// per-vertex κ (structural cohesion).
	Measure       string  `json:"measure,omitempty"`
	Vertices      []int64 `json:"vertices"`
	TimeoutMillis int64   `json:"timeout_ms,omitempty"`
}

// PathStep is one component on a vertex's nesting chain.
type PathStep struct {
	K           int `json:"k"`
	NumVertices int `json:"num_vertices"`
	NumEdges    int `json:"num_edges"`
}

// VertexCohesion is the answer for one queried vertex. Path holds the
// chain of components containing the vertex from level 1 down to its
// cohesion level; it is empty when the vertex is in no component.
type VertexCohesion struct {
	Vertex   int64      `json:"vertex"`
	Cohesion int        `json:"cohesion"`
	Path     []PathStep `json:"path,omitempty"`
}

// CohesionResponse lists per-vertex cohesion results in request order.
type CohesionResponse struct {
	Graph   string           `json:"graph"`
	Measure string           `json:"measure,omitempty"`
	Results []VertexCohesion `json:"results"`
}

// BatchEnumerateRequest asks for the k-VCCs of one graph at up to 64
// values of k under a single deadline.
type BatchEnumerateRequest struct {
	Graph          string `json:"graph"`
	Ks             []int  `json:"ks"`
	Measure        string `json:"measure,omitempty"`
	Algorithm      string `json:"algorithm,omitempty"`
	TimeoutMillis  int64  `json:"timeout_ms,omitempty"`
	IncludeMetrics bool   `json:"include_metrics,omitempty"`
}

// BatchEnumerateResponse carries one EnumerateResponse per requested k,
// in request order.
type BatchEnumerateResponse struct {
	Graph     string              `json:"graph"`
	Measure   string              `json:"measure,omitempty"`
	Algorithm string              `json:"algorithm,omitempty"`
	Results   []EnumerateResponse `json:"results"`
}

// IndexInfo describes the state of one graph's hierarchy index build.
type IndexInfo struct {
	Graph string `json:"graph"`
	// Measure names the cohesion measure the index covers; absent for the
	// default kvcc measure.
	Measure string `json:"measure,omitempty"`
	// State is "building", "ready" or "failed".
	State string `json:"state"`
	// TreeMaxK, Size and BuildMS describe a ready index.
	TreeMaxK int     `json:"tree_max_k,omitempty"`
	Size     int     `json:"size,omitempty"`
	BuildMS  float64 `json:"build_ms,omitempty"`
}

// GraphInfo describes one graph loaded into the server. Version is the
// graph's mutation-overlay version stamp (1 for a freshly registered
// graph, bumped by every effective edit) and ModifiedAt the time of the
// registration or edit batch that installed the current snapshot;
// together they let clients detect staleness after edits.
type GraphInfo struct {
	Name       string    `json:"name"`
	Vertices   int       `json:"vertices"`
	Edges      int       `json:"edges"`
	Version    uint64    `json:"version"`
	ModifiedAt time.Time `json:"modified_at"`
}

// EditsRequest applies a batch of edge edits to a named graph. Edges are
// addressed by vertex label ([from, to]; order irrelevant); inserts
// create vertices on first mention. Graph is taken from the URL path by
// the HTTP handler — a non-empty body value must match it.
type EditsRequest struct {
	Graph   string     `json:"graph,omitempty"`
	Inserts [][2]int64 `json:"inserts,omitempty"`
	Deletes [][2]int64 `json:"deletes,omitempty"`
	// IdempotencyKey, when non-empty, makes the batch safe to retry: a
	// batch whose key the server has already applied is answered from the
	// replay table (Replayed=true in the response) instead of being
	// applied again. Keys are durably logged with the batch, so the
	// at-most-once guarantee holds across crashes and restarts.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// EditsResponse reports one applied edit batch: the new version and graph
// size, how many edits took effect (NoopEdits were already present /
// already absent), the highest connectivity level the batch may have
// changed, and what happened to the derived state — cache entries at
// unaffected k kept serving, affected entries were invalidated (a k-VCC
// one stays cached as a stale entry that seeds the next incremental
// enumeration), and the hierarchy index repair was scheduled, dropped, or
// not needed.
type EditsResponse struct {
	Graph            string `json:"graph"`
	Version          uint64 `json:"version"`
	Vertices         int    `json:"vertices"`
	Edges            int    `json:"edges"`
	AppliedInserts   int    `json:"applied_inserts"`
	AppliedDeletes   int    `json:"applied_deletes"`
	NoopEdits        int    `json:"noop_edits,omitempty"`
	AffectedMaxK     int    `json:"affected_max_k"`
	CacheKept        int    `json:"cache_kept"`
	CacheInvalidated int    `json:"cache_invalidated"`
	IndexRepair      string `json:"index_repair"`
	// Persisted reports that the batch was fsync'd to the graph's
	// write-ahead log before this response was built, i.e. it survives a
	// crash. Absent when the server runs without a data directory (or the
	// append failed — see StatsResponse.Persistence for the error).
	Persisted bool `json:"persisted,omitempty"`
	// Replayed reports that this batch's idempotency key was already
	// applied: the response replays the original outcome (after a restart
	// only Version survives; the counts died with the process) and the
	// graph was not touched again.
	Replayed  bool    `json:"replayed,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// RemoveGraphResponse acknowledges DELETE /api/v1/graphs/{name}.
type RemoveGraphResponse struct {
	Graph   string `json:"graph"`
	Removed bool   `json:"removed"`
}

// StatsResponse is the server's operational snapshot.
type StatsResponse struct {
	Graphs       []GraphInfo     `json:"graphs"`
	Cache        CacheStats      `json:"cache"`
	Enumerations EnumStats       `json:"enumerations"`
	Indexes      []IndexInfo     `json:"indexes,omitempty"`
	Persistence  *PersistStats   `json:"persistence,omitempty"`
	Admission    *AdmissionStats `json:"admission,omitempty"`
	// Paging rolls up the page-release, eviction and residency figures
	// of every graph's snapshot mapping (present only with persistence
	// enabled): counters and mapping sizes sum across stores, residency
	// sums across live mappings, and SnapshotOpenMS is the slowest last
	// open among them (the startup-latency figure of merit).
	Paging   *store.PagingStats `json:"paging,omitempty"`
	UptimeMS float64            `json:"uptime_ms"`
}

// AdmissionStats describes the server's overload boundary: configured
// capacity, current pressure, and what the admission ladder has done so
// far. Shed is the sum of the per-reason shed counters.
type AdmissionStats struct {
	// Draining is set after BeginDrain: the server refuses new admissions
	// with 503 while in-flight work finishes.
	Draining bool `json:"draining,omitempty"`
	// MaxInflight / MaxInflightCheap / QueueDepth echo the configured
	// capacities; InflightExpensive and QueuedNow are the expensive
	// class's instantaneous occupancy.
	MaxInflight       int `json:"max_inflight"`
	MaxInflightCheap  int `json:"max_inflight_cheap"`
	QueueDepth        int `json:"queue_depth"`
	InflightExpensive int `json:"inflight_expensive"`
	QueuedNow         int `json:"queued_now"`
	// Admitted counts granted permits; Queued the admissions that had to
	// wait for one.
	Admitted int64 `json:"admitted"`
	Queued   int64 `json:"queued"`
	// Shed totals rejected admissions, split by the rung that rejected:
	// bounded queue overflow, queue deadline, the adaptive p95 breaker,
	// and drain mode. QuotaRejections are counted separately — a
	// throttled tenant is not server overload.
	Shed             int64 `json:"shed"`
	ShedQueueFull    int64 `json:"shed_queue_full,omitempty"`
	ShedQueueTimeout int64 `json:"shed_queue_timeout,omitempty"`
	ShedLatency      int64 `json:"shed_latency,omitempty"`
	ShedDraining     int64 `json:"shed_draining,omitempty"`
	QuotaRejections  int64 `json:"quota_rejections,omitempty"`
	// Queue-wait percentiles over the recent expensive-class admissions,
	// in milliseconds (fast-path admissions count as 0).
	QueueWaitP50MS float64 `json:"queue_wait_p50_ms"`
	QueueWaitP95MS float64 `json:"queue_wait_p95_ms"`
	QueueWaitP99MS float64 `json:"queue_wait_p99_ms"`
	// Degraded counts responses served from a previous generation under
	// deadline or overload pressure; TimeoutsClamped the requests whose
	// timeout_ms hit the RequestTimeout ceiling; IdempotentReplays the Edits
	// batches answered from the replay table.
	Degraded          int64 `json:"degraded,omitempty"`
	TimeoutsClamped   int64 `json:"timeouts_clamped,omitempty"`
	IdempotentReplays int64 `json:"idempotent_replays,omitempty"`
	// FailpointTrips totals injected faults (chaos builds only; always 0
	// in production binaries), split per point in Failpoints.
	FailpointTrips int64            `json:"failpoint_trips,omitempty"`
	Failpoints     map[string]int64 `json:"failpoints,omitempty"`
}

// PersistStats describes the durability layer of a server running with a
// data directory (absent from stats otherwise). RecoveredGraphs,
// ReplayedBatches and TornTails describe the recovery this process
// performed at startup; the counters below them accumulate over its
// lifetime. Errors counts non-fatal persistence failures — serving
// continues in memory — with LastError holding the most recent one.
type PersistStats struct {
	Enabled         bool  `json:"enabled"`
	Graphs          int   `json:"graphs"`
	RecoveredGraphs int   `json:"recovered_graphs"`
	ReplayedBatches int   `json:"replayed_batches"`
	TornTails       int   `json:"torn_tails,omitempty"`
	WALAppends      int64 `json:"wal_appends"`
	Checkpoints     int64 `json:"checkpoints"`
	// SpillCompactions counts checkpoints taken through the zero-heap
	// streaming path (store.CompactToStore): the overlay was folded
	// straight into a new snapshot file and the graph re-mapped, instead
	// of compacting on the heap first. A subset of Checkpoints.
	SpillCompactions int64 `json:"spill_compactions,omitempty"`
	IndexSaves       int64 `json:"index_saves,omitempty"`
	// IndexSaveSkips counts finished index builds that could not be
	// saved because their graph had no registered store.
	IndexSaveSkips int64  `json:"index_save_skips,omitempty"`
	IndexLoads     int64  `json:"index_loads,omitempty"`
	Errors         int64  `json:"errors,omitempty"`
	LastError      string `json:"last_error,omitempty"`
}

// EnumStats aggregates the enumeration work the server has performed.
type EnumStats struct {
	// Started counts enumerations actually run (cache misses that became
	// flight leaders).
	Started int64 `json:"started"`
	// Errors counts enumerations that finished with an error.
	Errors int64 `json:"errors"`
	// Deduped counts requests that joined an in-flight enumeration
	// instead of starting their own.
	Deduped int64 `json:"deduped"`
	// IndexServed counts queries answered from a ready hierarchy index
	// (no cache entry and no enumeration involved).
	IndexServed int64 `json:"index_served"`
	// Edits counts effective edit batches applied to registered graphs.
	Edits int64 `json:"edits,omitempty"`
	// IncrementalRuns counts enumerations that started from a stale cache
	// entry left by an edit batch; ComponentsReused totals the k-core
	// components those runs served verbatim from it instead of
	// recomputing.
	IncrementalRuns  int64 `json:"incremental_runs,omitempty"`
	ComponentsReused int64 `json:"components_reused,omitempty"`
	// TotalMS and MaxMS aggregate the wall-clock latency of completed
	// enumerations (cache hits excluded; they are served in microseconds).
	TotalMS float64 `json:"total_ms"`
	MaxMS   float64 `json:"max_ms"`
	// Profiles counts graph-profile requests served.
	Profiles int64 `json:"profiles,omitempty"`
	// Measures splits the serving-ladder traffic by cohesion measure, so
	// the kvcc/kecc/kcore mix is observable. Only measures with traffic
	// appear.
	Measures map[string]MeasureCounters `json:"measures,omitempty"`
}

// MeasureCounters is the per-measure slice of the serving-ladder traffic.
type MeasureCounters struct {
	// Enumerations counts flight-leader enumerations run for the measure.
	Enumerations int64 `json:"enumerations"`
	// CacheHits counts requests answered from the result cache.
	CacheHits int64 `json:"cache_hits"`
	// IndexServed counts requests answered from a ready hierarchy index.
	IndexServed int64 `json:"index_served"`
}

// errorResponse is the uniform error body for non-2xx statuses.
type errorResponse struct {
	Error string `json:"error"`
}

// parseAlgorithm maps the wire names onto the algorithm variants. The
// short CLI spellings and the paper's names are both accepted; the empty
// string selects the default VCCE*.
func parseAlgorithm(name string) (kvcc.Algorithm, error) {
	switch name {
	case "", "star", "VCCE*":
		return kvcc.VCCEStar, nil
	case "basic", "VCCE":
		return kvcc.VCCE, nil
	case "ns", "VCCE-N":
		return kvcc.VCCEN, nil
	case "gs", "VCCE-G":
		return kvcc.VCCEG, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want basic | ns | gs | star)", name)
}

// parseMeasure wraps cohesion's measure parsing in the server's
// bad-request error, and rejects the algorithm field for measures that
// have no variants (accepting it would silently ignore a parameter the
// client believes is honored).
func parseMeasure(measure, algorithm string) (kvcc.Measure, error) {
	m, err := kvcc.ParseMeasure(measure)
	if err != nil {
		return m, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if m != kvcc.MeasureKVCC && algorithm != "" {
		return m, fmt.Errorf("%w: algorithm %q applies only to the kvcc measure", ErrBadRequest, algorithm)
	}
	return m, nil
}

// wireMeasure renders a measure for a response: non-default measures by
// name, kvcc as the empty string so default responses stay byte-identical
// to the pre-measure wire format.
func wireMeasure(m kvcc.Measure) string {
	if m == kvcc.MeasureKVCC {
		return ""
	}
	return m.String()
}

// wireAlgorithm renders the algorithm for a response: the kvcc measure
// names the variant that ran (never empty), every other measure has no
// variants and omits the field.
func wireAlgorithm(m kvcc.Measure, algo kvcc.Algorithm) string {
	if m != kvcc.MeasureKVCC {
		return ""
	}
	return algo.String()
}

// wireComponent converts one component subgraph to its wire form.
func wireComponent(c *graph.Graph, withMetrics bool) Component {
	labels := append([]int64(nil), c.Labels()...)
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	out := Component{
		Vertices:    labels,
		NumVertices: c.NumVertices(),
		NumEdges:    c.NumEdges(),
	}
	if withMetrics {
		s := metrics.Summarize(c)
		out.Metrics = &s
	}
	return out
}

func wireComponents(comps []*graph.Graph, withMetrics bool) []Component {
	out := make([]Component, len(comps))
	for i, c := range comps {
		out[i] = wireComponent(c, withMetrics)
	}
	return out
}

// averageComponents computes the paper's per-component quality averages
// (Figs. 7-9) for one result set.
func averageComponents(comps []*graph.Graph) metrics.Averages {
	return metrics.Average(comps)
}
