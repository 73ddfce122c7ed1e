package kvcc

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"sync"

	"kvcc/cohesion"
	"kvcc/graph"
	"kvcc/hierarchy"
	"kvcc/internal/core"
	"kvcc/internal/incr"
	"kvcc/internal/kcore"
	"kvcc/internal/kecc"
)

// Measure selects the cohesion measure an enumeration or hierarchy build
// runs under. The zero value is MeasureKVCC.
type Measure = cohesion.Measure

// Cohesion measures, weakest to strongest: every k-VCC lies in a k-ECC,
// every k-ECC in a connected component of the k-core.
const (
	// MeasureKVCC enumerates k-vertex connected components (default).
	MeasureKVCC = cohesion.KVCC
	// MeasureKECC enumerates k-edge connected components.
	MeasureKECC = cohesion.KECC
	// MeasureKCore enumerates connected components of the k-core.
	MeasureKCore = cohesion.KCore
)

// ParseMeasure maps a wire name ("kvcc", "kecc", "kcore"; empty = kvcc)
// to a Measure.
func ParseMeasure(name string) (Measure, error) { return cohesion.ParseMeasure(name) }

// Algorithm selects one of the paper's four enumeration variants.
type Algorithm = core.Algorithm

// Algorithm variants (Section 6.2 of the paper).
const (
	// VCCE is the basic cut-based algorithm (Algorithm 2).
	VCCE = core.VCCE
	// VCCEN adds neighbor sweep (Section 5.1).
	VCCEN = core.VCCEN
	// VCCEG adds group sweep (Section 5.2).
	VCCEG = core.VCCEG
	// VCCEStar enables both sweeps (GLOBAL-CUT*, Algorithm 3). Default.
	VCCEStar = core.VCCEStar
)

// Stats reports the work performed during one enumeration.
type Stats = core.Stats

// Option configures Enumerate.
type Option func(*core.Options)

// WithAlgorithm selects the enumeration variant (default VCCEStar).
func WithAlgorithm(a Algorithm) Option {
	return func(o *core.Options) { o.Algorithm = a }
}

// WithParallelism processes independent partitioned subgraphs with the
// given number of workers (default 1; values below 1 also mean one worker,
// which runs in a fixed order, so its Stats are deterministic). The result
// set is the same for every worker count.
func WithParallelism(workers int) Option {
	return func(o *core.Options) { o.Parallelism = workers }
}

// Result is the output of Enumerate.
type Result struct {
	// K is the connectivity parameter the enumeration ran with.
	K int
	// Components are the k-VCCs, largest first. Vertex labels refer to the
	// input graph; overlapping components repeat labels.
	Components []*graph.Graph
	// Stats describes the work performed. For an incrementally maintained
	// result (Dynamic, EnumerateIncremental) it covers only the components
	// actually recomputed — reused components tick Stats.ComponentsReused
	// and cost nothing.
	Stats Stats
	// Version is the graph version the result was computed at: the Delta
	// version stamp for results produced by a Dynamic handle, 0 for plain
	// Enumerate calls on static graphs.
	Version uint64

	// store holds the per-component results keyed by structural
	// fingerprint. Both the cold path (EnumerateContext) and the
	// incremental path (Dynamic.ApplyEdits, EnumerateIncrementalContext)
	// populate it, and the incremental path consults the previous
	// result's store to skip every component untouched by an edit. A
	// Result assembled literally (e.g. from a hierarchy index level) has
	// no store; incremental runs against it simply recompute everything.
	store *incr.Store

	// byLabel is the label → component-indices inverted index, built
	// lazily on first membership query. Results are cached and shared
	// across concurrent server requests, so the build is guarded by a
	// sync.Once rather than recomputed (or worse, linearly scanned) per
	// request.
	indexOnce sync.Once
	byLabel   []membership
}

// membership records that component comp contains the vertex label.
type membership struct {
	label int64
	comp  int
}

// labelIndex returns the inverted index from vertex label to the indices
// of the components containing it, building it on first use: every
// membership once, sorted by label and then component, so one label's
// components form an ascending run. Safe for concurrent callers.
func (r *Result) labelIndex() []membership {
	r.indexOnce.Do(func() {
		total := 0
		for _, c := range r.Components {
			total += c.NumVertices()
		}
		idx := make([]membership, 0, total)
		for i, c := range r.Components {
			for _, l := range c.Labels() {
				idx = append(idx, membership{l, i})
			}
		}
		slices.SortFunc(idx, func(a, b membership) int {
			if c := cmp.Compare(a.label, b.label); c != 0 {
				return c
			}
			return cmp.Compare(a.comp, b.comp)
		})
		r.byLabel = slices.Compact(idx) // defensive: a component lists each label once
	})
	return r.byLabel
}

// Enumerate computes all k-vertex connected components of g.
func Enumerate(g *graph.Graph, k int, opts ...Option) (*Result, error) {
	return EnumerateContext(context.Background(), g, k, opts...)
}

// EnumerateContext is Enumerate with cancellation: the recursion checks
// ctx between partition steps and returns ctx.Err() once it is done.
//
// Internally the enumeration runs per k-core connected component (the
// k-VCCs of a graph are the disjoint union of the k-VCCs of those
// components) and the Result retains the per-component breakdown, so a
// later EnumerateIncrementalContext against this Result pays only for the
// components an edit actually touched.
func EnumerateContext(ctx context.Context, g *graph.Graph, k int, opts ...Option) (*Result, error) {
	options := core.Options{Algorithm: core.VCCEStar}
	for _, opt := range opts {
		opt(&options)
	}
	return enumerateWithStore(ctx, g, k, options, nil)
}

// EnumerateMeasure computes all level-k components of g under the given
// cohesion measure. See EnumerateMeasureContext.
func EnumerateMeasure(g *graph.Graph, k int, m Measure, opts ...Option) (*Result, error) {
	return EnumerateMeasureContext(context.Background(), g, k, m, opts...)
}

// EnumerateMeasureContext is the measure-parametric enumeration entry
// point: MeasureKVCC takes the exact same path as EnumerateContext
// (including the per-component store that powers incremental updates),
// while MeasureKECC and MeasureKCore run their engines under the shared
// component contract — canonical ordering, ctx cancellation, Stats. The
// non-k-VCC measures produce disjoint components, so the Result's overlap
// matrix is diagonal and ComponentsContaining returns at most one index.
func EnumerateMeasureContext(ctx context.Context, g *graph.Graph, k int, m Measure, opts ...Option) (*Result, error) {
	if m == cohesion.KVCC {
		return EnumerateContext(ctx, g, k, opts...)
	}
	options := core.Options{Algorithm: core.VCCEStar}
	for _, opt := range opts {
		opt(&options)
	}
	comps, stats, err := cohesion.EnumerateContext(ctx, g, k, m, options)
	if err != nil {
		return nil, err
	}
	return &Result{K: k, Components: comps, Stats: *stats}, nil
}

// enumerateWithStore is the shared engine behind the cold and incremental
// paths: a per-component run that reuses matching components of prev (nil
// for cold) and assembles the flattened canonical Result.
func enumerateWithStore(ctx context.Context, g *graph.Graph, k int, options core.Options, prev *incr.Store) (*Result, error) {
	store, stats, err := incr.Run(ctx, g, k, options, prev)
	if err != nil {
		return nil, err
	}
	return &Result{K: k, Components: store.Flatten(), Stats: *stats, store: store}, nil
}

// BuildHierarchy computes the full cohesion hierarchy of g — every k-VCC
// for every k — in one incremental pass: level k+1 is enumerated only
// inside each level-k component (the paper's nesting property), so the
// whole family costs far less than one enumeration per k. The resulting
// tree answers Level, Cohesion and Path queries for any k without further
// enumeration. WithAlgorithm and WithParallelism apply; parallelism fans
// out across sibling components of each level.
func BuildHierarchy(g *graph.Graph, opts ...Option) (*hierarchy.Tree, error) {
	return BuildHierarchyContext(context.Background(), g, opts...)
}

// BuildHierarchyContext is BuildHierarchy with cancellation.
func BuildHierarchyContext(ctx context.Context, g *graph.Graph, opts ...Option) (*hierarchy.Tree, error) {
	return BuildMeasureHierarchyContext(ctx, g, cohesion.KVCC, opts...)
}

// BuildMeasureHierarchy builds the hierarchy of g under the given
// cohesion measure. See BuildMeasureHierarchyContext.
func BuildMeasureHierarchy(g *graph.Graph, m Measure, opts ...Option) (*hierarchy.Tree, error) {
	return BuildMeasureHierarchyContext(context.Background(), g, m, opts...)
}

// BuildMeasureHierarchyContext builds the measure-m hierarchy: the nested
// incremental build applies to every measure because k-cores, k-ECCs and
// k-VCCs all nest level-over-level.
func BuildMeasureHierarchyContext(ctx context.Context, g *graph.Graph, m Measure, opts ...Option) (*hierarchy.Tree, error) {
	options := core.Options{Algorithm: core.VCCEStar}
	for _, opt := range opts {
		opt(&options)
	}
	return hierarchy.BuildContext(ctx, g, hierarchy.Options{
		Measure:     m,
		Algorithm:   options.Algorithm,
		Parallelism: options.Parallelism,
	})
}

// ComponentsContaining returns the indices of the components that contain
// the vertex with the given label. By Theorem 6 a vertex belongs to fewer
// than n/2 components; in practice overlap is below k per pair
// (Property 1). Lookups hit the lazily built inverted index, so the
// serving path costs O(answer), not O(components · vertices).
func (r *Result) ComponentsContaining(label int64) []int {
	idx := r.labelIndex()
	i, _ := slices.BinarySearchFunc(idx, label, func(m membership, l int64) int { return cmp.Compare(m.label, l) })
	var out []int
	for ; i < len(idx) && idx[i].label == label; i++ {
		out = append(out, idx[i].comp)
	}
	return out
}

// OverlapMatrix returns the pairwise overlap sizes between components.
// Property 1 guarantees every off-diagonal entry is below k. The matrix is
// assembled from the inverted label index — each shared vertex contributes
// to the pairs of components containing it — so the cost is
// O(vertices · overlap²) rather than O(components² · vertices).
func (r *Result) OverlapMatrix() [][]int {
	n := len(r.Components)
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
	}
	idx := r.labelIndex()
	for i := 0; i < len(idx); {
		j := i + 1 // idx[i:j] is one label's run of components
		for j < len(idx) && idx[j].label == idx[i].label {
			j++
		}
		run := idx[i:j]
		for x, a := range run {
			m[a.comp][a.comp]++
			for _, b := range run[x+1:] {
				m[a.comp][b.comp]++
				m[b.comp][a.comp]++
			}
		}
		i = j
	}
	return m
}

// VertexLabels returns the union of all component vertex labels, sorted.
func (r *Result) VertexLabels() []int64 {
	set := map[int64]bool{}
	for _, c := range r.Components {
		for _, l := range c.Labels() {
			set[l] = true
		}
	}
	out := make([]int64, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KCore returns the subgraph induced by all vertices of core number >= k
// (the union of the k-cores of g).
func KCore(g *graph.Graph, k int) *graph.Graph {
	reduced, _ := kcore.Reduce(g, k)
	return reduced
}

// KCoreComponents returns the connected components of the k-core, the
// "k-CC" baseline of the paper's effectiveness figures.
func KCoreComponents(g *graph.Graph, k int) []*graph.Graph {
	return kcore.Components(g, k)
}

// CoreNumbers returns the core number of every vertex of g.
func CoreNumbers(g *graph.Graph) []int {
	return kcore.CoreNumbers(g)
}

// KECC returns all k-edge connected components of g, the comparison model
// used in the paper's effectiveness evaluation.
func KECC(g *graph.Graph, k int) []*graph.Graph {
	return kecc.Enumerate(g, k)
}

// EdgeConnectivity returns λ(g), the global edge connectivity.
func EdgeConnectivity(g *graph.Graph) int {
	return kecc.EdgeConnectivity(g)
}
