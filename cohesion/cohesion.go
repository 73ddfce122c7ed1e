// Package cohesion unifies the repository's three cohesion measures —
// k-core, k-edge connected components and k-vertex connected components —
// behind one measure-parametric enumeration entry point.
//
// The three measures nest (Whitney's theorem: κ(G) <= λ(G) <= δ(G)): every
// k-VCC lies inside a k-ECC, and every k-ECC inside a connected component
// of the k-core. All three engines honor the same component contract:
// results are induced subgraphs with labels preserved, returned in the
// canonical core.SortComponents order (largest first, ties by sorted label
// sequence), with context cancellation and a shared Stats report. That
// shared contract is what lets one hierarchy index, one cache and one
// serving ladder work for any measure.
package cohesion

import (
	"context"
	"fmt"
	"strings"

	"kvcc/graph"
	"kvcc/internal/core"
	"kvcc/internal/kcore"
	"kvcc/internal/kecc"
)

// Measure selects the cohesion measure to enumerate. The zero value is
// KVCC so that every existing k-VCC code path — cache keys, singleflight
// keys, persisted index headers, wire requests that omit the field — keeps
// its exact pre-refactor behavior.
type Measure uint8

const (
	// KVCC enumerates k-vertex connected components (vertex cuts,
	// overlapping components) — the paper's subject.
	KVCC Measure = iota
	// KECC enumerates k-edge connected components (edge cuts, disjoint
	// partitions).
	KECC
	// KCore enumerates the connected components of the k-core (degree
	// threshold, disjoint partitions).
	KCore
)

// String returns the lowercase wire name of the measure.
func (m Measure) String() string {
	switch m {
	case KVCC:
		return "kvcc"
	case KECC:
		return "kecc"
	case KCore:
		return "kcore"
	default:
		return fmt.Sprintf("measure(%d)", uint8(m))
	}
}

// ParseMeasure maps a wire name to a Measure. The empty string parses as
// KVCC so requests that omit the field keep their old meaning.
func ParseMeasure(name string) (Measure, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "kvcc", "k-vcc", "vcc":
		return KVCC, nil
	case "kecc", "k-ecc", "ecc":
		return KECC, nil
	case "kcore", "k-core", "core":
		return KCore, nil
	default:
		return KVCC, fmt.Errorf("unknown cohesion measure %q (want kvcc, kecc or kcore)", name)
	}
}

// Measures lists the defined measures from weakest to strongest
// (k-core ⊇ k-ECC ⊇ k-VCC).
func Measures() []Measure { return []Measure{KCore, KECC, KVCC} }

// Options re-exports the engine options. Only KVCC consults them
// (Algorithm, Parallelism); the other measures accept and ignore them, so
// one option set can drive any measure.
type Options = core.Options

// Stats re-exports the shared work report.
type Stats = core.Stats

// Enumerate computes all components of g under measure m for the given k.
// See EnumerateContext.
func Enumerate(g *graph.Graph, k int, m Measure, opts Options) ([]*graph.Graph, *Stats, error) {
	return EnumerateContext(context.Background(), g, k, m, opts)
}

// EnumerateContext enumerates the measure-m components of g (k >= 1):
// k-VCCs, k-ECCs, or connected components of the k-core. Results preserve
// vertex labels and are returned in the canonical core.SortComponents
// order; cancellation returns ctx.Err() and discards partial results.
func EnumerateContext(ctx context.Context, g *graph.Graph, k int, m Measure, opts Options) ([]*graph.Graph, *Stats, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("cohesion: k must be >= 1, got %d", k)
	}
	switch m {
	case KVCC:
		return core.EnumerateContext(ctx, g, k, opts)
	case KECC:
		return kecc.EnumerateContext(ctx, g, k)
	case KCore:
		return enumerateKCore(ctx, g, k)
	default:
		return nil, nil, fmt.Errorf("cohesion: unknown measure %d", uint8(m))
	}
}

// enumerateKCore returns the connected components of the k-core of g with
// more than one vertex, in canonical order. For k >= 1 every such
// component has at least k+1 vertices (each vertex keeps degree >= k), so
// no further size filter is needed; singleton components cannot appear
// because a degree->=1 vertex has a neighbor.
func enumerateKCore(ctx context.Context, g *graph.Graph, k int) ([]*graph.Graph, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	stats := &Stats{}
	cored, peeled := kcore.Reduce(g, k)
	stats.KCorePeeled = int64(peeled)
	if cored.NumVertices() == 0 {
		return nil, stats, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var out []*graph.Graph
	for _, comp := range cored.ConnectedComponents() {
		if len(comp) <= 1 {
			continue
		}
		out = append(out, cored.InducedSubgraph(comp))
	}
	core.SortComponents(out)
	return out, stats, nil
}
