package hierarchy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"kvcc/cohesion"
	"kvcc/graph"
	"kvcc/internal/core"
)

// Node is one component of the hierarchy: a k-VCC at level K and the
// (K+1)-VCCs nested inside it.
type Node struct {
	// K is the connectivity level (the component is a K-VCC).
	K int
	// Component is the subgraph, with vertex labels from the input graph.
	Component *graph.Graph
	// Children are the (K+1)-VCCs contained in this component, in the
	// canonical enumeration order (largest first, ties by labels).
	Children []*Node
	// Parent is the (K-1)-VCC this component nests in (nil for roots).
	Parent *Node
}

// Tree is the full hierarchy: an index of every k-VCC for every k.
//
// A Tree is immutable once Build returns; all query methods are safe for
// concurrent use.
type Tree struct {
	// Roots are the 1-VCCs: connected components with at least two
	// vertices, in canonical order.
	Roots []*Node
	// MaxK is the deepest level with at least one component. The build
	// runs until a level comes up empty, so every level past MaxK is
	// empty and Level(k) is exact for every k.
	MaxK int
	// Measure is the cohesion measure the tree indexes. The zero value is
	// cohesion.KVCC, so trees built (or persisted) before the measure
	// existed read back as k-VCC hierarchies.
	Measure cohesion.Measure
	// Stats describes the enumeration work performed by Build.
	Stats Stats

	// levels[k-1] holds the level-k nodes in canonical order; byLabel maps
	// a vertex label to every node containing it, shallowest level first.
	levels  [][]*Node
	byLabel map[int64][]*Node
}

// LevelStats describes the enumeration work at one level of the build.
type LevelStats struct {
	// K is the level the work produced.
	K int `json:"k"`
	// Components is the number of K-VCCs found.
	Components int `json:"components"`
	// EnumeratedVertices is the total vertex count of the subgraphs
	// enumerated to produce this level. For the incremental build this is
	// the total size of the (K-1)-VCCs, not the size of the input graph.
	EnumeratedVertices int64 `json:"enumerated_vertices"`
	// Core aggregates the core enumeration counters for this level.
	Core core.Stats `json:"core"`
}

// Stats describes the total work performed by Build. The headline number
// is EnumeratedVertices: the incremental build enumerates level k+1 only
// inside each level-k component (nesting property, Lemma 1 of the paper),
// so the total is strictly below the per-level-from-scratch baseline of
// levels x |V| whenever the hierarchy narrows.
type Stats struct {
	// Levels is the number of levels enumeration ran at, including the
	// final level that came up empty.
	Levels int `json:"levels"`
	// EnumeratedVertices sums, over every core.Enumerate call the build
	// made, the vertex count of the subgraph passed in.
	EnumeratedVertices int64 `json:"enumerated_vertices"`
	// PerLevel breaks the work down by level.
	PerLevel []LevelStats `json:"per_level"`
	// Core aggregates the core enumeration counters across all levels.
	Core core.Stats `json:"core"`
}

// Options configures Build.
type Options struct {
	// Measure selects the cohesion measure the hierarchy indexes (default
	// cohesion.KVCC). The incremental nested build is valid for every
	// measure: k-cores, k-ECCs and k-VCCs all nest level-over-level, so
	// level k+1 is always found inside the level-k components.
	Measure cohesion.Measure
	// Algorithm selects the enumeration variant. The zero value is the
	// basic core.VCCE; pass core.VCCEStar for the swept variant, as
	// kvcc.BuildHierarchy and the server's index builds do.
	Algorithm core.Algorithm
	// Parallelism enumerates sibling components of one level with this
	// many workers (values below 1 mean one). The result does not depend
	// on it because siblings are independent subproblems and each level
	// is re-canonicalized.
	Parallelism int
}

// Build computes the cohesion hierarchy of g in one incremental pass:
// level 1 is enumerated from g, and every level k+1 is enumerated only
// inside each level-k component's subgraph. By the nesting property every
// (k+1)-VCC lies inside some k-VCC, so the result is identical to
// enumerating each level from scratch while touching far fewer vertices.
func Build(g *graph.Graph, opts Options) (*Tree, error) {
	return BuildContext(context.Background(), g, opts)
}

// BuildContext is Build with cancellation: the per-level enumerations
// check ctx and the build returns ctx.Err() once the running level
// finishes cancelling.
func BuildContext(ctx context.Context, g *graph.Graph, opts Options) (*Tree, error) {
	if g == nil {
		return nil, errors.New("hierarchy: nil graph")
	}
	coreOpts := core.Options{Algorithm: opts.Algorithm}

	tree := &Tree{Measure: opts.Measure}
	frontier := []*Node{{Component: g}} // pseudo-parent for level 1
	// The loop ends at the first empty level: κ of any component is
	// bounded by its degeneracy.
	for k := 1; len(frontier) > 0; k++ {
		next, lvl, err := buildLevel(ctx, frontier, k, opts.Measure, coreOpts, opts.Parallelism)
		if err != nil {
			return nil, err
		}
		tree.Stats.Levels++
		tree.Stats.EnumeratedVertices += lvl.EnumeratedVertices
		tree.Stats.PerLevel = append(tree.Stats.PerLevel, lvl)
		tree.Stats.Core.Add(&lvl.Core)
		if len(next) == 0 {
			break
		}
		tree.MaxK = k
		if k == 1 {
			tree.Roots = next
		}
		tree.levels = append(tree.levels, next)
		frontier = next
	}
	tree.buildLabelIndex()
	return tree, nil
}

// buildLevel enumerates the level-k components of the chosen measure
// inside every frontier component, with up to workers siblings at a time,
// and returns the new level in canonical order with parent/child links
// installed.
func buildLevel(ctx context.Context, frontier []*Node, k int, m cohesion.Measure, coreOpts core.Options, workers int) ([]*Node, LevelStats, error) {
	lvl := LevelStats{K: k}
	type result struct {
		comps []*graph.Graph
		stats *core.Stats
		err   error
	}
	results := make([]result, len(frontier))

	workers = min(max(workers, 1), len(frontier))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				comps, st, err := cohesion.EnumerateContext(ctx, frontier[i].Component, k, m, coreOpts)
				results[i] = result{comps, st, err}
			}
		}()
	}
	for i := range frontier {
		work <- i
	}
	close(work)
	wg.Wait()

	var level []*Node
	for i, parent := range frontier {
		r := results[i]
		if r.err != nil {
			return nil, lvl, r.err
		}
		lvl.EnumeratedVertices += int64(parent.Component.NumVertices())
		lvl.Core.Add(r.stats)
		for _, c := range r.comps {
			child := &Node{K: k, Component: c}
			if k > 1 { // level 1's pseudo-parent is not part of the tree
				child.Parent = parent
				parent.Children = append(parent.Children, child)
			}
			level = append(level, child)
		}
	}
	sortNodes(level)
	lvl.Components = len(level)
	return level, lvl, nil
}

// sortNodes puts nodes in the canonical component order of
// core.SortComponents: largest first, ties by sorted label sequence.
func sortNodes(nodes []*Node) {
	keys := make([][]int64, len(nodes))
	for i, n := range nodes {
		keys[i] = core.SortedLabels(n.Component)
	}
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return core.LabelsLess(keys[order[i]], keys[order[j]])
	})
	sorted := make([]*Node, len(nodes))
	for i, idx := range order {
		sorted[i] = nodes[idx]
	}
	copy(nodes, sorted)
}

// buildLabelIndex materializes the label → nodes map that makes Cohesion
// and Path O(nodes containing the label) instead of O(V x levels).
func (t *Tree) buildLabelIndex() {
	t.byLabel = make(map[int64][]*Node)
	for _, level := range t.levels {
		for _, n := range level {
			for _, l := range n.Component.Labels() {
				t.byLabel[l] = append(t.byLabel[l], n)
			}
		}
	}
}

// Level returns all components at level k in canonical order (largest
// first, ties by labels) — the same order core.Enumerate returns. The
// returned slice is freshly allocated; the nodes are shared with the tree.
func (t *Tree) Level(k int) []*Node {
	if k < 1 || k > len(t.levels) {
		return nil
	}
	return append([]*Node(nil), t.levels[k-1]...)
}

// LevelComponents returns the component subgraphs at level k in canonical
// order; the result is exactly what core.Enumerate(g, k) would return.
// Beyond MaxK it returns nil, which is exact: levels past MaxK are empty.
func (t *Tree) LevelComponents(k int) []*graph.Graph {
	if k < 1 || k > len(t.levels) {
		return nil
	}
	comps := make([]*graph.Graph, len(t.levels[k-1]))
	for i, n := range t.levels[k-1] {
		comps[i] = n.Component
	}
	return comps
}

// Cohesion returns the structural cohesion of a vertex: the deepest level
// k at which some k-VCC contains the label, or 0 if the vertex is in no
// component (isolated or absent). It is a single map lookup.
func (t *Tree) Cohesion(label int64) int {
	nodes := t.byLabel[label]
	if len(nodes) == 0 {
		return 0
	}
	return nodes[len(nodes)-1].K // byLabel is ordered shallowest first
}

// Path returns the chain of components containing the label, one per
// level, from level 1 down to the vertex's cohesion level — the chain
// always reaches that level. When the vertex sits in several k-VCCs at
// its cohesion level the first (largest) one is chosen and the chain is
// that component's ancestor line. (A greedy top-down walk would not do:
// descending into the largest component at every level can strand the
// path in a branch whose sub-hierarchy ends above the vertex's true
// cohesion.)
func (t *Tree) Path(label int64) []*Node {
	nodes := t.byLabel[label]
	if len(nodes) == 0 {
		return nil
	}
	// byLabel is ordered shallowest level first and canonically within a
	// level, so the first node at the deepest level is the canonical pick.
	deepest := nodes[len(nodes)-1]
	for i := len(nodes) - 2; i >= 0 && nodes[i].K == deepest.K; i-- {
		deepest = nodes[i]
	}
	path := make([]*Node, deepest.K)
	for n := deepest; n != nil; n = n.Parent {
		path[n.K-1] = n
	}
	return path
}

// Size returns the total number of components in the hierarchy.
func (t *Tree) Size() int {
	count := 0
	for _, level := range t.levels {
		count += len(level)
	}
	return count
}

// Write renders the hierarchy as an indented outline.
func (t *Tree) Write(w io.Writer) error {
	var walk func(n *Node, depth int) error
	walk = func(n *Node, depth int) error {
		_, err := fmt.Fprintf(w, "%s%d-VCC: %d vertices, %d edges\n",
			strings.Repeat("  ", depth), n.K,
			n.Component.NumVertices(), n.Component.NumEdges())
		if err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range t.Roots {
		if err := walk(r, 0); err != nil {
			return err
		}
	}
	return nil
}
