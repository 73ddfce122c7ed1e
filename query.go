package kvcc

import (
	"kvcc/graph"
	"kvcc/internal/core"
	"kvcc/internal/kcore"
)

// EnumerateContaining computes only the k-VCCs that contain at least one
// of the given vertex labels — the workflow of the paper's case study
// ("query all 4-VCCs containing an author"). It prunes to the k-core
// first and enumerates only the connected components that still hold a
// queried label, so the cost is local to the queried region rather than
// the whole graph.
func EnumerateContaining(g *graph.Graph, k int, labels []int64, opts ...Option) (*Result, error) {
	options := core.Options{Algorithm: core.VCCEStar}
	for _, opt := range opts {
		opt(&options)
	}
	wanted := make(map[int64]bool, len(labels))
	for _, l := range labels {
		wanted[l] = true
	}

	reduced, _ := kcore.Reduce(g, k)
	var all []*graph.Graph
	stats := Stats{}
	for _, comp := range reduced.ConnectedComponents() {
		relevant := false
		for _, v := range comp {
			if wanted[reduced.Label(v)] {
				relevant = true
				break
			}
		}
		if !relevant {
			continue
		}
		comps, st, err := core.Enumerate(reduced.InducedSubgraph(comp), k, options)
		if err != nil {
			return nil, err
		}
		all = append(all, comps...)
		stats = addStats(stats, *st)
	}

	res := &Result{K: k, Stats: stats}
	for _, c := range all {
		for _, l := range c.Labels() {
			if wanted[l] {
				res.Components = append(res.Components, c)
				break
			}
		}
	}
	return res, nil
}

func addStats(a, b Stats) Stats {
	a.Add(&b)
	return a
}

// OverlapGraph returns the meta-graph of the result: one vertex per
// component (labeled by component index) and an edge between every pair
// of components that share at least one vertex. This is the structure the
// paper's Fig. 14 visualizes: research groups joined through shared core
// authors.
func (r *Result) OverlapGraph() *graph.Graph {
	m := r.OverlapMatrix()
	var edges [][2]int
	for i := range m {
		for j := i + 1; j < len(m); j++ {
			if m[i][j] > 0 {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return graph.FromEdges(len(r.Components), edges)
}
