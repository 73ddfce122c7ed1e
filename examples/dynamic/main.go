// Dynamic graphs: maintain k-VCCs across edits instead of recomputing
// from scratch. The walkthrough builds three separate communities, opens
// a kvcc.Dynamic handle, then (1) densifies the bridge between two of
// them until they merge into one k-VCC, (2) deletes edges until the
// merged component splits again, and (3) grafts a brand-new community
// onto fresh vertices — printing after each batch how many k-core
// components the update reused verbatim versus recomputed.
package main

import (
	"context"
	"fmt"
	"sort"

	"kvcc"
	"kvcc/graph"
)

const k = 4

func main() {
	g := threeCommunities()
	fmt.Printf("base graph: %d vertices, %d edges, k = %d\n", g.NumVertices(), g.NumEdges(), k)

	d, err := kvcc.NewDynamic(g, k)
	if err != nil {
		panic(err)
	}
	show("initial enumeration", d.Result())

	// 1. Insert a dense weave between community A (0..5) and B (10..15).
	// Once at least k independent paths exist the two merge into one
	// 4-VCC; community C (20..25) is untouched and served verbatim.
	weave := [][2]int64{{0, 10}, {1, 11}, {2, 12}, {3, 13}, {4, 14}, {5, 15}}
	res, err := d.ApplyEdits(context.Background(), weave, nil)
	if err != nil {
		panic(err)
	}
	show("after weaving A-B together", res)

	// 2. Cut the weave again: the merged component splits back apart.
	res, err = d.ApplyEdits(context.Background(), nil, weave)
	if err != nil {
		panic(err)
	}
	show("after cutting the weave", res)

	// 3. Graft a brand-new K5 onto labels that never existed: inserts
	// create vertices on first mention.
	var clique [][2]int64
	for i := int64(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			clique = append(clique, [2]int64{100 + i, 100 + j})
		}
	}
	res, err = d.ApplyEdits(context.Background(), clique, nil)
	if err != nil {
		panic(err)
	}
	show("after grafting a new K5", res)

	fmt.Printf("final graph version: %d\n", d.Version())
}

func show(when string, res *kvcc.Result) {
	fmt.Printf("\n%s (version %d): %d components "+
		"(%d k-core components reused, %d recomputed)\n",
		when, res.Version, len(res.Components),
		res.Stats.ComponentsReused, res.Stats.ComponentsRecomputed)
	for i, c := range res.Components {
		labels := append([]int64(nil), c.Labels()...)
		sort.Slice(labels, func(a, b int) bool { return labels[a] < labels[b] })
		fmt.Printf("  %d-VCC %d: %v\n", k, i, labels)
	}
}

// threeCommunities builds three disjoint near-cliques on labels 0..5,
// 10..15 and 20..25 (each missing one internal edge so they are exactly
// 4-connected, not 5-connected).
func threeCommunities() *graph.Graph {
	var edges [][2]int64
	for _, base := range []int64{0, 10, 20} {
		for i := int64(0); i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				if i == 0 && j == 1 {
					continue // drop one edge: exactly 4-connected
				}
				edges = append(edges, [2]int64{base + i, base + j})
			}
		}
	}
	return graph.FromLabeledEdges(edges)
}
