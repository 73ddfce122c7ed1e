package graphio

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"kvcc/graph"
)

// referencePairs parses an edge list the slow, obvious way, sharing no
// code with the loaders: split lines, split fields on ASCII whitespace,
// skip blank and #-comment lines, and strconv the first two fields. ok is
// false for input the format rejects.
func referencePairs(text string) (pairs [][2]int64, ok bool) {
	for _, line := range strings.Split(text, "\n") {
		fields := strings.FieldsFunc(line, func(r rune) bool { return strings.ContainsRune(" \t\r\n\v\f", r) })
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 2 {
			return nil, false
		}
		u, err1 := strconv.ParseInt(fields[0], 10, 64)
		v, err2 := strconv.ParseInt(fields[1], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, false
		}
		pairs = append(pairs, [2]int64{u, v})
	}
	return pairs, true
}

// refGraph is the test-only reference for ingest: labels interned into a
// map in first-mention order (a self-loop interns nothing) and each
// vertex's neighbour set, sorted.
type refGraph struct {
	labels []int64
	adj    [][]int
}

func referenceGraph(pairs [][2]int64) refGraph {
	ids := map[int64]int{}
	var sets []map[int]bool
	var ref refGraph
	intern := func(l int64) int {
		if _, ok := ids[l]; !ok {
			ids[l] = len(ref.labels)
			ref.labels = append(ref.labels, l)
			sets = append(sets, map[int]bool{})
		}
		return ids[l]
	}
	for _, p := range pairs {
		if p[0] != p[1] {
			u, v := intern(p[0]), intern(p[1])
			sets[u][v], sets[v][u] = true, true
		}
	}
	ref.adj = make([][]int, len(sets))
	for v, set := range sets {
		for w := range set {
			ref.adj[v] = append(ref.adj[v], w)
		}
		slices.Sort(ref.adj[v])
	}
	return ref
}

// diffReference reports the first difference between g and the
// reference: vertex count, a label, a run or the edge count.
func diffReference(g *graph.Graph, ref refGraph) error {
	if g.NumVertices() != len(ref.labels) {
		return fmt.Errorf("n = %d, reference %d", g.NumVertices(), len(ref.labels))
	}
	entries := 0
	for v, l := range ref.labels {
		if g.Label(v) != l {
			return fmt.Errorf("label of %d is %d, reference %d", v, g.Label(v), l)
		}
		if !slices.Equal(g.Neighbors(v), ref.adj[v]) {
			return fmt.Errorf("run of %d is %v, reference %v", v, g.Neighbors(v), ref.adj[v])
		}
		entries += len(ref.adj[v])
	}
	if g.NumEdges() != entries/2 {
		return fmt.Errorf("m = %d, reference %d", g.NumEdges(), entries/2)
	}
	return nil
}

// randomEdgeList draws a multigraph over a random label pool, with
// duplicates in both orientations and self-loops, and renders it as an
// edge list with mixed separators, CRLF endings, extra fields, comments
// and blank lines.
func randomEdgeList(rng *rand.Rand) (pairs [][2]int64, text string) {
	pool := make([]int64, 1+rng.Intn(80))
	for i := range pool {
		pool[i] = rng.Int63n(1<<40) - 1<<39
	}
	if rng.Intn(4) == 0 {
		pool = append(pool, math.MaxInt64, math.MinInt64)
	}
	pairs = make([][2]int64, rng.Intn(400))
	for i := range pairs {
		u, v := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		switch rng.Intn(8) {
		case 0:
			v = u // self-loop
		case 1:
			if i > 0 {
				u, v = pairs[i-1][1], pairs[i-1][0] // duplicate, reversed
			}
		case 2:
			if i > 0 {
				u, v = pairs[i-1][0], pairs[i-1][1] // duplicate
			}
		}
		pairs[i] = [2]int64{u, v}
	}
	seps := []string{" ", "\t", "  ", " \t"}
	var sb strings.Builder
	for _, p := range pairs {
		switch rng.Intn(10) {
		case 0:
			sb.WriteString("# comment 1 2\n")
		case 1:
			sb.WriteString("\n")
		}
		fmt.Fprintf(&sb, "%d%s%d", p[0], seps[rng.Intn(len(seps))], p[1])
		if rng.Intn(6) == 0 {
			sb.WriteString(" 99 extra")
		}
		if rng.Intn(5) == 0 {
			sb.WriteString("\r")
		}
		sb.WriteString("\n")
	}
	return pairs, sb.String()
}

// TestConstructorsMatchReference diffs every CSR constructor, exactly
// (labels and runs), against the reference on seeded random multigraphs:
// FromEdges, FromLabeledEdges, a hand-driven CSRBuilder, ReadEdgeList and
// StreamEdgeList.
func TestConstructorsMatchReference(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pairs, text := randomEdgeList(rng)
		parsed, ok := referencePairs(text)
		if !ok || !slices.Equal(parsed, pairs) {
			t.Fatalf("seed %d: reference parse of the rendered list diverged (ok=%v)", seed, ok)
		}
		ref := referenceGraph(pairs)

		// FromEdges takes vertex ids: number the labels as the reference
		// did. A label seen only in self-loops has no vertex, so its
		// self-loops are left out.
		ids := map[int64]int{}
		idRef := refGraph{labels: make([]int64, len(ref.labels)), adj: ref.adj}
		for v, l := range ref.labels {
			ids[l] = v
			idRef.labels[v] = int64(v)
		}
		var idPairs [][2]int
		for _, p := range pairs {
			u, uok := ids[p[0]]
			v, vok := ids[p[1]]
			if uok && vok {
				idPairs = append(idPairs, [2]int{u, v})
			}
		}

		builders := []struct {
			name  string
			build func() (*graph.Graph, error)
			want  refGraph
		}{
			{"FromEdges", func() (*graph.Graph, error) { return graph.FromEdges(len(ref.labels), idPairs), nil }, idRef},
			{"FromLabeledEdges", func() (*graph.Graph, error) { return graph.FromLabeledEdges(pairs), nil }, ref},
			{"CSRBuilder", func() (*graph.Graph, error) {
				b := graph.NewCSRBuilder()
				for _, p := range pairs {
					b.CountEdge(p[0], p[1])
				}
				b.BeginPlacement()
				for _, p := range pairs {
					if err := b.PlaceEdge(p[0], p[1]); err != nil {
						return nil, err
					}
				}
				return b.Build()
			}, ref},
			{"ReadEdgeList", func() (*graph.Graph, error) { return ReadEdgeList(strings.NewReader(text)) }, ref},
			{"StreamEdgeList", func() (*graph.Graph, error) { return StreamEdgeList(strings.NewReader(text)) }, ref},
		}
		for _, b := range builders {
			g, err := b.build()
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, b.name, err)
			}
			if err := diffReference(g, b.want); err != nil {
				t.Fatalf("seed %d: %s differs from the reference: %v", seed, b.name, err)
			}
			if err := graph.ValidateCSR(g); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, b.name, err)
			}
		}
	}
}
