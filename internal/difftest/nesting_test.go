package difftest

import (
	"testing"

	"kvcc/cohesion"
	"kvcc/graph"
)

// TestNesting runs the k-core ⊇ k-ECC ⊇ k-VCC containment oracle over
// the full corpus at every k up to the case's MaxK, serial and parallel.
func TestNesting(t *testing.T) {
	for _, c := range Corpus() {
		t.Run(c.Name, func(t *testing.T) {
			for k := 2; k <= c.MaxK; k++ {
				CheckNesting(t, c.G, k, 0)
				CheckNesting(t, c.G, k, 4)
			}
		})
	}
}

// TestMeasureVariantsAgree runs k-ECC and k-core through the option
// battery: the non-kvcc measures ignore the algorithm and parallelism,
// so every configuration must produce the identical sequence.
func TestMeasureVariantsAgree(t *testing.T) {
	for _, m := range []cohesion.Measure{cohesion.KECC, cohesion.KCore} {
		t.Run(m.String(), func(t *testing.T) {
			for _, c := range Corpus() {
				t.Run(c.Name, func(t *testing.T) {
					for k := 2; k <= c.MaxK; k++ {
						CheckMeasureVariantsAgree(t, c.G, k, m)
					}
				})
			}
		})
	}
}

// TestMeasureHierarchy diffs the measure-parametric incremental
// hierarchy build against direct per-level enumeration for the two new
// measures (the kvcc build is covered by TestHierarchyMatchesEnumeration).
func TestMeasureHierarchy(t *testing.T) {
	for _, m := range []cohesion.Measure{cohesion.KECC, cohesion.KCore} {
		t.Run(m.String(), func(t *testing.T) {
			for _, c := range Corpus() {
				t.Run(c.Name, func(t *testing.T) {
					CheckMeasureHierarchy(t, c.G, m)
				})
			}
		})
	}
}

// nestingFuzzGraph decodes a byte string into a small graph: the first
// byte picks the vertex count (2..13), every following pair of bytes is
// one edge. Self-loops and duplicates are dropped by the builder, so
// every input is valid.
func nestingFuzzGraph(data []byte) *graph.Graph {
	if len(data) == 0 {
		return graph.FromEdges(2, nil)
	}
	n := 2 + int(data[0])%12
	var edges [][2]int
	for i := 1; i+1 < len(data); i += 2 {
		edges = append(edges, [2]int{int(data[i]) % n, int(data[i+1]) % n})
	}
	return graph.FromEdges(n, edges)
}

// FuzzNesting checks the containment chain k-core ⊇ k-ECC ⊇ k-VCC on
// arbitrary small graphs at k = 2..4 — the nesting property has no
// corpus blind spots this way.
func FuzzNesting(f *testing.F) {
	f.Add([]byte{7, 0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 2})       // triangles sharing vertices
	f.Add([]byte{5, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 3, 4})       // star plus chords
	f.Add([]byte{9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0}) // cycle
	f.Add([]byte{4, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})       // K4
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := nestingFuzzGraph(data)
		for k := 2; k <= 4; k++ {
			CheckNesting(t, g, k, 0)
		}
	})
}
