package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// modelGraph is a naive adjacency-set reference the Delta is diffed
// against: labels in first-mention order, edges as a set of label pairs.
type modelGraph struct {
	labels []int64
	index  map[int64]int
	edges  map[[2]int64]bool
}

func newModel(base *Graph) *modelGraph {
	m := &modelGraph{index: map[int64]int{}, edges: map[[2]int64]bool{}}
	for _, l := range base.Labels() {
		m.addVertex(l)
	}
	for _, e := range base.Edges(nil) {
		m.edges[labelKey(base.Label(e[0]), base.Label(e[1]))] = true
	}
	return m
}

func labelKey(a, b int64) [2]int64 {
	if a > b {
		a, b = b, a
	}
	return [2]int64{a, b}
}

func (m *modelGraph) addVertex(l int64) {
	if _, ok := m.index[l]; !ok {
		m.index[l] = len(m.labels)
		m.labels = append(m.labels, l)
	}
}

func (m *modelGraph) insert(a, b int64) bool {
	if a == b {
		return false
	}
	_, hadA := m.index[a]
	_, hadB := m.index[b]
	m.addVertex(a)
	m.addVertex(b)
	key := labelKey(a, b)
	if m.edges[key] {
		return !hadA || !hadB
	}
	m.edges[key] = true
	return true
}

func (m *modelGraph) delete(a, b int64) bool {
	key := labelKey(a, b)
	if !m.edges[key] {
		return false
	}
	delete(m.edges, key)
	return true
}

// checkAgainstModel verifies every read of the overlay against the model.
func checkAgainstModel(t *testing.T, d *Delta, m *modelGraph) {
	t.Helper()
	if d.NumVertices() != len(m.labels) {
		t.Fatalf("NumVertices = %d, model has %d", d.NumVertices(), len(m.labels))
	}
	if d.NumEdges() != len(m.edges) {
		t.Fatalf("NumEdges = %d, model has %d", d.NumEdges(), len(m.edges))
	}
	for v, l := range m.labels {
		if d.Label(v) != l {
			t.Fatalf("Label(%d) = %d, model says %d", v, d.Label(v), l)
		}
		if d.IndexOfLabel(l) != v {
			t.Fatalf("IndexOfLabel(%d) = %d, want %d", l, d.IndexOfLabel(l), v)
		}
	}
	for v := range m.labels {
		var wantAdj []int
		wantDeg := 0
		for w, lw := range m.labels {
			if v == w {
				continue
			}
			has := m.edges[labelKey(m.labels[v], lw)]
			if has != d.HasEdge(v, w) {
				t.Fatalf("HasEdge(%d,%d) = %v, model says %v", v, w, d.HasEdge(v, w), has)
			}
			if has {
				wantAdj = append(wantAdj, w)
				wantDeg++
			}
		}
		if got := d.Degree(v); got != wantDeg {
			t.Fatalf("Degree(%d) = %d, want %d", v, got, wantDeg)
		}
		got := d.Neighbors(v)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, wantAdj) {
			t.Fatalf("Neighbors(%d) = %v, want %v", v, got, wantAdj)
		}
	}
}

func TestDeltaRandomEditsMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := GNPForTest(14, 0.3, rng)
	d := NewDelta(base)
	m := newModel(base)
	checkAgainstModel(t, d, m)

	lastVersion := d.Version()
	for step := 0; step < 400; step++ {
		a := int64(rng.Intn(20))
		b := int64(rng.Intn(20))
		var changedD, changedM bool
		if rng.Intn(2) == 0 {
			changedD = d.InsertEdge(a, b)
			changedM = m.insert(a, b)
		} else {
			changedD = d.DeleteEdge(a, b)
			changedM = m.delete(a, b)
		}
		if changedD != changedM {
			t.Fatalf("step %d: delta changed=%v, model changed=%v", step, changedD, changedM)
		}
		if v := d.Version(); changedD && v <= lastVersion {
			t.Fatalf("step %d: version did not increase on a change (%d -> %d)", step, lastVersion, v)
		} else if !changedD && v != lastVersion {
			t.Fatalf("step %d: version moved on a no-op (%d -> %d)", step, lastVersion, v)
		}
		lastVersion = d.Version()
		if step%37 == 0 {
			checkAgainstModel(t, d, m)
		}
		if step%83 == 0 {
			g := d.Compact()
			checkCompactMatchesModel(t, g, m)
			checkAgainstModel(t, d, m) // reads must survive the rebase
		}
	}
	checkAgainstModel(t, d, m)
	checkCompactMatchesModel(t, d.Compact(), m)
}

// GNPForTest builds a small random graph with labels 0..n-1.
func GNPForTest(n int, p float64, rng *rand.Rand) *Graph {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return FromEdges(n, edges)
}

func checkCompactMatchesModel(t *testing.T, g *Graph, m *modelGraph) {
	t.Helper()
	if g.NumVertices() != len(m.labels) {
		t.Fatalf("compact: NumVertices = %d, want %d", g.NumVertices(), len(m.labels))
	}
	if g.NumEdges() != len(m.edges) {
		t.Fatalf("compact: NumEdges = %d, want %d", g.NumEdges(), len(m.edges))
	}
	got := map[[2]int64]bool{}
	for _, e := range g.Edges(nil) {
		got[labelKey(g.Label(e[0]), g.Label(e[1]))] = true
	}
	if !reflect.DeepEqual(got, m.edges) {
		t.Fatalf("compact: edge set %v, want %v", got, m.edges)
	}
	// CSR invariants: sorted runs, no self-loops or duplicates.
	for v := 0; v < g.NumVertices(); v++ {
		run := g.Neighbors(v)
		for i, w := range run {
			if w == v {
				t.Fatalf("compact: self-loop at %d", v)
			}
			if i > 0 && run[i-1] >= w {
				t.Fatalf("compact: run of %d not strictly ascending: %v", v, run)
			}
		}
	}
}

func TestDeltaCompactIdentityWhenClean(t *testing.T) {
	base := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	d := NewDelta(base)
	if d.Compact() != base {
		t.Fatal("clean overlay must compact to its base")
	}
	if !d.InsertEdge(0, 2) {
		t.Fatal("insert of a missing edge must report a change")
	}
	g1 := d.Compact()
	if g1 == base {
		t.Fatal("compact after a mutation must rebuild")
	}
	if g2 := d.Compact(); g2 != g1 {
		t.Fatal("compact without an intervening mutation must be cached")
	}
	if ins, del := d.Pending(); ins != 0 || del != 0 {
		t.Fatalf("compact must drain pending edits, got %d/%d", ins, del)
	}
}

func TestDeltaCancelAndRestore(t *testing.T) {
	base := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	d := NewDelta(base)

	// Deleting a pending insert cancels it entirely.
	if !d.InsertEdge(0, 2) || !d.DeleteEdge(0, 2) {
		t.Fatal("insert+delete of a new edge must both be changes")
	}
	if ins, del := d.Pending(); ins != 0 || del != 0 {
		t.Fatalf("cancelled insert left pending edits %d/%d", ins, del)
	}
	if d.HasEdge(0, 2) {
		t.Fatal("cancelled insert still visible")
	}

	// Re-inserting a deleted base edge restores it.
	if !d.DeleteEdge(0, 1) || !d.InsertEdge(0, 1) {
		t.Fatal("delete+insert of a base edge must both be changes")
	}
	if ins, del := d.Pending(); ins != 0 || del != 0 {
		t.Fatalf("restored base edge left pending edits %d/%d", ins, del)
	}
	if !d.HasEdge(0, 1) {
		t.Fatal("restored base edge missing")
	}
	if d.NumEdges() != base.NumEdges() {
		t.Fatalf("edge count drifted: %d vs %d", d.NumEdges(), base.NumEdges())
	}
}

func TestDeltaNewVertices(t *testing.T) {
	base := FromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	d := NewDelta(base)
	v, added := d.AddVertex(99)
	if !added || v != 3 {
		t.Fatalf("AddVertex(99) = (%d,%v), want (3,true)", v, added)
	}
	if _, added := d.AddVertex(99); added {
		t.Fatal("re-adding a vertex must be a no-op")
	}
	if !d.InsertEdge(99, 0) || !d.InsertEdge(99, 100) {
		t.Fatal("edges on new vertices must insert")
	}
	if d.Degree(3) != 2 {
		t.Fatalf("Degree(new) = %d, want 2", d.Degree(3))
	}
	g := d.Compact()
	if g.NumVertices() != 5 || g.NumEdges() != 5 {
		t.Fatalf("compacted to n=%d m=%d, want n=5 m=5", g.NumVertices(), g.NumEdges())
	}
	if g.Label(3) != 99 || g.Label(4) != 100 {
		t.Fatalf("appended labels = %d,%d, want 99,100", g.Label(3), g.Label(4))
	}
	if !g.HasEdge(3, 0) || !g.HasEdge(3, 4) {
		t.Fatal("compacted graph missing inserted edges")
	}
}
