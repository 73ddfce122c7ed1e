package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// compactOp is one step of a per-batch compaction script. The model test
// writes scripts directly; FuzzDeltaCompact decodes them from bytes. Both
// run them through runCompactScript, so they share every check.
type compactOp struct {
	kind opKind
	a, b int64
	// mustChange marks an edit the script relies on being effective (a
	// scripted case that silently became a no-op would test nothing).
	mustChange bool
}

type opKind byte

const (
	opInsert     opKind = iota // insert the edge between labels a and b
	opDelete                   // delete the edge between labels a and b
	opDeleteBase               // delete base vertex a%n's (b%deg)-th base edge
	opAddVertex                // add the vertex labelled a, with no edge
	opCompact                  // check the merged runs, compact, check the CSR
	numOpKinds
)

// runCompactScript applies ops to a Delta over base and to an independent
// modelGraph in lockstep, compacting at every opCompact and once at the
// end. Before each compaction every MergedNeighbors run must equal the
// model's adjacency; after it the compacted offsets, edges and labels
// must equal a CSR built from the model.
func runCompactScript(t *testing.T, base *Graph, ops []compactOp) {
	t.Helper()
	d := NewDelta(base)
	m := newModel(base)
	g := base // the Delta's current base, for opDeleteBase
	compact := func() {
		checkMergedRuns(t, d, m)
		g = d.Compact()
		checkCompactCSR(t, g, m)
	}
	for i, op := range ops {
		var changedD, changedM bool
		switch op.kind {
		case opInsert:
			changedD, changedM = d.InsertEdge(op.a, op.b), m.insert(op.a, op.b)
		case opDelete:
			changedD, changedM = d.DeleteEdge(op.a, op.b), m.delete(op.a, op.b)
		case opDeleteBase:
			n := int64(g.NumVertices())
			if n == 0 {
				break
			}
			u := int(op.a % n)
			run := g.Neighbors(u)
			if len(run) == 0 {
				break
			}
			lu, lw := g.Label(u), g.Label(run[op.b%int64(len(run))])
			changedD, changedM = d.DeleteEdge(lu, lw), m.delete(lu, lw)
		case opAddVertex:
			_, had := m.index[op.a]
			m.addVertex(op.a)
			_, changedD = d.AddVertex(op.a)
			changedM = !had
		case opCompact:
			compact()
			continue
		}
		if changedD != changedM {
			t.Fatalf("op %d %+v: delta changed=%v, model changed=%v", i, op, changedD, changedM)
		}
		if op.mustChange && !changedD {
			t.Fatalf("op %d %+v: scripted edit was a no-op", i, op)
		}
	}
	compact()
}

// modelAdjacency returns the model's sorted adjacency lists by vertex id.
func modelAdjacency(m *modelGraph) [][]int {
	adj := make([][]int, len(m.labels))
	for e := range m.edges {
		u, v := m.index[e[0]], m.index[e[1]]
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for _, run := range adj {
		slices.Sort(run)
	}
	return adj
}

// checkMergedRuns diffs every vertex's MergedNeighbors run (through one
// reused buffer, as the spill stream reads it) against the model.
func checkMergedRuns(t *testing.T, d *Delta, m *modelGraph) {
	t.Helper()
	if d.NumVertices() != len(m.labels) {
		t.Fatalf("NumVertices = %d, model has %d", d.NumVertices(), len(m.labels))
	}
	var buf []int
	for v, want := range modelAdjacency(m) {
		buf = d.MergedNeighbors(v, buf)
		if !slices.Equal(buf, want) {
			t.Fatalf("MergedNeighbors(%d) = %v, model says %v", v, buf, want)
		}
		if d.Degree(v) != len(want) {
			t.Fatalf("Degree(%d) = %d, model says %d", v, d.Degree(v), len(want))
		}
	}
}

// checkCompactCSR compares g's CSR arrays exactly against the model's.
func checkCompactCSR(t *testing.T, g *Graph, m *modelGraph) {
	t.Helper()
	adj := modelAdjacency(m)
	offsets := make([]int, 1, len(adj)+1)
	var edges []int
	for _, run := range adj {
		edges = append(edges, run...)
		offsets = append(offsets, len(edges))
	}
	gotOff, gotEdges := g.Adjacency()
	if !slices.Equal(gotOff, offsets) {
		t.Fatalf("compact offsets = %v, model says %v", gotOff, offsets)
	}
	if !slices.Equal(gotEdges, edges) {
		t.Fatalf("compact edges = %v, model says %v", gotEdges, edges)
	}
	if !slices.Equal(g.Labels(), m.labels) {
		t.Fatalf("compact labels = %v, model says %v", g.Labels(), m.labels)
	}
	if g.NumEdges() != len(m.edges) {
		t.Fatalf("compact NumEdges = %d, model has %d", g.NumEdges(), len(m.edges))
	}
}

// TestDeltaCompactPerBatchMatchesModel compacts after every small batch,
// as the edit path does, so every batch after the first deletes edges
// that sit in a compacted base. The scripted batches cover the cases a
// touched-vertex compaction can get wrong; random batches follow.
func TestDeltaCompactPerBatchMatchesModel(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(11))
	base := GNPForTest(n, 0.03, rng)
	e := base.Edges(nil)
	ins := func(a, b int64) compactOp { return compactOp{kind: opInsert, a: a, b: b, mustChange: true} }
	del := func(a, b int64) compactOp { return compactOp{kind: opDelete, a: a, b: b, mustChange: true} }
	delBase := func(a, b int64) compactOp { return compactOp{kind: opDeleteBase, a: a, b: b, mustChange: true} }
	absent := func(a int64) int64 { // the first non-neighbour of a after a+1
		for b := a + 2; ; b++ {
			if !base.HasEdge(int(a), int(b%n)) {
				return b % n
			}
		}
	}
	cut := compactOp{kind: opCompact}
	ops := []compactOp{
		// Base-edge deletions at the first and last vertex.
		delBase(0, 0), delBase(n-1, 0), delBase(0, 1), cut,
		// A deleted base edge inserted again in the same batch, beside a
		// deletion that stays.
		del(int64(e[5][0]), int64(e[5][1])), ins(int64(e[5][0]), int64(e[5][1])),
		del(int64(e[9][0]), int64(e[9][1])), cut,
		// A pending insert cancelled, next to an insert that stays.
		ins(7, absent(7)), del(7, absent(7)), ins(8, absent(8)), cut,
		// Touched ids next to each other.
		ins(20, absent(20)), ins(21, absent(21)), ins(22, absent(22)),
		delBase(23, 0), delBase(24, 0), cut,
		// A zero net degree shift: one vertex loses a base edge and gains
		// an inserted one.
		delBase(50, 0), ins(50, absent(50)), cut,
		// Appended vertices: one joined to the base, then a chain past it.
		ins(n, 3), ins(n, n+1), ins(n+1, 0), cut,
		// Edit the appended vertices now in the base (n+1 is its last
		// vertex), and append one more that the batch leaves edgeless.
		del(n+1, 0), ins(n+1, n+2), delBase(n-1, 0), ins(n+3, 1), del(n+3, 1), cut,
		// Untouched appended vertices, both between touched ids and after
		// the last one.
		{kind: opAddVertex, a: n + 4, mustChange: true}, ins(n+5, 2),
		{kind: opAddVertex, a: n + 6, mustChange: true}, cut,
	}
	for batch := 0; batch < 60; batch++ {
		for k := rng.Intn(8) + 1; k > 0; k-- {
			op := compactOp{kind: opKind(rng.Intn(int(opCompact))), a: int64(rng.Intn(n + 12)), b: int64(rng.Intn(n + 12))}
			if op.kind == opDeleteBase {
				op.b = int64(rng.Intn(64))
			}
			ops = append(ops, op)
		}
		ops = append(ops, cut)
	}
	runCompactScript(t, base, ops)
}

// FuzzDeltaCompact decodes bytes into a per-batch compaction script over
// a small random base and runs it through the model test's checks. Each
// op is three bytes: kind, a, b. Labels range over 0..255 against a base
// of 40 vertices, so inserts both land in the base and append vertices.
func FuzzDeltaCompact(f *testing.F) {
	f.Add([]byte{2, 0, 0, 2, 39, 0, 4, 0, 0, 0, 5, 6, 1, 5, 6, 4, 0, 0})
	f.Add([]byte{0, 40, 0, 0, 41, 40, 4, 0, 0, 1, 41, 40, 2, 40, 0, 3, 42, 0, 4, 0, 0})
	f.Add([]byte{2, 10, 0, 2, 11, 0, 0, 12, 30, 4, 0, 0, 2, 12, 1, 4, 0, 0})
	base := GNPForTest(40, 0.15, rand.New(rand.NewSource(3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*200 {
			return
		}
		ops := make([]compactOp, 0, len(data)/3)
		for ; len(data) >= 3; data = data[3:] {
			ops = append(ops, compactOp{kind: opKind(data[0]) % numOpKinds, a: int64(data[1]), b: int64(data[2])})
		}
		runCompactScript(t, base, ops)
	})
}
