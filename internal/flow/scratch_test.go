package flow

import (
	"math/rand"
	"testing"
)

// A pooled network rebuilt across many graphs must answer exactly like a
// fresh network built for each graph — the in-place rebuild may leave
// stale bytes in the hidden capacity of its buffers, and none of them may
// leak into answers.
func TestNetworkScratchReuseAcrossGraphs(t *testing.T) {
	var s Scratch
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Alternate sizes so the scratch both grows and shrinks.
		n := 5 + rng.Intn(12)
		g := randomConnectedGraph(n, 0.3, rng)
		bound := 1 + rng.Intn(n-1)
		pooled := NewNetworkScratch(g, bound, &s)
		fresh := NewNetwork(g, bound)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				cutP, cP, atLeastP := pooled.MinVertexCut(u, v)
				cutF, cF, atLeastF := fresh.MinVertexCut(u, v)
				if cP != cF || atLeastP != atLeastF || len(cutP) != len(cutF) {
					t.Fatalf("seed %d bound %d (%d,%d): pooled (%v,%d,%v) vs fresh (%v,%d,%v)",
						seed, bound, u, v, cutP, cP, atLeastP, cutF, cF, atLeastF)
				}
				for i := range cutP {
					if cutP[i] != cutF[i] {
						t.Fatalf("seed %d (%d,%d): cut %v vs %v", seed, u, v, cutP, cutF)
					}
				}
			}
		}
	}
}

// The undo log must clear the flow state exactly: after any query
// sequence, the next query's undo leaves every prev entry at −1.
func TestUndoLogRestoresCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomConnectedGraph(20, 0.25, rng)
	nw := NewNetwork(g, 4)
	for trial := 0; trial < 50; trial++ {
		u, v := rng.Intn(20), rng.Intn(20)
		nw.MinVertexCut(u, v)
		nw.undo()
		for x, p := range nw.prev {
			if p != -1 {
				t.Fatalf("trial %d after (%d,%d): vertex %d prev %d, want -1",
					trial, u, v, x, p)
			}
		}
	}
}

// checkFlowPaths walks the flow that a query from u to v which reached its
// limit leaves behind, before the next undo clears it. From every
// neighbour y of u with prev[y] == u it follows next until v, and every
// step x → next[x] short of v must have prev[next[x]] == x. The walk must
// find exactly limit paths, with every vertex that carries flow on exactly
// one of them, unless cycles is set. Then a vertex off the paths may
// carry flow if next leads it round a cycle, each step x → next[x] with
// prev[next[x]] == x: on larger graphs a later augmenting path can reach
// out(x) by cancelling x's outflow and leave forward into a vertex whose
// inflow it cancels in turn, which leaves a unit circling through
// vertices that no path from u uses. Such a flow is still a maximum flow
// of the same value, with the same residual cut.
func checkFlowPaths(t *testing.T, nw *Network, u, v, limit int, cycles bool) {
	t.Helper()
	n := len(nw.prev)
	onPaths := make([]int, n)
	paths := 0
	for _, y := range nw.g.Neighbors(u) {
		if int(nw.prev[y]) != u {
			continue
		}
		paths++
		for x, steps := y, 0; x != v; steps++ {
			if steps == n {
				t.Fatalf("(%d,%d): the path from %d never reaches the sink", u, v, y)
			}
			onPaths[x]++
			nx := int(nw.next[x])
			if nx < 0 || nx >= n || nx != v && int(nw.prev[nx]) != x {
				t.Fatalf("(%d,%d): next[%d] = %d, whose flow does not come from %d", u, v, x, nx, x)
			}
			x = nx
		}
	}
	if paths != limit {
		t.Fatalf("(%d,%d): %d flow paths leave the source, want %d", u, v, paths, limit)
	}
	for x, p := range nw.prev {
		if p < 0 || onPaths[x] == 1 {
			continue
		}
		if !cycles || onPaths[x] != 0 || !onFlowCycle(nw, x) {
			t.Fatalf("(%d,%d): vertex %d carries flow from %d but lies on %d paths", u, v, x, p, onPaths[x])
		}
	}
}

// onFlowCycle reports whether following next from x, each step to a
// vertex whose flow comes from the last, returns to x.
func onFlowCycle(nw *Network, x int) bool {
	for y, steps := x, 0; steps < len(nw.prev); steps++ {
		nx := int(nw.next[y])
		if nx < 0 || nx >= len(nw.prev) || int(nw.prev[nx]) != y {
			return false
		}
		if y = nx; y == x {
			return true
		}
	}
	return false
}

// Every query that reaches its limit must leave a flow that next
// decomposes into exactly limit vertex-disjoint paths. Each pair is asked
// at every limit up to the bound or its connectivity. Dinic is deterministic, so the
// query at limit L repeats the augmentations of the one at L−1 and adds
// one; when that last path changes the prev of a vertex that already
// carried flow, it cancelled flow, and the test requires some of those so
// that rerouted next entries are walked too.
func TestFlowPathsFollowNext(t *testing.T) {
	cancels := 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(16)
		g := randomConnectedGraph(n, 0.25, rng)
		bound := 2 + rng.Intn(4)
		nw := NewNetworkScratch(g, bound, nil)
		before := make([]int32, n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || g.HasEdge(u, v) {
					continue
				}
				for x := range before {
					before[x] = -1
				}
				for limit := 1; limit <= bound; limit++ {
					if _, _, atLeast := nw.MinVertexCutLimit(u, v, limit); !atLeast {
						break
					}
					checkFlowPaths(t, nw, u, v, limit, false)
					for x, p := range before {
						if p >= 0 && nw.prev[x] != p {
							cancels++
							break
						}
					}
					copy(before, nw.prev)
				}
			}
		}
	}
	if cancels == 0 {
		t.Fatal("no augmenting path cancelled flow, so no rerouted next was walked")
	}
	t.Logf("%d augmenting paths cancelled flow", cancels)
}

// Steady-state MinVertexCut must not allocate: the undo log, generation
// stamps, and pooled buffers make a warm query heap-free. This is the
// allocation-regression guard for the zero-reset engine.
func TestMinVertexCutZeroAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnectedGraph(120, 0.1, rng)
	var s Scratch
	nw := NewNetworkScratch(g, 5, &s)
	// Warm up every buffer (undo log, queue, DFS stack) across a mix of
	// separable and non-separable pairs.
	for u := 0; u < 30; u++ {
		nw.MinVertexCut(u, 119-u)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, atLeast := nw.MinVertexCut(3, 97); !atLeast {
			// κ >= bound here; the cut-returning path allocates exactly
			// the returned slice and is guarded separately below.
			t.Fatal("expected atLeastBound pair")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm MinVertexCut allocated %.1f times per run, want 0", allocs)
	}

	// The same holds with an exclusion set, re-applied every run: Exclude
	// copies into a buffer the network keeps.
	excl := []int{10, 20, 30, 40}
	nw.Exclude(excl)
	nw.MinVertexCut(3, 97) // warm
	allocs = testing.AllocsPerRun(200, func() {
		nw.Exclude(excl)
		if _, _, atLeast := nw.MinVertexCut(3, 97); !atLeast {
			t.Fatal("expected atLeastBound pair in G − R")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm MinVertexCut with an exclusion set allocated %.1f times per run, want 0", allocs)
	}

	// A cut-returning query may allocate only the cut it hands back.
	cycle8 := cycle(8)
	nwc := NewNetworkScratch(cycle8, 7, &s)
	nwc.MinVertexCut(0, 4) // warm
	allocs = testing.AllocsPerRun(200, func() {
		cut, c, atLeast := nwc.MinVertexCut(0, 4)
		if atLeast || c != 2 || len(cut) != 2 {
			t.Fatalf("cycle cut = %v (κ=%d, atLeast=%v)", cut, c, atLeast)
		}
	})
	if allocs > 1 {
		t.Fatalf("cut-returning MinVertexCut allocated %.1f times per run, want <= 1", allocs)
	}
}

// Rebuilding a pooled network for graphs it has already seen must be
// allocation-free.
func TestNetworkScratchRebuildZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomConnectedGraph(60, 0.15, rng)
	b := randomConnectedGraph(40, 0.3, rng)
	var s Scratch
	NewNetworkScratch(a, 4, &s)
	NewNetworkScratch(b, 4, &s)
	allocs := testing.AllocsPerRun(100, func() {
		nw := NewNetworkScratch(a, 4, &s)
		nw.MinVertexCut(0, 30)
		nw = NewNetworkScratch(b, 4, &s)
		nw.MinVertexCut(0, 20)
	})
	if allocs != 0 {
		t.Fatalf("warm rebuild allocated %.1f times per run, want 0", allocs)
	}
}

// MinVertexCutLimit must honor limits tighter than the build bound and
// reject out-of-range ones.
func TestMinVertexCutLimit(t *testing.T) {
	g := cycle(10) // κ = 2 between antipodal vertices
	nw := NewNetwork(g, 8)
	if _, c, atLeast := nw.MinVertexCutLimit(0, 5, 2); !atLeast || c != 2 {
		t.Fatalf("limit 2: got (%d,%v), want atLeastLimit at 2", c, atLeast)
	}
	cut, c, atLeast := nw.MinVertexCutLimit(0, 5, 3)
	if atLeast || c != 2 || len(cut) != 2 {
		t.Fatalf("limit 3: got (%v,%d,%v), want the 2-cut", cut, c, atLeast)
	}
	for _, bad := range []int{0, -1, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("limit %d: expected panic", bad)
				}
			}()
			nw.MinVertexCutLimit(0, 5, bad)
		}()
	}
}
