package flow

import (
	"math/rand"
	"slices"
	"testing"

	"kvcc/gen"
	"kvcc/graph"
)

// refArc is an arc of the explicit split graph refMinCut builds; rev
// indexes its reverse arc in adj[to].
type refArc struct{ to, cap, rev int }

// refMinCut is a test-only reference for one query on G − R, where excl
// marks R. It builds the split graph explicitly (in(x) = 2x, out(x) =
// 2x+1, vertex arcs of capacity one, adjacency arcs of capacity n), runs
// Edmonds–Karp from out(u) to in(v) to a maximum flow, and reads the
// source-closest minimum cut off the final residual graph: the vertices
// whose in node is reachable from out(u) and whose out node is not. It
// returns κ(u,v) in G − R and that cut, ascending. u and v must not be
// adjacent.
func refMinCut(g *graph.Graph, excl []bool, u, v int) (int, []int) {
	n := g.NumVertices()
	adj := make([][]refArc, 2*n)
	add := func(a, b, c int) {
		adj[a] = append(adj[a], refArc{b, c, len(adj[b])})
		adj[b] = append(adj[b], refArc{a, 0, len(adj[a]) - 1})
	}
	for x := 0; x < n; x++ {
		if excl[x] {
			continue
		}
		add(2*x, 2*x+1, 1)
		for _, y := range g.Neighbors(x) {
			if !excl[y] {
				add(2*x+1, 2*y, n)
			}
		}
	}
	src, dst := 2*u+1, 2*v
	// reach runs a BFS over the residual arcs from src and returns, per
	// node, the arc it was reached by (from, index), from = −1 if unreached.
	reach := func() [][2]int {
		via := make([][2]int, 2*n)
		for i := range via {
			via[i] = [2]int{-1, -1}
		}
		via[src] = [2]int{src, -1}
		queue := []int{src}
		for head := 0; head < len(queue); head++ {
			a := queue[head]
			for i, e := range adj[a] {
				if e.cap > 0 && via[e.to][0] < 0 {
					via[e.to] = [2]int{a, i}
					queue = append(queue, e.to)
				}
			}
		}
		return via
	}
	kappa := 0
	for {
		via := reach()
		if via[dst][0] < 0 {
			var cut []int
			for x := 0; x < n; x++ {
				if via[2*x][0] >= 0 && via[2*x+1][0] < 0 {
					cut = append(cut, x)
				}
			}
			return kappa, cut
		}
		for b := dst; b != src; b = via[b][0] {
			e := &adj[via[b][0]][via[b][1]]
			e.cap--
			adj[b][e.rev].cap++
		}
		kappa++
	}
}

// residualDistances builds the residual graph of nw's current flow on
// G − R explicitly, from prev alone: a vertex x with prev[x] ≥ 0 carries
// one unit across in(x) → out(x) and along out(prev[x]) → in(x). It
// returns every split node's residual distance from src and to dst, −1
// where there is none. The sink's in-flow is not stored, so the arcs back
// out of in(v) are missing; no distance from src or to dst uses them.
func residualDistances(nw *Network, excl []bool, src, dst int32) (ds, dt []int) {
	n := len(nw.prev)
	fwd, back := make([][]int, 2*n), make([][]int, 2*n)
	add := func(a, b int) {
		fwd[a] = append(fwd[a], b)
		back[b] = append(back[b], a)
	}
	for x := 0; x < n; x++ {
		if excl[x] {
			continue
		}
		if nw.prev[x] >= 0 {
			add(2*x+1, 2*x)
		} else {
			add(2*x, 2*x+1)
		}
		for _, y := range nw.g.Neighbors(x) {
			if excl[y] {
				continue
			}
			add(2*x+1, 2*y)
			if int(nw.prev[y]) == x {
				add(2*y, 2*x+1)
			}
		}
	}
	bfs := func(arcs [][]int, root int) []int {
		dist := make([]int, 2*n)
		for i := range dist {
			dist[i] = -1
		}
		dist[root] = 0
		queue := []int{root}
		for head := 0; head < len(queue); head++ {
			a := queue[head]
			for _, b := range arcs[a] {
				if dist[b] < 0 {
					dist[b] = dist[a] + 1
					queue = append(queue, b)
				}
			}
		}
		return dist
	}
	return bfs(fwd, int(src)), bfs(back, int(dst))
}

// levelChecked runs the query (u, v, limit) on nw phase by phase, as
// MinVertexCutLimit does, and checks every level search against the
// explicit residual graph: it finds a path iff one exists; src carries
// the residual distance D to the sink; every node on a shortest augmenting
// path (distance from src plus distance to dst equal to D) carries its
// distance to the sink; and no node but the sink has level 0. It returns
// the flow value and, below limit, the cut extractCut reads.
func levelChecked(t *testing.T, nw *Network, excl []bool, u, v, limit int) (int, []int) {
	t.Helper()
	nw.undo()
	src, dst := outNode(u), inNode(v)
	value := 0
	for value < limit {
		ds, dt := residualDistances(nw, excl, src, dst)
		found := nw.bfsLevels(src, dst)
		if found != (dt[src] >= 0) {
			t.Fatalf("(%d,%d) after %d units: level search found a path %v, residual distance %d", u, v, value, found, dt[src])
		}
		if !found {
			break
		}
		d, gen := dt[src], nw.levelGen
		if got := nw.level[src]; got != pack(gen, uint32(d)) {
			t.Fatalf("(%d,%d) after %d units: level[src] = %d (stamped %v), residual distance %d", u, v, value, uint32(got), stamped(got, gen), d)
		}
		for x := range 2 * len(nw.prev) {
			got := nw.level[x]
			if ds[x] >= 0 && dt[x] >= 0 && ds[x]+dt[x] == d && got != pack(gen, uint32(dt[x])) {
				t.Fatalf("(%d,%d) after %d units: node %d on a shortest path has level %d (stamped %v), distance to the sink %d", u, v, value, x, uint32(got), stamped(got, gen), dt[x])
			}
			if x != int(dst) && got == pack(gen, 0) {
				t.Fatalf("(%d,%d) after %d units: node %d is not the sink but has level 0", u, v, value, x)
			}
		}
		value += nw.blockingFlow(src, dst, limit-value)
	}
	if value >= limit {
		return value, nil
	}
	return value, nw.extractCut(src, value)
}

// checkAgainstReference asks nw the query (u, v, limit) on G − R, where
// excl marks R, and checks it against refMinCut: equal value, and below
// limit the same cut; at the limit, a flow that checkFlowPaths decomposes
// into limit paths and cycles, and that no vertex of R carries. The query
// first runs phase by phase under levelChecked, so a wrong level graph
// fails there before a blocking flow can loop on it, and must agree.
func checkAgainstReference(t *testing.T, nw *Network, excl []bool, u, v, limit int) {
	t.Helper()
	if nw.g.HasEdge(u, v) {
		if cut, c, atLeast := nw.MinVertexCutLimit(u, v, limit); !atLeast || c != limit || cut != nil {
			t.Fatalf("(%d,%d) adjacent: got (%v, %d, %v)", u, v, cut, c, atLeast)
		}
		return
	}
	value, stepCut := levelChecked(t, nw, excl, u, v, limit)
	cut, c, atLeast := nw.MinVertexCutLimit(u, v, limit)
	want, wantCut := refMinCut(nw.g, excl, u, v)
	if want >= limit {
		if !atLeast || c != limit {
			t.Fatalf("(%d,%d) limit %d: got (%d,%v), reference κ = %d", u, v, limit, c, atLeast, want)
		}
		checkFlowPaths(t, nw, u, v, limit, true)
		for r, ex := range excl {
			if ex && nw.prev[r] >= 0 {
				t.Fatalf("(%d,%d): excluded vertex %d carries flow", u, v, r)
			}
		}
	} else if atLeast || c != want || !slices.Equal(cut, wantCut) {
		t.Fatalf("(%d,%d) limit %d: got (%v, %d, %v), reference κ = %d, cut %v", u, v, limit, cut, c, atLeast, want, wantCut)
	}
	if value != min(want, limit) || !slices.Equal(stepCut, cut) {
		t.Fatalf("(%d,%d) limit %d: phase by phase (%d, %v), query (%d, %v)", u, v, limit, value, stepCut, c, cut)
	}
}

// excludeMask applies the exclusion set R to nw and returns R as a mask.
func excludeMask(nw *Network, n int, r []int) []bool {
	nw.Exclude(r)
	excl := make([]bool, n)
	for _, x := range r {
		excl[x] = true
	}
	return excl
}

// hubGraph is a sparse random connected graph on n vertices with hubs
// vertices joined to n/4..n/2 random others each. A query between a
// low-degree vertex and a hub makes the level search expand one side for
// several layers before the other moves at all.
func hubGraph(n, hubs int, rng *rand.Rand) *graph.Graph {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{rng.Intn(i), i})
	}
	for i := 0; i < n/8; i++ {
		edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	for h := 0; h < hubs; h++ {
		x := rng.Intn(n)
		for _, y := range rng.Perm(n)[:n/4+rng.Intn(n/4)] {
			edges = append(edges, [2]int{x, y})
		}
	}
	return graph.FromEdges(n, edges)
}

// TestMinVertexCutLargeGraphs checks the flow engine on random, hub and
// planted graphs of 20–150 vertices, where the two sides of the level
// search grow for several layers and the frontier choice matters. One
// pooled network serves every query of all the graphs; each graph gets
// several random exclusion sets, and each query a random limit; half the
// queries have the graph's highest-degree vertex outside R as one end.
// Every query must match refMinCut and pass the level checks of
// levelChecked.
func TestMinVertexCutLargeGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var s Scratch
	for trial := 0; trial < 18; trial++ {
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			n := 20 + rng.Intn(131)
			g = randomConnectedGraph(n, (2+10*rng.Float64())/float64(n), rng)
		case 1:
			g = hubGraph(20+rng.Intn(131), 1+rng.Intn(3), rng)
		default:
			g, _ = gen.Planted(gen.PlantedConfig{
				Communities:   2 + rng.Intn(4),
				MinSize:       8,
				MaxSize:       8 + rng.Intn(25),
				IntraProb:     0.25 + 0.4*rng.Float64(),
				ChainOverlap:  rng.Intn(4),
				ChainEvery:    1 + rng.Intn(2),
				BridgeEdges:   rng.Intn(8),
				NoiseVertices: rng.Intn(20),
				NoiseDegree:   2,
				Seed:          rng.Int63(),
			})
		}
		n := g.NumVertices()
		if n < 20 || n > 150 {
			continue
		}
		bound := 1 + rng.Intn(12)
		nw := NewNetworkScratch(g, bound, &s)
		for batch := 0; batch < 4; batch++ {
			var r, keep []int
			for _, x := range rng.Perm(n) {
				if len(r) < batch*n/12 {
					r = append(r, x)
				} else {
					keep = append(keep, x)
				}
			}
			excl := excludeMask(nw, n, r)
			hub := keep[0]
			for _, x := range keep {
				if g.Degree(x) > g.Degree(hub) {
					hub = x
				}
			}
			for q := 0; q < 40; q++ {
				u, v := keep[rng.Intn(len(keep))], keep[rng.Intn(len(keep))]
				switch q % 4 {
				case 0:
					v = hub
				case 1:
					u = hub
				}
				if u != v {
					checkAgainstReference(t, nw, excl, u, v, 1+rng.Intn(bound))
				}
			}
		}
	}
}

// TestMinVertexCutReroutesAlongFlow plants a graph whose second
// augmenting path must walk back along the first across a reverse vertex
// arc. Phase 1 saturates s–c–a–b–t, the unique shortest path; the only
// path left enters in(b), cancels a → b, crosses out(a) → in(a), cancels
// c → a and leaves c forward: s–d–d2–d3–b–a–c–e–e2–e3–t. Both directions
// are asked, so each side of the level search has to take the twin arc.
func TestMinVertexCutReroutesAlongFlow(t *testing.T) {
	const s, c, a, b, tt, d, d2, d3, e, e2, e3 = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
	g := graph.FromEdges(11, [][2]int{
		{s, c}, {c, a}, {a, b}, {b, tt},
		{s, d}, {d, d2}, {d2, d3}, {d3, b},
		{c, e}, {e, e2}, {e2, e3}, {e3, tt},
	})
	nw := NewNetwork(g, 3)
	excl := make([]bool, 11)
	for limit := 1; limit <= 3; limit++ {
		checkAgainstReference(t, nw, excl, s, tt, limit)
		checkAgainstReference(t, nw, excl, tt, s, limit)
	}
}

// largeFuzzGraph grows a graph of n = 20..60 vertices from the fuzz
// input: a path keeps it connected, and byte i of chords adds the edge
// from vertex i mod n to the vertex chords[i] mod (n−2) + 2 places on,
// so an input of a few n bytes gives every vertex a few chords.
func largeFuzzGraph(nRaw uint8, chords []byte) *graph.Graph {
	n := 20 + int(nRaw)%41
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{i - 1, i})
	}
	for i, c := range chords {
		if i >= 8*n {
			break
		}
		x := i % n
		edges = append(edges, [2]int{x, (x + 2 + int(c)%(n-2)) % n})
	}
	return graph.FromEdges(n, edges)
}

// FuzzMinVertexCutLarge checks the flow engine against refMinCut and the
// level checks of levelChecked on graphs of 20–60 vertices grown from the
// fuzz input (largeFuzzGraph), with the exclusion set R taken from exRaw's
// bits. One pooled network, warmed by a query on all of G, serves every
// query; each vertex outside R is asked against six others at limits in
// [1, bound].
func FuzzMinVertexCutLarge(f *testing.F) {
	seed := func(n, step int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * step)
		}
		return b
	}
	f.Add(uint8(0), uint8(3), uint64(0), seed(60, 7))
	f.Add(uint8(20), uint8(5), uint64(0x8421), seed(160, 13))
	f.Add(uint8(40), uint8(9), uint64(0xf0f0), seed(240, 31))
	f.Add(uint8(33), uint8(11), uint64(0x0123456789), seed(300, 5))
	f.Fuzz(func(t *testing.T, nRaw, boundRaw uint8, exRaw uint64, chords []byte) {
		g := largeFuzzGraph(nRaw, chords)
		n := g.NumVertices()
		bound := 1 + int(boundRaw)%12
		var r, keep []int
		for x := 0; x < n; x++ {
			if x < 64 && exRaw>>x&1 == 1 && len(r) < n/3 {
				r = append(r, x)
			} else {
				keep = append(keep, x)
			}
		}
		nw := NewNetwork(g, bound)
		nw.MinVertexCut(0, n/2)
		excl := excludeMask(nw, n, r)
		for i, u := range keep {
			for j := 1; j <= 6; j++ {
				v := keep[(i+7*j)%len(keep)]
				if u != v {
					checkAgainstReference(t, nw, excl, u, v, 1+(u+v+int(boundRaw))%bound)
				}
			}
		}
	})
}
