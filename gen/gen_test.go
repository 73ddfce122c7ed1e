package gen

import (
	"fmt"
	"testing"

	"kvcc/graph"
)

// avgDegree returns 2m/n of a non-empty graph.
func avgDegree(g *graph.Graph) float64 {
	return 2 * float64(g.NumEdges()) / float64(g.NumVertices())
}

func TestGNMDeterministicAndSized(t *testing.T) {
	g1 := GNM(100, 300, 7)
	g2 := GNM(100, 300, 7)
	if g1.NumVertices() != 100 || g1.NumEdges() != 300 {
		t.Fatalf("GNM size: n=%d m=%d", g1.NumVertices(), g1.NumEdges())
	}
	if fmt.Sprint(g1.Edges(nil)) != fmt.Sprint(g2.Edges(nil)) {
		t.Fatal("GNM not deterministic for equal seeds")
	}
	g3 := GNM(100, 300, 8)
	if fmt.Sprint(g1.Edges(nil)) == fmt.Sprint(g3.Edges(nil)) {
		t.Fatal("GNM identical across different seeds")
	}
}

func TestGNMCapsAtCompleteGraph(t *testing.T) {
	g := GNM(5, 100, 1)
	if g.NumEdges() != 10 {
		t.Fatalf("GNM(5,100) edges = %d, want 10", g.NumEdges())
	}
}

func TestGNP(t *testing.T) {
	g := GNP(50, 0.5, 3)
	if g.NumVertices() != 50 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Expected ~612 edges; allow a broad band.
	if g.NumEdges() < 400 || g.NumEdges() > 850 {
		t.Fatalf("GNP(50,0.5) edges = %d, outside plausible band", g.NumEdges())
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(200, 4, 3, 5)
	if g.NumVertices() != 200 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// m = C(4,2) + 196*3.
	want := 6 + 196*3
	if g.NumEdges() != want {
		t.Fatalf("BA edges = %d, want %d", g.NumEdges(), want)
	}
	if !g.IsConnected() {
		t.Fatal("BA graph must be connected")
	}
	// Heavy tail: max degree well above the mean.
	if g.MaxDegree() < 3*int(avgDegree(g)) {
		t.Fatalf("BA max degree %d not heavy-tailed (avg %.1f)", g.MaxDegree(), avgDegree(g))
	}
}

func TestBarabasiAlbertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BarabasiAlbert(10, 2, 3, 0) // mPer > m0
}

func TestWebGraph(t *testing.T) {
	g := WebGraph(500, 5, 0.6, 9)
	if g.NumVertices() != 500 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if !g.IsConnected() {
		t.Fatal("web graph must be connected")
	}
	if g.MaxDegree() < 2*int(avgDegree(g)) {
		t.Fatalf("web graph lacks hubs: max %d avg %.1f", g.MaxDegree(), avgDegree(g))
	}
	// Determinism.
	g2 := WebGraph(500, 5, 0.6, 9)
	if fmt.Sprint(g.Edges(nil)) != fmt.Sprint(g2.Edges(nil)) {
		t.Fatal("WebGraph not deterministic")
	}
}

func TestSampleVertices(t *testing.T) {
	g := GNM(200, 800, 2)
	s := SampleVertices(g, 0.5, 1)
	if s.NumVertices() != 100 {
		t.Fatalf("sampled n = %d, want 100", s.NumVertices())
	}
	if s.NumEdges() >= g.NumEdges() {
		t.Fatal("vertex sampling should lose edges")
	}
	full := SampleVertices(g, 1.0, 1)
	if full != g {
		t.Fatal("frac 1.0 must return the original graph")
	}
	// Sampled graph is an induced subgraph: every sampled edge exists in g.
	idx := g.LabelIndex()
	for _, e := range s.Edges(nil) {
		u, v := idx[s.Label(e[0])], idx[s.Label(e[1])]
		if !g.HasEdge(u, v) {
			t.Fatal("sample contains edge missing from source")
		}
	}
}

func TestSampleEdges(t *testing.T) {
	g := GNM(200, 800, 2)
	s := SampleEdges(g, 0.25, 1)
	if s.NumEdges() != 200 {
		t.Fatalf("sampled m = %d, want 200", s.NumEdges())
	}
	if s.NumVertices() > g.NumVertices() {
		t.Fatal("edge sample has too many vertices")
	}
	// Vertex set = incident vertices only: no isolated vertices.
	for v := 0; v < s.NumVertices(); v++ {
		if s.Degree(v) == 0 {
			t.Fatal("edge sample contains isolated vertex")
		}
	}
}

func TestPlantedStructure(t *testing.T) {
	cfg := PlantedConfig{
		Communities: 10, MinSize: 10, MaxSize: 16, IntraProb: 0.85,
		ChainOverlap: 2, ChainEvery: 3, BridgeEdges: 5,
		NoiseVertices: 200, NoiseDegree: 2, Seed: 11,
	}
	g, comms := Planted(cfg)
	if len(comms) != 10 {
		t.Fatalf("communities = %d", len(comms))
	}
	if g.NumVertices() < 200 {
		t.Fatalf("n = %d, expected community + noise vertices", g.NumVertices())
	}
	// Deterministic.
	g2, _ := Planted(cfg)
	if fmt.Sprint(g.Edges(nil)) != fmt.Sprint(g2.Edges(nil)) {
		t.Fatal("Planted not deterministic")
	}
	// Communities are dense: check internal average degree of the first.
	idx := g.LabelIndex()
	for _, comm := range comms[:3] {
		vs := make([]int, len(comm))
		for i, l := range comm {
			vs[i] = idx[l]
		}
		sub := g.InducedSubgraph(vs)
		if avgDegree(sub) < 0.6*float64(len(comm)-1) {
			t.Fatalf("community too sparse: avg degree %.1f of %d", avgDegree(sub), len(comm)-1)
		}
	}
}

func TestPlantedChainOverlap(t *testing.T) {
	cfg := PlantedConfig{
		Communities: 4, MinSize: 8, MaxSize: 8, IntraProb: 1.0,
		ChainOverlap: 2, ChainEvery: 1, Seed: 3,
	}
	_, comms := Planted(cfg)
	for i := 1; i < len(comms); i++ {
		shared := 0
		prev := map[int64]bool{}
		for _, l := range comms[i-1] {
			prev[l] = true
		}
		for _, l := range comms[i] {
			if prev[l] {
				shared++
			}
		}
		if shared != 2 {
			t.Fatalf("chain overlap between %d and %d = %d, want 2", i-1, i, shared)
		}
	}
}

func TestPlantedPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Planted(PlantedConfig{Communities: 0})
}

func TestCollaborationEgoNet(t *testing.T) {
	net := CollaborationEgoNet(EgoNetConfig{
		Groups: 5, GroupMin: 6, GroupMax: 9, IntraProb: 0.9,
		SharedAuthors: 2, Bridges: 2, Seed: 21,
	})
	g := net.Graph
	if !g.IsConnected() {
		t.Fatal("ego net must be connected")
	}
	hub := g.IndexOfLabel(net.Hub)
	if hub < 0 {
		t.Fatal("hub missing")
	}
	if g.Degree(hub) != g.NumVertices()-1 {
		t.Fatalf("hub degree %d, want %d (adjacent to all)", g.Degree(hub), g.NumVertices()-1)
	}
	if len(net.Groups) != 5 || len(net.Bridges) != 2 {
		t.Fatalf("groups=%d bridges=%d", len(net.Groups), len(net.Bridges))
	}
	if net.Names[net.Hub] == "" {
		t.Fatal("hub must be named")
	}
	for _, b := range net.Bridges {
		if net.Names[b] == "" {
			t.Fatal("bridge authors must be named")
		}
	}
	// Consecutive groups share exactly SharedAuthors vertices.
	prev := map[int64]bool{}
	for _, l := range net.Groups[0] {
		prev[l] = true
	}
	shared := 0
	for _, l := range net.Groups[1] {
		if prev[l] {
			shared++
		}
	}
	if shared != 2 {
		t.Fatalf("shared authors between groups 0,1 = %d, want 2", shared)
	}
}

func TestCollaborationEgoNetDeterministic(t *testing.T) {
	cfg := EgoNetConfig{Groups: 4, GroupMin: 5, GroupMax: 8, IntraProb: 0.85, SharedAuthors: 1, Bridges: 1, Seed: 5}
	a := CollaborationEgoNet(cfg)
	b := CollaborationEgoNet(cfg)
	if fmt.Sprint(a.Graph.Edges(nil)) != fmt.Sprint(b.Graph.Edges(nil)) {
		t.Fatal("ego net not deterministic")
	}
}
