package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"kvcc/graph"
)

// TestProfileGraphLevel pins the whole graph-level profile of the fig2
// graph (two K5s sharing two vertices), where every number is checkable
// by hand: 8 vertices, 19 edges, degeneracy 4, one connected component,
// 20 triangles, degrees {4×6, 7×2}.
func TestProfileGraphLevel(t *testing.T) {
	s := testServer(Config{})
	ctx := context.Background()

	p, err := s.Profile(ctx, ProfileRequest{Graph: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Graph != "fig2" || p.Vertices != 8 || p.Edges != 19 {
		t.Fatalf("profile head = %q %d vertices %d edges, want fig2/8/19", p.Graph, p.Vertices, p.Edges)
	}
	if p.Degeneracy != 4 {
		t.Fatalf("degeneracy = %d, want 4", p.Degeneracy)
	}
	if want := []int{0, 0, 0, 0, 8}; !reflect.DeepEqual(p.CoreHistogram, want) {
		t.Fatalf("core histogram = %v, want %v", p.CoreHistogram, want)
	}
	if p.Degrees.Min != 4 || p.Degrees.Max != 7 || p.Degrees.Mean != 38.0/8 {
		t.Fatalf("degrees = %+v, want min 4 max 7 mean 4.75", p.Degrees)
	}
	if p.Components.Count != 1 || p.Components.Max != 8 || p.Components.CoveredFraction != 1 {
		t.Fatalf("components = %+v, want one 8-vertex component fully covered", p.Components)
	}
	if !reflect.DeepEqual(p.Components.LargestSizes, []int{8}) {
		t.Fatalf("largest sizes = %v, want [8]", p.Components.LargestSizes)
	}
	if p.Clustering.Triangles != 20 {
		t.Fatalf("triangles = %d, want 20", p.Clustering.Triangles)
	}
	// Every K5's density makes k=3 the deepest level whose core keeps
	// 2(k+1) vertices; the degeneracy caps the range at 4.
	if p.RecommendedK.Min != 2 || p.RecommendedK.Max != 4 || p.RecommendedK.Suggested != 3 {
		t.Fatalf("recommended k = %+v, want {2, 4, 3}", p.RecommendedK)
	}
	if p.Cached || len(p.PerVertex) != 0 {
		t.Fatalf("first profile: cached=%v perVertex=%d", p.Cached, len(p.PerVertex))
	}

	// The second call is served from the per-generation cache with the
	// same numbers.
	second, err := s.Profile(ctx, ProfileRequest{Graph: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat profile not cache-served")
	}
	if second.Degeneracy != p.Degeneracy || !reflect.DeepEqual(second.CoreHistogram, p.CoreHistogram) {
		t.Fatal("cached profile differs from computed profile")
	}

	if got := s.Stats().Enumerations.Profiles; got != 2 {
		t.Fatalf("profile counter = %d, want 2", got)
	}

	// Replacing the graph invalidates the cached profile.
	s.AddGraph("fig2", indexTestGraph())
	third, err := s.Profile(ctx, ProfileRequest{Graph: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached || third.Vertices == 8 {
		t.Fatalf("post-replacement profile: cached=%v vertices=%d, want fresh profile of the new graph",
			third.Cached, third.Vertices)
	}
}

// TestProfilePerVertex checks the (core, λ, κ) triples against fig2's
// known structure — every vertex sits in a K5, so core = λ = κ = 4 — and
// the Whitney ordering core >= λ >= κ in general, with absent vertices
// reported as all-zero.
func TestProfilePerVertex(t *testing.T) {
	s := testServer(Config{})
	ctx := context.Background()

	p, err := s.Profile(ctx, ProfileRequest{Graph: "fig2", Vertices: []int64{0, 3, 99}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.PerVertex) != 3 {
		t.Fatalf("got %d per-vertex entries, want 3", len(p.PerVertex))
	}
	for _, pv := range p.PerVertex[:2] {
		if pv.Core != 4 || pv.Lambda != 4 || pv.Kappa != 4 {
			t.Fatalf("vertex %d profile = %+v, want core=λ=κ=4", pv.Vertex, pv)
		}
	}
	if absent := p.PerVertex[2]; absent.Vertex != 99 || absent.Core != 0 || absent.Lambda != 0 || absent.Kappa != 0 {
		t.Fatalf("absent vertex profile = %+v, want all zero", absent)
	}

	// On a graph where the measures genuinely differ the triples must
	// still be ordered core >= λ >= κ, and the profile must agree with
	// the enumerations: in the gadget, vertex 0 is in the (global)
	// 3-ECC but in no 3-connected subgraph, so λ = 3 while κ = 2.
	s.AddGraph("gadget", lambdaKappaGadget())
	gp, err := s.Profile(ctx, ProfileRequest{Graph: "gadget", Vertices: []int64{0, 1, 2, 3, 4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	for _, pv := range gp.PerVertex {
		if pv.Core < pv.Lambda || pv.Lambda < pv.Kappa {
			t.Fatalf("vertex %d violates core >= λ >= κ: %+v", pv.Vertex, pv)
		}
	}
	if v := gp.PerVertex[0]; v.Core != 3 || v.Lambda != 3 || v.Kappa != 2 {
		t.Fatalf("gadget vertex 0 profile = %+v, want core=3 λ=3 κ=2", v)
	}
	if v := gp.PerVertex[4]; v.Core != 3 || v.Lambda != 3 || v.Kappa != 3 {
		t.Fatalf("gadget vertex 4 profile = %+v, want core=3 λ=3 κ=3", v)
	}
}

// lambdaKappaGadget builds the smallest natural graph this suite has
// where a vertex's λ exceeds its κ: a K5 on {2..6} missing the 2–3 edge,
// with vertices 0 and 1 each attached to {2, 3} and to each other. The
// graph is 3-edge-connected (every cut has >= 3 edges), so its single
// 3-ECC holds every vertex; but any 3-connected subgraph containing
// vertex 0 would need all of {1, 2, 3}, and removing {2, 3} always
// separates {0, 1} — so vertex 0 tops out at the 2-VCC level.
func lambdaKappaGadget() *graph.Graph {
	var edges [][2]int64
	core5 := []int64{2, 3, 4, 5, 6}
	for i := 0; i < len(core5); i++ {
		for j := i + 1; j < len(core5); j++ {
			if core5[i] == 2 && core5[j] == 3 {
				continue
			}
			edges = append(edges, [2]int64{core5[i], core5[j]})
		}
	}
	edges = append(edges, [][2]int64{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}}...)
	return graph.FromLabeledEdges(edges)
}

// TestProfileValidation covers the request-side error paths.
func TestProfileValidation(t *testing.T) {
	s := testServer(Config{})
	ctx := context.Background()

	if _, err := s.Profile(ctx, ProfileRequest{Graph: "missing"}); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph: err = %v, want ErrUnknownGraph", err)
	}
	tooMany := make([]int64, maxCohesionVertices+1)
	if _, err := s.Profile(ctx, ProfileRequest{Graph: "fig2", Vertices: tooMany}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized vertex list: err = %v, want ErrBadRequest", err)
	}
}

// TestProfileHTTP drives the endpoint through the real handler and the
// Go client, including the query-parameter error paths.
func TestProfileHTTP(t *testing.T) {
	s := testServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	p, err := c.Profile(ctx, ProfileRequest{Graph: "fig2", Vertices: []int64{3}, TimeoutMillis: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if p.Degeneracy != 4 || len(p.PerVertex) != 1 || p.PerVertex[0].Kappa != 4 {
		t.Fatalf("profile over HTTP = %+v", p)
	}

	for _, bad := range []string{
		ts.URL + GraphProfilePath("fig2") + "?vertices=1,foo",
		ts.URL + GraphProfilePath("fig2") + "?timeout_ms=-1",
		ts.URL + GraphProfilePath("fig2") + "?timeout_ms=abc",
	} {
		resp, err := http.Get(bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + GraphProfilePath("missing"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing graph: status %d, want 404", resp.StatusCode)
	}
}
