package server

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"kvcc/graph"
)

// twoCliques builds two K5s sharing two vertices: two 3-VCCs overlapping
// in {3, 4} (the paper's Fig. 2 shape).
func twoCliques() *graph.Graph {
	return cliques([]int64{0, 1, 2, 3, 4}, []int64{3, 4, 5, 6, 7})
}

// cliques builds the union of one clique per label set.
func cliques(sets ...[]int64) *graph.Graph {
	var edges [][2]int64
	for _, c := range sets {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				edges = append(edges, [2]int64{c[i], c[j]})
			}
		}
	}
	return graph.FromLabeledEdges(edges)
}

// slowEnumerations holds every flight-leader enumeration open for d so
// tests can deterministically observe concurrent requests piling up.
func slowEnumerations(t *testing.T, d time.Duration) {
	t.Helper()
	testHookEnumerateStarted = func() { time.Sleep(d) }
	t.Cleanup(func() { testHookEnumerateStarted = nil })
}

func testServer(cfg Config) *Server {
	s := New(cfg)
	s.AddGraph("fig2", twoCliques())
	return s
}

func TestEnumerateAndCacheHit(t *testing.T) {
	s := testServer(Config{})
	ctx := context.Background()

	first, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first query claimed to be cached")
	}
	if len(first.Components) != 2 {
		t.Fatalf("got %d components, want 2", len(first.Components))
	}
	want := []int64{0, 1, 2, 3, 4}
	got := first.Components[0].Vertices
	if len(got) != len(want) {
		t.Fatalf("component 0 = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("component 0 = %v, want %v", got, want)
		}
	}

	second, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeated query was not served from cache")
	}

	stats := s.Stats()
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v, want hits=1 misses=1", stats.Cache)
	}
	if stats.Enumerations.Started != 1 {
		t.Fatalf("enumerations started = %d, want 1 (cache hit must not re-run the algorithm)",
			stats.Enumerations.Started)
	}
}

func TestEnumerateIncludeMetrics(t *testing.T) {
	s := testServer(Config{})
	resp, err := s.Enumerate(context.Background(), EnumerateRequest{
		Graph: "fig2", K: 3, IncludeMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Metrics == nil || resp.Metrics.Count != 2 {
		t.Fatalf("avg metrics = %+v, want count 2", resp.Metrics)
	}
	for i, c := range resp.Components {
		if c.Metrics == nil {
			t.Fatalf("component %d has no metrics", i)
		}
		// Each side is a K5: diameter 1, density 1.
		if c.Metrics.Diameter != 1 || c.Metrics.Density != 1 {
			t.Fatalf("component %d metrics = %+v, want diameter 1 density 1", i, c.Metrics)
		}
	}
}

// TestConcurrentDedup fires identical queries at once and checks the
// singleflight layer collapsed them into a single enumeration.
func TestConcurrentDedup(t *testing.T) {
	slowEnumerations(t, 100*time.Millisecond)
	s := testServer(Config{})

	const callers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := s.Enumerate(context.Background(), EnumerateRequest{Graph: "fig2", K: 3})
			if err == nil && len(resp.Components) == 0 {
				err = errors.New("no components")
			}
			errs[i] = err
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}

	stats := s.Stats()
	if stats.Enumerations.Started != 1 {
		t.Fatalf("enumerations started = %d, want 1 (concurrent identical requests must dedup)",
			stats.Enumerations.Started)
	}
	if got := stats.Cache.Hits + stats.Enumerations.Deduped; got != callers-1 {
		t.Fatalf("hits (%d) + deduped (%d) = %d, want %d",
			stats.Cache.Hits, stats.Enumerations.Deduped, got, callers-1)
	}
}

func TestBadRequests(t *testing.T) {
	s := testServer(Config{MaxK: 10})
	ctx := context.Background()
	cases := []struct {
		name string
		req  EnumerateRequest
		want error
	}{
		{"unknown graph", EnumerateRequest{Graph: "nope", K: 3}, ErrUnknownGraph},
		{"k too small", EnumerateRequest{Graph: "fig2", K: 1}, ErrBadRequest},
		{"k over limit", EnumerateRequest{Graph: "fig2", K: 11}, ErrBadRequest},
		{"bad algorithm", EnumerateRequest{Graph: "fig2", K: 3, Algorithm: "nope"}, ErrBadRequest},
	}
	for _, tc := range cases {
		if _, err := s.Enumerate(ctx, tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestAlgorithmVariantsAgree(t *testing.T) {
	s := testServer(Config{})
	ctx := context.Background()
	var sizes []int
	for _, algo := range []string{"basic", "ns", "gs", "star", "VCCE*"} {
		resp, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3, Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		sizes = append(sizes, len(resp.Components))
	}
	for i, n := range sizes {
		if n != 2 {
			t.Fatalf("variant %d found %d components, want 2", i, n)
		}
	}
	// "star" and "VCCE*" are the same key: 4 distinct variants, 5 calls.
	if misses := s.Stats().Cache.Misses; misses != 4 {
		t.Fatalf("cache misses = %d, want 4 (one per distinct algorithm)", misses)
	}
}

func TestComponentsContaining(t *testing.T) {
	s := testServer(Config{})
	ctx := context.Background()

	// Vertex 3 sits in the overlap of the two 3-VCCs.
	resp, err := s.ComponentsContaining(ctx, ContainingRequest{Graph: "fig2", K: 3, Vertex: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Indices) != 2 || len(resp.Components) != 2 {
		t.Fatalf("vertex 3: indices %v, want 2 components", resp.Indices)
	}
	// Vertex 0 is only in the first clique.
	resp, err = s.ComponentsContaining(ctx, ContainingRequest{Graph: "fig2", K: 3, Vertex: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Indices) != 1 {
		t.Fatalf("vertex 0: indices %v, want 1 component", resp.Indices)
	}
	if !resp.Cached {
		t.Fatal("second containing query should reuse the cached enumeration")
	}
}

func TestOverlap(t *testing.T) {
	s := testServer(Config{})
	resp, err := s.Overlap(context.Background(), OverlapRequest{Graph: "fig2", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := resp.Matrix
	if len(m) != 2 {
		t.Fatalf("matrix %v, want 2x2", m)
	}
	if m[0][1] != 2 || m[1][0] != 2 {
		t.Fatalf("overlap = %d, want 2 shared vertices", m[0][1])
	}
	if m[0][0] != 5 || m[1][1] != 5 {
		t.Fatalf("diagonal = %d/%d, want component sizes 5/5", m[0][0], m[1][1])
	}
}

func TestAddGraphReplaceInvalidatesCache(t *testing.T) {
	s := testServer(Config{})
	ctx := context.Background()
	if _, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3}); err != nil {
		t.Fatal(err)
	}

	// Replace with a single K5: one 3-VCC. A stale cache would report 2.
	s.AddGraph("fig2", cliques([]int64{0, 1, 2, 3, 4}))

	resp, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached || len(resp.Components) != 1 {
		t.Fatalf("after replace: cached=%v components=%d, want fresh single component",
			resp.Cached, len(resp.Components))
	}
}

// TestReplaceMidFlightServesNewGraph pins down the generation-keyed
// cache: an enumeration still in flight when its graph is replaced must
// not serve (or cache) old-graph results under the new graph's name.
func TestReplaceMidFlightServesNewGraph(t *testing.T) {
	slowEnumerations(t, 150*time.Millisecond)
	s := testServer(Config{})
	ctx := context.Background()

	inFlight := make(chan struct{}, 1)
	go func() {
		s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3}) // old graph: 2 components
		inFlight <- struct{}{}
	}()
	time.Sleep(50 * time.Millisecond) // leader is now inside the slow hook

	// Replace with a single K5 (one 3-VCC) while the old flight runs.
	s.AddGraph("fig2", cliques([]int64{0, 1, 2, 3, 4}))

	resp, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Components) != 1 {
		t.Fatalf("query after replace got %d components (old graph?), want 1", len(resp.Components))
	}
	<-inFlight // let the old flight finish and cache under its old generation

	after, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Components) != 1 {
		t.Fatalf("old flight poisoned the cache: %d components, want 1", len(after.Components))
	}
	if !after.Cached {
		t.Fatal("new-graph result was not cached")
	}
	if size := s.Stats().Cache.Size; size != 1 {
		t.Fatalf("cache holds %d entries, want 1 (stale-generation result must not occupy a slot)", size)
	}
}

// TestRequestTimeoutDoesNotCancelCompute verifies the detached-compute
// contract: a request that times out still leaves the enumeration running,
// and its result lands in the cache for later requests.
func TestRequestTimeoutDoesNotCancelCompute(t *testing.T) {
	slowEnumerations(t, 100*time.Millisecond)
	s := testServer(Config{})
	ctx := context.Background()

	_, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3, TimeoutMillis: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}

	// The flight keeps running in the background; poll until it lands.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3})
		if err == nil {
			if !resp.Cached && !resp.Deduped {
				t.Fatalf("follow-up ran a fresh enumeration (cached=%v deduped=%v)",
					resp.Cached, resp.Deduped)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background enumeration never completed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if started := s.Stats().Enumerations.Started; started != 1 {
		t.Fatalf("enumerations started = %d, want 1", started)
	}
}

// TestHTTPEndToEnd drives the full stack — client, wire format, handlers —
// against a live test server.
func TestHTTPEndToEnd(t *testing.T) {
	s := testServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	if err := client.Health(ctx); err != nil {
		t.Fatal(err)
	}
	graphs, err := client.Graphs(ctx)
	if err != nil || len(graphs) != 1 || graphs[0].Name != "fig2" {
		t.Fatalf("graphs = %v, err = %v", graphs, err)
	}

	first, err := client.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || len(first.Components) != 2 || first.Algorithm != "VCCE*" {
		t.Fatalf("first = %+v", first)
	}
	if first.Stats.GlobalCutCalls == 0 {
		t.Fatal("stats did not survive the wire")
	}

	second, err := client.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat over HTTP was not a cache hit")
	}

	containing, err := client.ComponentsContaining(ctx, ContainingRequest{Graph: "fig2", K: 3, Vertex: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(containing.Indices) != 2 {
		t.Fatalf("containing = %+v, want 2 components", containing)
	}

	overlap, err := client.Overlap(ctx, OverlapRequest{Graph: "fig2", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if overlap.Matrix[0][1] != 2 {
		t.Fatalf("overlap = %v", overlap.Matrix)
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits < 1 || stats.Enumerations.Started != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestHTTPErrors(t *testing.T) {
	s := testServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	_, err := client.Enumerate(ctx, EnumerateRequest{Graph: "nope", K: 3})
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown graph err = %v, want 404", err)
	}
	_, err = client.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 0})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad k err = %v, want 400", err)
	}
}

// TestLoadGraphFile exercises the streaming file-ingestion path behind
// kvccd's -graph flag: a SNAP-style file (comments, tabs, duplicates,
// self-loops) must register and serve identically to an AddGraph of the
// same structure, and a malformed file must fail with a line-numbered
// error rather than a panic.
func TestLoadGraphFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "twocliques.txt")
	var sb strings.Builder
	sb.WriteString("# two K5s sharing {3,4}\n")
	g := twoCliques()
	for _, e := range g.Edges(nil) {
		fmt.Fprintf(&sb, "%d\t%d\n", g.Label(e[0]), g.Label(e[1]))
	}
	sb.WriteString("3 3\n")  // self-loop, dropped
	sb.WriteString("0\t1\n") // duplicate, dropped
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Config{})
	if err := s.LoadGraphFile("file", path); err != nil {
		t.Fatal(err)
	}
	s.AddGraph("mem", twoCliques())

	ctx := context.Background()
	fromFile, err := s.Enumerate(ctx, EnumerateRequest{Graph: "file", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	fromMem, err := s.Enumerate(ctx, EnumerateRequest{Graph: "mem", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(fromFile.Components) != len(fromMem.Components) {
		t.Fatalf("file-served %d components, mem-served %d",
			len(fromFile.Components), len(fromMem.Components))
	}
	for i := range fromFile.Components {
		a, b := fromFile.Components[i].Vertices, fromMem.Components[i].Vertices
		if len(a) != len(b) {
			t.Fatalf("component %d sizes differ", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("component %d differs: %v vs %v", i, a, b)
			}
		}
	}

	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("1 2\nnot numbers\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadGraphFile("bad", bad); err == nil {
		t.Fatal("malformed file must fail to load")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error should cite the bad line: %v", err)
	}
}
