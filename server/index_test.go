package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kvcc/cohesion"
	"kvcc/gen"
	"kvcc/graph"
)

// indexTestGraph is a planted-community graph with enough structure that
// levels 2..6 are all non-trivial.
func indexTestGraph() *graph.Graph {
	g, _ := gen.Planted(gen.PlantedConfig{
		Communities: 5, MinSize: 8, MaxSize: 12, IntraProb: 0.85,
		ChainOverlap: 2, ChainEvery: 2, BridgeEdges: 3,
		NoiseVertices: 40, NoiseDegree: 2, Seed: 21,
	})
	return g
}

// waitForIndex blocks until the named graph's index is ready (building on
// demand if necessary) and fails the test on error.
func waitForIndex(t *testing.T, s *Server, name string) *HierarchyResponse {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	resp, err := s.Hierarchy(ctx, HierarchyRequest{Graph: name})
	if err != nil {
		t.Fatalf("hierarchy wait: %v", err)
	}
	return resp
}

// An index-served response must be byte-for-byte identical — components,
// indices, metrics — to what the cache/enumeration path returns for the
// same query. Two servers over the same graph provide the two paths.
func TestIndexServedByteEqualsCacheServed(t *testing.T) {
	g := indexTestGraph()
	indexed := New(Config{BuildIndex: true})
	indexed.AddGraph("g", g)
	plain := New(Config{})
	plain.AddGraph("g", g)
	ctx := context.Background()

	hier := waitForIndex(t, indexed, "g")
	if !hier.Complete {
		t.Fatal("full-depth build must report complete")
	}

	for k := 2; k <= hier.MaxK+1; k++ {
		a, err := indexed.Enumerate(ctx, EnumerateRequest{Graph: "g", K: k, IncludeMetrics: true})
		if err != nil {
			t.Fatalf("indexed enumerate k=%d: %v", k, err)
		}
		if !a.IndexServed {
			t.Fatalf("k=%d not index-served with a ready complete index", k)
		}
		if _, err := plain.Enumerate(ctx, EnumerateRequest{Graph: "g", K: k, IncludeMetrics: true}); err != nil {
			t.Fatalf("plain enumerate k=%d: %v", k, err)
		}
		b, err := plain.Enumerate(ctx, EnumerateRequest{Graph: "g", K: k, IncludeMetrics: true})
		if err != nil {
			t.Fatalf("plain enumerate (repeat) k=%d: %v", k, err)
		}
		if !b.Cached {
			t.Fatalf("k=%d repeat not cache-served", k)
		}
		aj, _ := json.Marshal(a.Components)
		bj, _ := json.Marshal(b.Components)
		if string(aj) != string(bj) {
			t.Fatalf("k=%d: index-served components differ from cache-served:\n%s\nvs\n%s", k, aj, bj)
		}
		am, _ := json.Marshal(a.Metrics)
		bm, _ := json.Marshal(b.Metrics)
		if string(am) != string(bm) {
			t.Fatalf("k=%d: metrics differ: %s vs %s", k, am, bm)
		}
	}

	// Containing lookups must agree on indices and bodies too.
	for _, v := range []int64{0, 5, 11} {
		a, err := indexed.ComponentsContaining(ctx, ContainingRequest{Graph: "g", K: 3, Vertex: v})
		if err != nil {
			t.Fatal(err)
		}
		if !a.IndexServed {
			t.Fatal("containing lookup not index-served")
		}
		b, err := plain.ComponentsContaining(ctx, ContainingRequest{Graph: "g", K: 3, Vertex: v})
		if err != nil {
			t.Fatal(err)
		}
		aj, _ := json.Marshal([]any{a.Indices, a.Components})
		bj, _ := json.Marshal([]any{b.Indices, b.Components})
		if string(aj) != string(bj) {
			t.Fatalf("vertex %d: containing results differ:\n%s\nvs\n%s", v, aj, bj)
		}
	}
}

// Replacing a graph must atomically retire its index: queries between the
// replacement and the new build's completion fall back to enumeration of
// the NEW graph, and the rebuilt index serves the new structure.
func TestIndexGenerationInvalidation(t *testing.T) {
	s := New(Config{BuildIndex: true})
	s.AddGraph("g", twoCliques()) // two K5s sharing 2: 3-VCCs at k=3
	ctx := context.Background()

	if hier := waitForIndex(t, s, "g"); hier.MaxK != 4 {
		t.Fatalf("two K5s sharing 2 vertices: MaxK = %d, want 4", hier.MaxK)
	}
	first, err := s.Enumerate(ctx, EnumerateRequest{Graph: "g", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !first.IndexServed || len(first.Components) != 2 {
		t.Fatalf("expected 2 index-served components, got %d (indexServed=%v)",
			len(first.Components), first.IndexServed)
	}

	// Replace with one K6: a single component at every k <= 5.
	b := graph.NewBuilder(6)
	for i := int64(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			b.AddEdge(i, j)
		}
	}
	s.AddGraph("g", b.Build())

	// Immediately after the swap the old index must be unreachable: the
	// result must describe the K6 whichever rung serves it.
	mid, err := s.Enumerate(ctx, EnumerateRequest{Graph: "g", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(mid.Components) != 1 || mid.Components[0].NumVertices != 6 {
		t.Fatalf("post-replacement k=3 result describes the old graph: %+v", mid.Components)
	}

	if hier := waitForIndex(t, s, "g"); hier.MaxK != 5 {
		t.Fatalf("K6 hierarchy MaxK = %d, want 5", hier.MaxK)
	}
	after, err := s.Enumerate(ctx, EnumerateRequest{Graph: "g", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !after.IndexServed || len(after.Components) != 1 {
		t.Fatalf("rebuilt index did not serve k=5: %+v", after)
	}

	infos := s.Stats().Indexes
	if len(infos) != 1 || infos[0].State != "ready" || infos[0].TreeMaxK != 5 {
		t.Fatalf("index stats = %+v, want one ready index with tree max k 5", infos)
	}
}

// Concurrent queries, on-demand index waits, and graph replacements must
// be race-free (run under -race in CI) and every enumerate answer must
// describe the current graph content, which is identical across
// generations here.
func TestConcurrentIndexBuildAndQueries(t *testing.T) {
	s := New(Config{BuildIndex: true, Parallelism: 2})
	s.AddGraph("g", twoCliques())
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for w := 0; w < 6; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch (w + i) % 3 {
				case 0:
					resp, err := s.Enumerate(ctx, EnumerateRequest{Graph: "g", K: 3})
					if err != nil {
						errs <- err
						continue
					}
					if len(resp.Components) != 2 {
						errs <- fmt.Errorf("k=3: got %d components, want 2", len(resp.Components))
					}
				case 1:
					resp, err := s.Cohesion(ctx, CohesionRequest{Graph: "g", Vertices: []int64{3}})
					// A replacement may cancel the build this call waits
					// on; that surfaces as an index-build error, which is
					// an acceptable outcome for a query racing the swap.
					if err != nil {
						if !strings.Contains(err.Error(), "index build") {
							errs <- err
						}
						continue
					}
					if got := resp.Results[0].Cohesion; got != 4 {
						errs <- fmt.Errorf("cohesion(3) = %d, want 4", got)
					}
				case 2:
					resp, err := s.ComponentsContaining(ctx, ContainingRequest{Graph: "g", K: 3, Vertex: 0})
					if err != nil {
						errs <- err
						continue
					}
					if len(resp.Indices) != 1 {
						errs <- fmt.Errorf("vertex 0 in %d components, want 1", len(resp.Indices))
					}
				}
			}
		}()
	}
	// Replacements race the queries: same content, new generation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			s.AddGraph("g", twoCliques())
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A build that completed with an error must not be replayed forever: the
// next hierarchy/cohesion request starts a fresh build.
func TestFailedIndexBuildRetries(t *testing.T) {
	s := New(Config{})
	s.AddGraph("g", twoCliques())
	entry, err := s.lookup("g")
	if err != nil {
		t.Fatal(err)
	}
	failed := &graphIndex{
		graph:  "g",
		gen:    entry.gen,
		ready:  make(chan struct{}),
		cancel: func() {},
		err:    context.DeadlineExceeded,
	}
	close(failed.ready)
	s.indexMu.Lock()
	s.indexes[indexKey{graph: "g"}] = failed
	s.indexMu.Unlock()

	hier := waitForIndex(t, s, "g") // must retry, not replay the stale failure
	if hier.MaxK != 4 {
		t.Fatalf("retried build: MaxK = %d, want 4", hier.MaxK)
	}
}

// The hierarchy and cohesion endpoints build the index on demand even
// when BuildIndex is off, and validate their inputs.
func TestIndexOnDemandAndValidation(t *testing.T) {
	s := testServer(Config{}) // BuildIndex off
	ctx := context.Background()

	hier := waitForIndex(t, s, "fig2")
	if hier.MaxK != 4 || len(hier.Levels) != 4 {
		t.Fatalf("on-demand hierarchy: MaxK=%d levels=%d", hier.MaxK, len(hier.Levels))
	}
	resp, err := s.Cohesion(ctx, CohesionRequest{Graph: "fig2", Vertices: []int64{3, 0, 99}})
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 3 is in both K5s (cohesion 4); vertex 0 in one; 99 absent.
	if resp.Results[0].Cohesion != 4 || resp.Results[1].Cohesion != 4 || resp.Results[2].Cohesion != 0 {
		t.Fatalf("cohesion results = %+v", resp.Results)
	}
	if len(resp.Results[2].Path) != 0 {
		t.Fatal("absent vertex must have an empty path")
	}
	if len(resp.Results[0].Path) != 4 {
		t.Fatalf("vertex 3 path has %d steps, want 4", len(resp.Results[0].Path))
	}

	if _, err := s.Cohesion(ctx, CohesionRequest{Graph: "fig2"}); err == nil {
		t.Fatal("empty vertex list must be rejected")
	}
	if _, err := s.Cohesion(ctx, CohesionRequest{Graph: "missing", Vertices: []int64{1}}); err == nil {
		t.Fatal("unknown graph must be rejected")
	}
	if _, err := s.EnumerateBatch(ctx, BatchEnumerateRequest{Graph: "fig2"}); err == nil {
		t.Fatal("empty k list must be rejected")
	}
	tooMany := make([]int, maxBatchKs+1)
	for i := range tooMany {
		tooMany[i] = i + 2
	}
	if _, err := s.EnumerateBatch(ctx, BatchEnumerateRequest{Graph: "fig2", Ks: tooMany}); err == nil {
		t.Fatal("oversized batch must be rejected")
	}
	if _, err := s.EnumerateBatch(ctx, BatchEnumerateRequest{Graph: "fig2", Ks: []int{1}}); err == nil {
		t.Fatal("k=1 in a batch must be rejected")
	}
}

// The new endpoints round-trip through HTTP and the Go client.
func TestIndexEndpointsHTTP(t *testing.T) {
	s := New(Config{BuildIndex: true})
	s.AddGraph("g", indexTestGraph())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	hier, err := c.Hierarchy(ctx, HierarchyRequest{Graph: "g", IncludeComponents: true})
	if err != nil {
		t.Fatal(err)
	}
	if hier.MaxK < 3 || len(hier.Levels) != hier.MaxK {
		t.Fatalf("hierarchy: MaxK=%d levels=%d", hier.MaxK, len(hier.Levels))
	}
	for _, lvl := range hier.Levels {
		if len(lvl.ComponentSets) != lvl.Components {
			t.Fatalf("level %d: %d component sets, %d components", lvl.K, len(lvl.ComponentSets), lvl.Components)
		}
	}

	batch, err := c.EnumerateBatch(ctx, BatchEnumerateRequest{Graph: "g", Ks: []int{2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("batch returned %d results", len(batch.Results))
	}
	for i, k := range []int{2, 3, 4} {
		if batch.Results[i].K != k || !batch.Results[i].IndexServed {
			t.Fatalf("batch result %d: k=%d indexServed=%v", i, batch.Results[i].K, batch.Results[i].IndexServed)
		}
		if len(batch.Results[i].Components) != len(hier.Levels[k-1].ComponentSets) {
			t.Fatalf("batch k=%d has %d components, hierarchy says %d",
				k, len(batch.Results[i].Components), len(hier.Levels[k-1].ComponentSets))
		}
	}

	coh, err := c.Cohesion(ctx, CohesionRequest{Graph: "g", Vertices: []int64{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(coh.Results) != 2 || coh.Results[0].Vertex != 0 {
		t.Fatalf("cohesion results = %+v", coh.Results)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Indexes) != 1 || stats.Indexes[0].State != "ready" {
		t.Fatalf("stats indexes = %+v", stats.Indexes)
	}
	if stats.Enumerations.IndexServed < 3 {
		t.Fatalf("index-served count = %d, want >= 3", stats.Enumerations.IndexServed)
	}
}

// Index builds run VCCE*, the swept variant, not hierarchy.Options'
// zero-value VCCE: the built tree's work report must show vertices the
// neighbour and group sweeps skipped.
func TestIndexBuildUsesSweeps(t *testing.T) {
	s := New(Config{BuildIndex: true})
	defer s.Close()
	s.AddGraph("g", indexTestGraph())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ix, err := s.indexFor(ctx, "g", cohesion.KVCC)
	if err != nil {
		t.Fatal(err)
	}
	st := ix.tree.Stats.Core
	if swept := st.SweptNS1 + st.SweptNS2 + st.SweptGS; swept == 0 {
		t.Fatalf("index build swept no vertices (tested %d): not VCCE*", st.TestedNonPrune)
	}
}
