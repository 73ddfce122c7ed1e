package server

import (
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"kvcc"
	"kvcc/graph"
)

// cliqueAndCycle builds a K6 (labels 0..5) plus a disjoint 4-cycle
// (labels 10..13): the clique is a k-VCC up to k=5, the cycle only at
// k=2, so edits inside the cycle must leave deep levels untouched.
func cliqueAndCycle() *graph.Graph {
	return cliques([]int64{0, 1, 2, 3, 4, 5},
		[]int64{10, 11}, []int64{11, 12}, []int64{12, 13}, []int64{13, 10})
}

func TestEditsVersionScopedInvalidation(t *testing.T) {
	s := New(Config{})
	s.AddGraph("g", cliqueAndCycle())
	ctx := context.Background()

	// Warm the cache at k=2 (clique + cycle) and k=4 (clique only).
	k2, err := s.Enumerate(ctx, EnumerateRequest{Graph: "g", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(k2.Components) != 2 {
		t.Fatalf("k=2: %d components, want 2", len(k2.Components))
	}
	if _, err := s.Enumerate(ctx, EnumerateRequest{Graph: "g", K: 4}); err != nil {
		t.Fatal(err)
	}

	// Break the cycle: affects k<=2, provably not k=4.
	resp, err := s.Edits(ctx, EditsRequest{Graph: "g", Deletes: [][2]int64{{10, 11}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.AppliedDeletes != 1 || resp.Version != 2 {
		t.Fatalf("edit response = %+v, want 1 applied delete at version 2", resp)
	}
	if resp.AffectedMaxK != 2 {
		t.Fatalf("AffectedMaxK = %d, want 2", resp.AffectedMaxK)
	}
	if resp.CacheKept != 1 || resp.CacheInvalidated != 1 {
		t.Fatalf("cache kept/invalidated = %d/%d, want 1/1", resp.CacheKept, resp.CacheInvalidated)
	}

	// The k=4 entry migrated: still served from cache, no recomputation.
	k4, err := s.Enumerate(ctx, EnumerateRequest{Graph: "g", K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !k4.Cached {
		t.Fatal("k=4 result was invalidated by an edit that could not affect it")
	}

	// The k=2 entry dropped, but its result seeds an incremental run that
	// reuses the untouched clique component outright.
	k2b, err := s.Enumerate(ctx, EnumerateRequest{Graph: "g", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if k2b.Cached {
		t.Fatal("k=2 was served from a stale cache entry")
	}
	if len(k2b.Components) != 1 {
		t.Fatalf("k=2 after cycle break: %d components, want 1", len(k2b.Components))
	}
	if k2b.Stats.ComponentsReused != 1 || k2b.Stats.ComponentsRecomputed != 0 {
		t.Fatalf("reused/recomputed = %d/%d, want 1/0 (the clique is untouched)",
			k2b.Stats.ComponentsReused, k2b.Stats.ComponentsRecomputed)
	}

	st := s.Stats()
	if st.Enumerations.Edits != 1 {
		t.Fatalf("EnumStats.Edits = %d, want 1", st.Enumerations.Edits)
	}
	if st.Enumerations.IncrementalRuns != 1 || st.Enumerations.ComponentsReused != 1 {
		t.Fatalf("incremental stats = %d runs / %d reused, want 1/1",
			st.Enumerations.IncrementalRuns, st.Enumerations.ComponentsReused)
	}
}

// TestEditsWhileLeaderHeld: a flight leader that read a stale entry as
// its seed is still computing when an edit batch retires its generation.
// The late leader must neither cache its result nor disturb the entry the
// migration kept, and the first enumeration on the new generation must
// still run incrementally from the stale entry.
func TestEditsWhileLeaderHeld(t *testing.T) {
	s := New(Config{})
	s.AddGraph("g", cliqueAndCycle())
	ctx := context.Background()
	for _, k := range []int{2, 4} {
		if _, err := s.Enumerate(ctx, EnumerateRequest{Graph: "g", K: k}); err != nil {
			t.Fatal(err)
		}
	}
	// Break the cycle: the k=2 entry goes stale, the k=4 entry is kept.
	if _, err := s.Edits(ctx, EditsRequest{Graph: "g", Deletes: [][2]int64{{10, 11}}}); err != nil {
		t.Fatal(err)
	}

	// Hold the first leader on the new generation at k=2.
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	testHookEnumerateStarted = func() { once.Do(func() { close(started); <-release }) }
	t.Cleanup(func() { testHookEnumerateStarted = nil })
	done := make(chan error, 1)
	go func() {
		_, err := s.Enumerate(ctx, EnumerateRequest{Graph: "g", K: 2})
		done <- err
	}()
	select {
	case <-started:
	case err := <-done:
		t.Fatalf("k=2 on the new generation returned without enumerating (err %v)", err)
	}

	// A batch far from every k-core (k <= 1) retires the leader's generation.
	resp, err := s.Edits(ctx, EditsRequest{Graph: "g", Inserts: [][2]int64{{20, 21}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheKept != 1 || resp.CacheInvalidated != 0 {
		t.Fatalf("cache kept/invalidated = %d/%d, want 1/0", resp.CacheKept, resp.CacheInvalidated)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Enumerations.IncrementalRuns != 0 {
		t.Fatalf("the retired leader counted %d incremental runs", st.Enumerations.IncrementalRuns)
	}

	k4, err := s.Enumerate(ctx, EnumerateRequest{Graph: "g", K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !k4.Cached {
		t.Fatal("the kept k=4 entry is no longer served from cache")
	}
	k2, err := s.Enumerate(ctx, EnumerateRequest{Graph: "g", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if k2.Cached || len(k2.Components) != 1 {
		t.Fatalf("k=2: cached=%v with %d components, want a fresh single clique", k2.Cached, len(k2.Components))
	}
	st := s.Stats()
	if st.Enumerations.IncrementalRuns != 1 || st.Enumerations.ComponentsReused != 1 {
		t.Fatalf("incremental stats = %d runs / %d reused, want 1/1",
			st.Enumerations.IncrementalRuns, st.Enumerations.ComponentsReused)
	}
}

func TestEditsNoopBatch(t *testing.T) {
	s := New(Config{})
	s.AddGraph("g", cliqueAndCycle())
	ctx := context.Background()
	if _, err := s.Enumerate(ctx, EnumerateRequest{Graph: "g", K: 3}); err != nil {
		t.Fatal(err)
	}
	// Insert an existing edge, delete an absent one: nothing changes.
	resp, err := s.Edits(ctx, EditsRequest{
		Graph:   "g",
		Inserts: [][2]int64{{0, 1}},
		Deletes: [][2]int64{{0, 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.AppliedInserts != 0 || resp.AppliedDeletes != 0 || resp.NoopEdits != 2 {
		t.Fatalf("noop batch reported %+v", resp)
	}
	if resp.Version != 1 || resp.IndexRepair != "none" {
		t.Fatalf("noop batch moved state: %+v", resp)
	}
	second, err := s.Enumerate(ctx, EnumerateRequest{Graph: "g", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("noop batch invalidated the cache")
	}
}

func TestEditsUnknownGraph(t *testing.T) {
	s := New(Config{})
	_, err := s.Edits(context.Background(), EditsRequest{Graph: "nope", Inserts: [][2]int64{{1, 2}}})
	if !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("err = %v, want ErrUnknownGraph", err)
	}
}

// TestEditsIncrementalEqualsCold replays random edit scripts through the
// server and diffs every queried level against a from-scratch
// enumeration of an identically edited local graph.
func TestEditsIncrementalEqualsCold(t *testing.T) {
	base := twoCliques()
	s := New(Config{})
	s.AddGraph("g", base)
	shadow := graph.NewDelta(base)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))

	for round := 0; round < 8; round++ {
		var ins, del [][2]int64
		for j := 0; j < 4; j++ {
			a, b := rng.Int63n(12), rng.Int63n(12)
			if rng.Intn(2) == 0 {
				ins = append(ins, [2]int64{a, b})
			} else {
				del = append(del, [2]int64{a, b})
			}
		}
		if _, err := s.Edits(ctx, EditsRequest{Graph: "g", Inserts: ins, Deletes: del}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, e := range ins {
			shadow.InsertEdge(e[0], e[1])
		}
		for _, e := range del {
			shadow.DeleteEdge(e[0], e[1])
		}
		want := shadow.Compact()
		for k := 2; k <= 4; k++ {
			got, err := s.Enumerate(ctx, EnumerateRequest{Graph: "g", K: k})
			if err != nil {
				t.Fatalf("round %d k=%d: %v", round, k, err)
			}
			cold, err := kvcc.Enumerate(want, k)
			if err != nil {
				t.Fatalf("round %d k=%d cold: %v", round, k, err)
			}
			coldWire := wireComponents(cold.Components, false)
			if len(got.Components) != len(coldWire) {
				t.Fatalf("round %d k=%d: %d components, cold has %d",
					round, k, len(got.Components), len(coldWire))
			}
			for i := range coldWire {
				if !reflect.DeepEqual(got.Components[i].Vertices, coldWire[i].Vertices) {
					t.Fatalf("round %d k=%d component %d:\n  got  %v\n  want %v",
						round, k, i, got.Components[i].Vertices, coldWire[i].Vertices)
				}
			}
		}
	}
}

func TestRemoveGraph(t *testing.T) {
	s := New(Config{BuildIndex: true})
	s.AddGraph("g", twoCliques())
	ctx := context.Background()
	if _, err := s.Enumerate(ctx, EnumerateRequest{Graph: "g", K: 3}); err != nil {
		t.Fatal(err)
	}
	if !s.RemoveGraph("g") {
		t.Fatal("RemoveGraph returned false for a registered graph")
	}
	if s.RemoveGraph("g") {
		t.Fatal("RemoveGraph returned true for an absent graph")
	}
	if infos := s.Graphs(); len(infos) != 0 {
		t.Fatalf("graphs after removal: %v", infos)
	}
	if _, err := s.Enumerate(ctx, EnumerateRequest{Graph: "g", K: 3}); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("enumerate after removal: %v, want ErrUnknownGraph", err)
	}
	if st := s.Stats(); st.Cache.Size != 0 || len(st.Indexes) != 0 {
		t.Fatalf("removal left cache size %d, %d indexes", st.Cache.Size, len(st.Indexes))
	}
}

func TestGraphInfoVersionAndModified(t *testing.T) {
	s := New(Config{})
	s.AddGraph("g", twoCliques())
	infos := s.Graphs()
	if len(infos) != 1 {
		t.Fatalf("graphs = %v", infos)
	}
	if infos[0].Version != 1 || infos[0].ModifiedAt.IsZero() {
		t.Fatalf("fresh graph info = %+v, want version 1 and a modified time", infos[0])
	}
	before := infos[0].ModifiedAt
	if _, err := s.Edits(context.Background(), EditsRequest{Graph: "g", Inserts: [][2]int64{{0, 7}}}); err != nil {
		t.Fatal(err)
	}
	infos = s.Graphs()
	if infos[0].Version <= 1 {
		t.Fatalf("version after edit = %d, want > 1", infos[0].Version)
	}
	if infos[0].ModifiedAt.Before(before) {
		t.Fatalf("modified time went backwards: %v -> %v", before, infos[0].ModifiedAt)
	}
}

// TestEditsHTTPRoundTrip drives the edits and remove endpoints through
// the HTTP handler and Go client.
func TestEditsHTTPRoundTrip(t *testing.T) {
	s := New(Config{})
	s.AddGraph("g", cliqueAndCycle())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	resp, err := c.Edits(ctx, EditsRequest{Graph: "g", Deletes: [][2]int64{{10, 11}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.AppliedDeletes != 1 || resp.Version != 2 {
		t.Fatalf("edit over HTTP = %+v", resp)
	}
	infos, err := c.Graphs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Version != 2 {
		t.Fatalf("graphs over HTTP = %+v, want version 2", infos)
	}
	enum, err := c.Enumerate(ctx, EnumerateRequest{Graph: "g", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(enum.Components) != 1 {
		t.Fatalf("k=2 after edit: %d components, want 1", len(enum.Components))
	}
	if err := c.RemoveGraph(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveGraph(ctx, "g"); err == nil {
		t.Fatal("removing an absent graph must fail")
	}
	if _, err := c.Enumerate(ctx, EnumerateRequest{Graph: "g", K: 2}); err == nil {
		t.Fatal("enumerate after removal must fail")
	}
}

// TestConcurrentEditsAndQueries hammers the edits path against enumerate
// and components-containing queries on the same graph. Under -race (the
// CI server matrix) this is the data-race guard for the server's dynamic
// layer: edits serialize on editMu and install snapshots under s.mu,
// while queries only ever see immutable (graph, generation) pairs.
func TestConcurrentEditsAndQueries(t *testing.T) {
	s := New(Config{})
	s.AddGraph("g", cliqueAndCycle())
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 40; i++ {
			var ins, del [][2]int64
			for j := 0; j < 2; j++ {
				a, b := rng.Int63n(16), rng.Int63n(16)
				if rng.Intn(2) == 0 {
					ins = append(ins, [2]int64{a, b})
				} else {
					del = append(del, [2]int64{a, b})
				}
			}
			if _, err := s.Edits(context.Background(), EditsRequest{Graph: "g", Inserts: ins, Deletes: del}); err != nil {
				t.Errorf("edits: %v", err)
				return
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := 2 + rng.Intn(3)
				if _, err := s.Enumerate(context.Background(), EnumerateRequest{Graph: "g", K: k}); err != nil {
					t.Errorf("enumerate: %v", err)
					return
				}
				if _, err := s.ComponentsContaining(context.Background(), ContainingRequest{
					Graph: "g", K: k, Vertex: rng.Int63n(16),
				}); err != nil {
					t.Errorf("containing: %v", err)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
}
