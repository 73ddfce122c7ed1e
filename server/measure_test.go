package server

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestMeasureEnumerateBasics serves all three measures for the fig2 graph
// and checks the wire contract: non-default measures are named in the
// response and carry no algorithm, the default measure keeps its
// algorithm, and the results realize the nesting property (the two 4-VCC
// cliques both sit inside the single 4-ECC, which equals the 4-core).
func TestMeasureEnumerateBasics(t *testing.T) {
	s := testServer(Config{})
	ctx := context.Background()

	kv, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if kv.Measure != "" || kv.Algorithm == "" {
		t.Fatalf("kvcc response: measure=%q algorithm=%q, want empty measure and a named algorithm",
			kv.Measure, kv.Algorithm)
	}
	if len(kv.Components) != 2 {
		t.Fatalf("4-VCCs: got %d components, want 2", len(kv.Components))
	}

	ke, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 4, Measure: "kecc"})
	if err != nil {
		t.Fatal(err)
	}
	if ke.Measure != "kecc" || ke.Algorithm != "" {
		t.Fatalf("kecc response: measure=%q algorithm=%q", ke.Measure, ke.Algorithm)
	}
	if len(ke.Components) != 1 || ke.Components[0].NumVertices != 8 {
		t.Fatalf("4-ECCs: %+v, want one 8-vertex component", ke.Components)
	}

	kc, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 4, Measure: "kcore"})
	if err != nil {
		t.Fatal(err)
	}
	if kc.Measure != "kcore" || kc.Algorithm != "" {
		t.Fatalf("kcore response: measure=%q algorithm=%q", kc.Measure, kc.Algorithm)
	}
	if len(kc.Components) != 1 || kc.Components[0].NumVertices != 8 {
		t.Fatalf("4-core components: %+v, want one 8-vertex component", kc.Components)
	}

	// Nesting: every 4-VCC vertex is in the single 4-ECC.
	in := make(map[int64]bool)
	for _, v := range ke.Components[0].Vertices {
		in[v] = true
	}
	for _, c := range kv.Components {
		for _, v := range c.Vertices {
			if !in[v] {
				t.Fatalf("4-VCC vertex %d outside the 4-ECC", v)
			}
		}
	}

	// An explicit algorithm is a kvcc-only knob.
	if _, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 4, Measure: "kecc", Algorithm: "star"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("kecc with explicit algorithm: err = %v, want ErrBadRequest", err)
	}
	if _, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 4, Measure: "bogus"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown measure: err = %v, want ErrBadRequest", err)
	}
}

// TestKVCCWireBytesHaveNoMeasure pins the byte-compatibility promise: a
// request that does not name a measure produces JSON with no "measure"
// key anywhere, i.e. exactly the pre-measure wire format.
func TestKVCCWireBytesHaveNoMeasure(t *testing.T) {
	s := testServer(Config{})
	ctx := context.Background()

	enum, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3, IncludeMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	cont, err := s.ComponentsContaining(ctx, ContainingRequest{Graph: "fig2", K: 3, Vertex: 3})
	if err != nil {
		t.Fatal(err)
	}
	over, err := s.Overlap(ctx, OverlapRequest{Graph: "fig2", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]any{"enumerate": enum, "containing": cont, "overlap": over} {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(raw), `"measure"`) {
			t.Fatalf("%s response for a measure-less request leaks a measure field: %s", name, raw)
		}
	}
}

// TestMeasureIndexServedByteEqualsEnumerated mirrors the kvcc
// byte-equality test for the two new measures: with the kvcc index built
// eagerly and the kecc and kcore indexes built on demand by the hierarchy
// endpoint, an index-served kecc/kcore answer must be byte-identical to
// what a plain server's enumeration path returns.
func TestMeasureIndexServedByteEqualsEnumerated(t *testing.T) {
	g := indexTestGraph()
	indexed := New(Config{BuildIndex: true})
	indexed.AddGraph("g", g)
	plain := New(Config{})
	plain.AddGraph("g", g)
	ctx := context.Background()

	for _, measure := range []string{"kecc", "kcore"} {
		hier, err := indexed.Hierarchy(ctx, HierarchyRequest{Graph: "g", Measure: measure})
		if err != nil {
			t.Fatalf("%s hierarchy wait: %v", measure, err)
		}
		if hier.Measure != measure {
			t.Fatalf("hierarchy response measure = %q, want %q", hier.Measure, measure)
		}
		for k := 2; k <= hier.MaxK+1; k++ {
			a, err := indexed.Enumerate(ctx, EnumerateRequest{Graph: "g", K: k, Measure: measure, IncludeMetrics: true})
			if err != nil {
				t.Fatalf("indexed %s enumerate k=%d: %v", measure, k, err)
			}
			if !a.IndexServed {
				t.Fatalf("%s k=%d not index-served with a ready index", measure, k)
			}
			b, err := plain.Enumerate(ctx, EnumerateRequest{Graph: "g", K: k, Measure: measure, IncludeMetrics: true})
			if err != nil {
				t.Fatalf("plain %s enumerate k=%d: %v", measure, k, err)
			}
			if b.IndexServed || b.Cached {
				t.Fatalf("%s k=%d: plain server served from index/cache on first query", measure, k)
			}
			aj, _ := json.Marshal(a.Components)
			bj, _ := json.Marshal(b.Components)
			if string(aj) != string(bj) {
				t.Fatalf("%s k=%d: index-served components differ from enumerated:\n%s\nvs\n%s", measure, k, aj, bj)
			}
			am, _ := json.Marshal(a.Metrics)
			bm, _ := json.Marshal(b.Metrics)
			if string(am) != string(bm) {
				t.Fatalf("%s k=%d: metrics differ: %s vs %s", measure, k, am, bm)
			}
		}
	}

	// All three indexes must be visible, one per measure, all ready.
	infos := indexed.Stats().Indexes
	if len(infos) != 3 {
		t.Fatalf("stats list %d indexes, want 3: %+v", len(infos), infos)
	}
	seen := map[string]bool{}
	for _, info := range infos {
		if info.State != "ready" {
			t.Fatalf("index %+v not ready", info)
		}
		name := info.Measure
		if name == "" {
			name = "kvcc"
		}
		seen[name] = true
	}
	for _, m := range []string{"kvcc", "kecc", "kcore"} {
		if !seen[m] {
			t.Fatalf("no %s index in stats: %+v", m, infos)
		}
	}
}

// TestMeasureBatchAndCache sends a kecc batch and checks the repeat is
// cache-served, sharing nothing with the kvcc cache entries at the same k.
func TestMeasureBatchAndCache(t *testing.T) {
	s := testServer(Config{})
	ctx := context.Background()

	batch, err := s.EnumerateBatch(ctx, BatchEnumerateRequest{Graph: "fig2", Ks: []int{2, 3, 4}, Measure: "kcore"})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Measure != "kcore" || len(batch.Results) != 3 {
		t.Fatalf("batch: measure=%q results=%d", batch.Measure, len(batch.Results))
	}
	for _, r := range batch.Results {
		if len(r.Components) != 1 || r.Components[0].NumVertices != 8 {
			t.Fatalf("kcore batch k=%d: %+v, want one 8-vertex component", r.K, r.Components)
		}
	}

	// Same k under a different measure must not alias the kcore entry:
	// the kvcc result at k=3 has two components, not one.
	kv, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if kv.Cached || len(kv.Components) != 2 {
		t.Fatalf("kvcc after kcore at k=3: cached=%v components=%d, want fresh result with 2", kv.Cached, len(kv.Components))
	}

	repeat, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3, Measure: "kcore"})
	if err != nil {
		t.Fatal(err)
	}
	if !repeat.Cached {
		t.Fatal("kcore repeat at k=3 not cache-served")
	}
}

// TestStatsMeasureCounters checks the per-measure serving-ladder split.
func TestStatsMeasureCounters(t *testing.T) {
	s := testServer(Config{})
	ctx := context.Background()

	mustEnum := func(req EnumerateRequest) {
		t.Helper()
		if _, err := s.Enumerate(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	mustEnum(EnumerateRequest{Graph: "fig2", K: 3})
	mustEnum(EnumerateRequest{Graph: "fig2", K: 3, Measure: "kecc"})
	mustEnum(EnumerateRequest{Graph: "fig2", K: 3, Measure: "kecc"})
	mustEnum(EnumerateRequest{Graph: "fig2", K: 3, Measure: "kcore"})

	m := s.Stats().Enumerations.Measures
	if got := m["kvcc"]; got.Enumerations != 1 || got.CacheHits != 0 {
		t.Fatalf("kvcc counters = %+v", got)
	}
	if got := m["kecc"]; got.Enumerations != 1 || got.CacheHits != 1 {
		t.Fatalf("kecc counters = %+v", got)
	}
	if got := m["kcore"]; got.Enumerations != 1 {
		t.Fatalf("kcore counters = %+v", got)
	}
}
