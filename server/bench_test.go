package server

import (
	"context"
	"testing"

	"kvcc/cohesion"
	"kvcc/gen"
	"kvcc/graph"
)

// benchGraph is a planted-community graph sized so the cold enumeration
// does real work: the cached path should beat it by orders of magnitude.
func benchGraph() *graph.Graph {
	g, _ := gen.Planted(gen.PlantedConfig{
		Communities: 12, MinSize: 40, MaxSize: 60, IntraProb: 0.4,
		ChainOverlap: 2, ChainEvery: 2, BridgeEdges: 10,
		NoiseVertices: 500, NoiseDegree: 4, Seed: 7,
	})
	return g
}

// BenchmarkEnumerateCold measures the uncached path: every iteration runs
// the full KVCC-ENUM algorithm (the cache is bypassed by a fresh server).
func BenchmarkEnumerateCold(b *testing.B) {
	g := benchGraph()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New(Config{})
		s.AddGraph("bench", g)
		b.StartTimer()
		if _, err := s.Enumerate(ctx, EnumerateRequest{Graph: "bench", K: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnyKIndexServed measures serving a rotating k from a ready
// hierarchy index: every iteration asks for a different k, so the LRU
// cache never helps — only the index does. Compare against
// BenchmarkAnyKCold, where the same rotating-k workload recomputes every
// query (a one-entry cache cannot hold more than the last k).
func BenchmarkAnyKIndexServed(b *testing.B) {
	s := New(Config{BuildIndex: true})
	s.AddGraph("bench", benchGraph())
	ctx := context.Background()
	hier, err := s.Hierarchy(ctx, HierarchyRequest{Graph: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	if hier.MaxK < 3 {
		b.Fatalf("bench graph too shallow: max k = %d", hier.MaxK)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := 2 + i%hier.MaxK
		resp, err := s.Enumerate(ctx, EnumerateRequest{Graph: "bench", K: k})
		if err != nil {
			b.Fatal(err)
		}
		if !resp.IndexServed {
			b.Fatalf("k=%d missed the index", k)
		}
	}
}

func BenchmarkAnyKCold(b *testing.B) {
	s := New(Config{CacheSize: 1})
	g := benchGraph()
	s.AddGraph("bench", g)
	ctx := context.Background()
	tree, err := s.indexFor(ctx, "bench", cohesion.KVCC) // depth probe only; the server stays index-less
	if err != nil {
		b.Fatal(err)
	}
	maxK := tree.tree.MaxK
	s.invalidateIndex("bench")
	if maxK < 3 {
		b.Fatalf("bench graph too shallow: max k = %d", maxK)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := 2 + i%maxK
		resp, err := s.Enumerate(ctx, EnumerateRequest{Graph: "bench", K: k})
		if err != nil {
			b.Fatal(err)
		}
		if resp.IndexServed || resp.Cached {
			b.Fatalf("k=%d was not recomputed", k)
		}
	}
}

// BenchmarkEnumerateCached measures the hit path: one enumeration primes
// the cache, then every iteration is a lookup plus wire conversion.
func BenchmarkEnumerateCached(b *testing.B) {
	s := New(Config{})
	s.AddGraph("bench", benchGraph())
	ctx := context.Background()
	if _, err := s.Enumerate(ctx, EnumerateRequest{Graph: "bench", K: 5}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Enumerate(ctx, EnumerateRequest{Graph: "bench", K: 5})
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("iteration missed the cache")
		}
	}
}

// BenchmarkProfileGraphLevel measures the cold graph-level profile (core
// decomposition + component BFS + triangle pass) by invalidating the
// per-generation cache every iteration.
func BenchmarkProfileGraphLevel(b *testing.B) {
	s := New(Config{})
	s.AddGraph("bench", benchGraph())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.dropProfile("bench")
		b.StartTimer()
		resp, err := s.Profile(ctx, ProfileRequest{Graph: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		if resp.Cached {
			b.Fatal("iteration hit the profile cache")
		}
	}
}

// BenchmarkProfileCached measures the served profile path: cache lookup
// plus response assembly.
func BenchmarkProfileCached(b *testing.B) {
	s := New(Config{})
	s.AddGraph("bench", benchGraph())
	ctx := context.Background()
	if _, err := s.Profile(ctx, ProfileRequest{Graph: "bench"}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Profile(ctx, ProfileRequest{Graph: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("iteration missed the profile cache")
		}
	}
}

// BenchmarkMeasureEnumerateCold times the uncached serving path of the
// two non-default measures on the same workload as BenchmarkEnumerateCold,
// making the relative cost of the three engines visible in one run.
func BenchmarkMeasureEnumerateCold(b *testing.B) {
	g := benchGraph()
	ctx := context.Background()
	for _, measure := range []string{"kecc", "kcore"} {
		b.Run(measure, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := New(Config{})
				s.AddGraph("bench", g)
				b.StartTimer()
				if _, err := s.Enumerate(ctx, EnumerateRequest{Graph: "bench", K: 5, Measure: measure}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMeasureIndexServed is BenchmarkAnyKIndexServed for the kecc
// index: rotating k served from the per-measure index the hierarchy
// request builds on demand.
func BenchmarkMeasureIndexServed(b *testing.B) {
	s := New(Config{})
	s.AddGraph("bench", benchGraph())
	ctx := context.Background()
	hier, err := s.Hierarchy(ctx, HierarchyRequest{Graph: "bench", Measure: "kecc"})
	if err != nil {
		b.Fatal(err)
	}
	if hier.MaxK < 3 {
		b.Fatalf("bench graph too shallow: max k = %d", hier.MaxK)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := 2 + i%hier.MaxK
		resp, err := s.Enumerate(ctx, EnumerateRequest{Graph: "bench", K: k, Measure: "kecc"})
		if err != nil {
			b.Fatal(err)
		}
		if !resp.IndexServed {
			b.Fatalf("k=%d missed the kecc index", k)
		}
	}
}
