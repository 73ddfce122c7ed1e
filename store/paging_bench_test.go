package store

import (
	"fmt"
	"path/filepath"
	"testing"

	"kvcc"
	"kvcc/gen"
	"kvcc/graph"
)

var benchComponents int

// BenchmarkEnumerateColdCache measures enumeration against a mapped
// snapshot whose pages were evicted before every iteration
// (MADV_DONTNEED plus a page-cache drop). Two workload shapes:
//
//   - scan: k above every core number, so the run is exactly the k-core
//     reduction — a pass over the whole cold edge array, the
//     fault-dominated path the ascending-id wave order exists for.
//   - full: a complete k-VCC enumeration on a smaller graph, where the
//     flow copy-out boundary is exercised alongside the reduction.
func BenchmarkEnumerateColdCache(b *testing.B) {
	shapes := []struct {
		name string
		n, m int
		k    int
	}{
		{"scan", 400_000, 3_200_000, 64},
		{"full", 30_000, 240_000, 6},
	}
	for _, shape := range shapes {
		g := gen.Community(shape.n, shape.m, 7)
		b.Run(shape.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), snapshotName)
			if err := WriteSnapshotStream(path, GraphStream(g, 1)); err != nil {
				b.Fatal(err)
			}
			snap, err := OpenSnapshot(path)
			if err != nil {
				b.Fatal(err)
			}
			defer snap.Close()
			mapped := snap.Graph()
			b.SetBytes(snap.MappedBytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				evict(b, snap)
				b.StartTimer()
				res, err := kvcc.Enumerate(mapped, shape.k)
				if err != nil {
					b.Fatal(err)
				}
				benchComponents = len(res.Components)
			}
		})
	}
}

// BenchmarkCompactToStore times the zero-heap spill: one fresh edit per
// iteration folded — together with the whole base graph — straight into
// a new snapshot file, remapped and adopted. allocs/op is the metric
// that matters: it must stay flat at O(delta) while bytes/op (the
// streamed snapshot size) is the full CSR.
func BenchmarkCompactToStore(b *testing.B) {
	base := gen.Community(50_000, 400_000, 9)
	dir := b.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := st.Checkpoint(base, 1); err != nil {
		b.Fatal(err)
	}
	delta := graph.NewDeltaAt(base, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(2_000_000 + 2*i)
		delta.InsertEdge(lo, lo+1)
		g, err := st.CompactToStore(delta, fmt.Sprintf("bench-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(st.snap.MappedBytes())
		benchComponents = g.NumEdges()
	}
}
