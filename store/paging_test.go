package store

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"kvcc"
	"kvcc/gen"
	"kvcc/graph"
	"kvcc/internal/difftest"
)

// evict makes the snapshot cold: MADV_DONTNEED drops the mapping's
// resident pages, and (on Linux) posix_fadvise(DONTNEED) asks the kernel
// to drop the file's page cache too, so the next access is a real disk
// fault rather than a minor re-map. Cold-cache benchmarks and the
// eviction round-trip tests call it between iterations; it never
// invalidates the mapping.
func evict(tb testing.TB, s *Snapshot) {
	tb.Helper()
	if !mmapSupported || len(s.data) == 0 {
		return
	}
	madviseDontNeed(s.data)
	f, err := os.Open(s.path)
	if err != nil {
		// The file may have been renamed over (retired snapshot); the
		// madvise above already released the pages we can reach.
		return
	}
	defer f.Close()
	if err := dropFileCache(f); err != nil {
		tb.Fatalf("evict: %v", err)
	}
}

// TestAdoptEvictRoundTrip maps every corpus graph, evicts its pages (a
// hard MADV_DONTNEED plus page-cache drop on Linux), and asserts the
// re-faulted adjacency is byte-identical to both the pre-eviction copy
// and the original heap graph. This is the core safety property of the
// paging layer: eviction may only ever cost time.
func TestAdoptEvictRoundTrip(t *testing.T) {
	for _, tc := range difftest.Corpus() {
		t.Run(tc.Name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), snapshotName)
			if err := WriteSnapshotStream(path, GraphStream(tc.G, 5)); err != nil {
				t.Fatalf("WriteSnapshotStream: %v", err)
			}
			snap, err := OpenSnapshot(path)
			if err != nil {
				t.Fatalf("OpenSnapshot: %v", err)
			}
			defer snap.Close()
			g := snap.Graph()

			// Copy the adopted arrays while they are warm, then evict and
			// force every page to re-fault through the comparison.
			warmOff, warmEdges := g.Adjacency()
			offCopy := append([]int(nil), warmOff...)
			edgeCopy := append([]int(nil), warmEdges...)
			labelCopy := append([]int64(nil), g.Labels()...)

			evict(t, snap)

			coldOff, coldEdges := g.Adjacency()
			if !reflect.DeepEqual(coldOff, offCopy) {
				t.Fatal("offsets changed across eviction")
			}
			if len(coldEdges) > 0 && !reflect.DeepEqual(coldEdges, edgeCopy) {
				t.Fatal("edges changed across eviction")
			}
			if len(g.Labels()) > 0 && !reflect.DeepEqual(g.Labels(), labelCopy) {
				t.Fatal("labels changed across eviction")
			}
			sameGraph(t, g, tc.G)
			if err := snap.Verify(); err != nil {
				t.Fatalf("Verify after eviction: %v", err)
			}
		})
	}
}

// TestThreePathDifferential enumerates every corpus graph three ways —
// heap-resident, mmap-adopted, and evicted-then-re-faulted — and
// requires identical component signatures. The adopted and cold paths
// exercise the copy-out boundary: flow engines must never read the
// mapping directly, so eviction cannot perturb results.
func TestThreePathDifferential(t *testing.T) {
	for _, tc := range difftest.Corpus() {
		t.Run(tc.Name, func(t *testing.T) {
			k := 3
			if k > tc.MaxK {
				k = tc.MaxK
			}
			heap, err := kvcc.Enumerate(tc.G, k)
			if err != nil {
				t.Fatalf("heap enumerate: %v", err)
			}
			want := difftest.Signatures(heap.Components)

			path := filepath.Join(t.TempDir(), snapshotName)
			if err := WriteSnapshotStream(path, GraphStream(tc.G, 1)); err != nil {
				t.Fatalf("WriteSnapshotStream: %v", err)
			}
			snap, err := OpenSnapshot(path)
			if err != nil {
				t.Fatalf("OpenSnapshot: %v", err)
			}
			defer snap.Close()
			g := snap.Graph()

			adopted, err := kvcc.Enumerate(g, k)
			if err != nil {
				t.Fatalf("adopted enumerate: %v", err)
			}
			if got := difftest.Signatures(adopted.Components); !reflect.DeepEqual(got, want) {
				t.Fatalf("mmap-adopted path diverged at k=%d:\n  got  %v\n  want %v", k, got, want)
			}

			evict(t, snap)
			cold, err := kvcc.Enumerate(g, k)
			if err != nil {
				t.Fatalf("cold enumerate: %v", err)
			}
			if got := difftest.Signatures(cold.Components); !reflect.DeepEqual(got, want) {
				t.Fatalf("evict-then-re-fault path diverged at k=%d:\n  got  %v\n  want %v", k, got, want)
			}
		})
	}
}

// TestCompactToStoreRoundTrip drives the spill path end to end: a WAL'd
// batch plus a pending one folded straight to disk, the mmap'd result
// adopted as the serving snapshot, the idempotency key retained without
// a WAL record, old readers kept valid on the retired mapping, and the
// whole state recovered after a crash.
func TestCompactToStoreRoundTrip(t *testing.T) {
	base := difftest.Corpus()[5].G // planted communities
	dir := t.TempDir()
	st, err := Open(dir, Options{VerifyOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(base, 1); err != nil {
		t.Fatal(err)
	}
	// Reopen so the base graph is served from the mapped snapshot — the
	// spill must retire that mapping, not unmap it under old readers.
	st.Close()
	st, err = Open(dir, Options{VerifyOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	oldG, _, _ := st.Graph()

	ins1 := [][2]int64{{8001, 8002}, {8002, 8003}}
	ins2 := [][2]int64{{8001, 8003}, {8003, 8004}}
	apply := func(d *graph.Delta) {
		for _, e := range append(append([][2]int64(nil), ins1...), ins2...) {
			d.InsertEdge(e[0], e[1])
		}
	}

	delta := graph.NewDeltaAt(base, 1)
	v0 := delta.Version()
	for _, e := range ins1 {
		delta.InsertEdge(e[0], e[1])
	}
	if err := st.Append(Batch{PrevVersion: v0, NewVersion: delta.Version(), Inserts: ins1}); err != nil {
		t.Fatal(err)
	}
	for _, e := range ins2 {
		delta.InsertEdge(e[0], e[1])
	}

	ref := graph.NewDeltaAt(base, 1)
	apply(ref)
	want := ref.Compact()
	wantVersion := ref.Version()
	if wantVersion != delta.Version() {
		t.Fatalf("reference delta diverged: %d vs %d", wantVersion, delta.Version())
	}

	g, err := st.CompactToStore(delta, "spill-key-1")
	if err != nil {
		t.Fatalf("CompactToStore: %v", err)
	}
	sameGraph(t, g, want)
	if _, v, _ := st.Graph(); v != wantVersion {
		t.Fatalf("store version %d after spill, want %d", v, wantVersion)
	}
	if st.Pending() != 0 {
		t.Fatalf("pending = %d after spill, want 0", st.Pending())
	}
	if got := st.IdempotencyKeys()["spill-key-1"]; got != wantVersion {
		t.Fatalf("idempotency key maps to %d, want %d", got, wantVersion)
	}
	if mmapSupported && aliasable && !g.External() {
		t.Fatal("spilled graph is not externally backed on an mmap platform")
	}
	if ps := st.PagingStats(); ps.RetiredMappings != 1 {
		t.Fatalf("retired mappings = %d, want 1", ps.RetiredMappings)
	}

	// The pre-spill snapshot was retired, not unmapped: readers that
	// captured it keep seeing the old bytes.
	sameGraph(t, oldG, base)

	// The delta was rebased onto the adopted graph: the next edit chains
	// forward from the spilled version and lands on the mapped base.
	if delta.InsertEdge(8001, 8004); delta.Version() <= wantVersion {
		t.Fatalf("post-spill edit left version at %d, want > %d", delta.Version(), wantVersion)
	}

	// Crash (no Close) and recover: the snapshot alone carries the state.
	st2, err := Open(dir, Options{VerifyOnOpen: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	g2, v2, ok := st2.Graph()
	if !ok || v2 != wantVersion {
		t.Fatalf("recovered version %d (ok=%v), want %d", v2, ok, wantVersion)
	}
	if replayed, torn := st2.Replayed(); replayed != 0 || torn {
		t.Fatalf("replayed=%d torn=%v after spill, want 0, false", replayed, torn)
	}
	if got := st2.IdempotencyKeys()["spill-key-1"]; got != wantVersion {
		t.Fatalf("recovered idempotency key maps to %d, want %d", got, wantVersion)
	}
	sameGraph(t, g2, want)
	st.Close()
}

// TestCompactToStoreCrashWindow simulates dying inside the spill's only
// in-between state: the streamed snapshot has been renamed into place
// but the WAL was not reset. Recovery must serve the snapshot and skip
// every WAL record it already folds in — the same invariant the
// checkpoint path guarantees, inherited because both write through
// WriteSnapshotStream.
func TestCompactToStoreCrashWindow(t *testing.T) {
	base := difftest.Corpus()[1].G
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(base, 1); err != nil {
		t.Fatal(err)
	}
	delta := graph.NewDeltaAt(base, 1)
	v0 := delta.Version()
	ins := [][2]int64{{6001, 6002}, {6002, 6003}}
	for _, e := range ins {
		delta.InsertEdge(e[0], e[1])
	}
	if err := st.Append(Batch{PrevVersion: v0, NewVersion: delta.Version(), Inserts: ins}); err != nil {
		t.Fatal(err)
	}
	ref := graph.NewDeltaAt(base, 1)
	for _, e := range ins {
		ref.InsertEdge(e[0], e[1])
	}
	want := ref.Compact()
	wantVersion := ref.Version()

	// The spill's snapshot landed; the process dies before wal.reset.
	if err := WriteSnapshotStream(filepath.Join(dir, snapshotName), DeltaStream(delta)); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{VerifyOnOpen: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	g, version, _ := st2.Graph()
	if version != wantVersion {
		t.Fatalf("recovered version %d, want %d", version, wantVersion)
	}
	if replayed, _ := st2.Replayed(); replayed != 0 {
		t.Fatalf("replayed %d batches the spilled snapshot already covers", replayed)
	}
	sameGraph(t, g, want)
}

// TestCompactToStoreMemory pins the spill's reason to exist: folding a
// small delta over a large base allocates O(delta) + constant buffers,
// never the compacted CSR. The bound is far below the ~20 MB the heap
// Compact of this graph would allocate, so a regression to heap
// materialization fails immediately.
func TestCompactToStoreMemory(t *testing.T) {
	if !aliasable {
		t.Skip("heap-fallback platforms copy the payload; the O(delta) bound only holds with in-place adoption")
	}
	base := gen.Community(100_000, 1_100_000, 42)
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Checkpoint(base, 1); err != nil {
		t.Fatal(err)
	}
	delta := graph.NewDeltaAt(base, 1)
	for i := 0; i < 64; i++ {
		delta.InsertEdge(int64(1_000_000+i), int64(1_000_001+i))
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := st.CompactToStore(delta, "mem-key")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("CompactToStore: %v", err)
	}
	if !g.External() {
		t.Fatal("spilled graph not mmap-backed")
	}

	allocDelta := after.TotalAlloc - before.TotalAlloc
	offsets, edges := g.Adjacency()
	heapBytes := uint64(8 * (len(offsets) + len(edges) + len(g.Labels())))
	// Encode buffer (64 KiB) + per-vertex run buffer + idempotency/WAL
	// bookkeeping. 4 MB leaves slack while staying well under the CSR.
	const bound = 4 << 20
	if allocDelta > bound {
		t.Fatalf("CompactToStore allocated %d bytes (bound %d; heap CSR would be %d)",
			allocDelta, uint64(bound), heapBytes)
	}
	if heapBytes < 4*bound {
		t.Fatalf("test graph too small to be meaningful: CSR is only %d bytes", heapBytes)
	}
}
