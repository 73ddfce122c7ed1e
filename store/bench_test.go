package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"kvcc/gen"
	"kvcc/graph"
	"kvcc/graphio"
)

// The startup pair: what a restart costs with and without the snapshot
// store. Cold ingest re-parses the text edge list into a fresh CSR;
// snapshot open maps the on-disk CSR and adopts it in place. Run with
// -bench 'Startup' to see both on the same generated graph.

func benchStartupGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	return gen.GNM(20000, 120000, 7)
}

func writeEdgeList(tb testing.TB, path string, g *graph.Graph) {
	tb.Helper()
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, e := range g.Edges(nil) {
		fmt.Fprintf(w, "%d\t%d\n", g.Label(e[0]), g.Label(e[1]))
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
}

func BenchmarkStartupColdIngest(b *testing.B) {
	g := benchStartupGraph(b)
	path := filepath.Join(b.TempDir(), "edges.txt")
	writeEdgeList(b, path, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := graphio.ReadEdgeListFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if got.NumEdges() != g.NumEdges() {
			b.Fatalf("ingested %d edges, want %d", got.NumEdges(), g.NumEdges())
		}
	}
}

func BenchmarkStartupSnapshotOpen(b *testing.B) {
	g := benchStartupGraph(b)
	path := filepath.Join(b.TempDir(), snapshotName)
	if err := WriteSnapshotStream(path, GraphStream(g, 1)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := OpenSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		if snap.Graph().NumEdges() != g.NumEdges() {
			b.Fatalf("mapped %d edges, want %d", snap.Graph().NumEdges(), g.NumEdges())
		}
		snap.Close()
	}
}
