package graphio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kvcc/graph"
)

// graphsEqual reports whether two graphs are structurally identical:
// same vertex numbering, same labels, same adjacency.
func graphsEqual(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Label(v) != b.Label(v) {
			return false
		}
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}

func TestStreamEdgeListMatchesReadEdgeList(t *testing.T) {
	inputs := []string{
		"1 2\n2 3\n3 1\n",
		"# comment\n\n10\t20\n20\t30 ignored extra fields\n",
		"5 5\n1 2\n2 1\n1 2\n",             // self-loop + duplicates both orientations
		"9223372036854775807 -42\n-42 0\n", // 64-bit labels, negative ids
		"7 8\r\n8 9\r\n",                   // CRLF endings
		"",
	}
	for i, input := range inputs {
		want, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			t.Fatalf("case %d: one-pass: %v", i, err)
		}
		got, err := StreamEdgeList(strings.NewReader(input))
		if err != nil {
			t.Fatalf("case %d: streaming: %v", i, err)
		}
		if !graphsEqual(want, got) {
			t.Fatalf("case %d: streaming graph %v differs from one-pass %v", i, got, want)
		}
	}
}

func TestStreamEdgeListMalformed(t *testing.T) {
	cases := []struct {
		name, input string
		line        string // substring the error must cite
	}{
		{"one-field", "1 2\n3\n", "line 2"},
		{"non-numeric", "a b\n", "line 1"},
		{"bad-second", "1 x\n", "line 1"},
		{"overflow", "1 9223372036854775808\n", "line 1"},
		{"bare-sign", "1 -\n", "line 1"},
	}
	for _, tc := range cases {
		_, err := StreamEdgeList(strings.NewReader(tc.input))
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.line) {
			t.Errorf("%s: error should cite %s: %v", tc.name, tc.line, err)
		}
		// The one-pass reader must reject the same inputs.
		if _, err := ReadEdgeList(strings.NewReader(tc.input)); err == nil {
			t.Errorf("%s: one-pass reader accepted what streaming rejected", tc.name)
		}
	}
}

func TestStreamEdgeListOversizedLine(t *testing.T) {
	// Two good lines, then a line past the scanner's buffer: the error
	// must cite the offending line and the limit, not bufio's bare
	// "token too long".
	input := "1 2\n2 3\n# " + strings.Repeat("x", maxLineBytes+1) + "\n"
	_, err := StreamEdgeList(strings.NewReader(input))
	if err == nil {
		t.Fatal("expected error for an oversized line")
	}
	for _, want := range []string{"line 3", fmt.Sprintf("%d-byte", maxLineBytes)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error should cite %q: %v", want, err)
		}
	}
}

func TestStreamEdgeListDuplicatesAndSelfLoops(t *testing.T) {
	input := "1 1\n1 2\n2 1\n1 2\n2 3\n3 3\n"
	g, err := StreamEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d, want 3 and 2", g.NumVertices(), g.NumEdges())
	}
	idx := g.LabelIndex()
	if !g.HasEdge(idx[1], idx[2]) || !g.HasEdge(idx[2], idx[3]) || g.HasEdge(idx[1], idx[3]) {
		t.Fatal("wrong edge set after dedup")
	}
}

func TestStreamEdgeList64BitLabels(t *testing.T) {
	const big = int64(1) << 62
	input := fmt.Sprintf("%d %d\n%d 7\n", big, big+1, big+1)
	g, err := StreamEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	idx := g.LabelIndex()
	if _, ok := idx[big]; !ok {
		t.Fatalf("label %d lost", big)
	}
	if !g.HasEdge(idx[big], idx[big+1]) {
		t.Fatal("64-bit labeled edge lost")
	}
}

func TestStreamEdgeListFileLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-edge ingestion in -short mode")
	}
	// A ring over 200k vertices plus random chords: >= 1M edges total,
	// written with duplicates and comments sprinkled in.
	const n = 200_000
	const chords = 800_000
	path := filepath.Join(t.TempDir(), "big.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "# synthetic 1M-edge ingestion corpus")
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%d\t%d\n", i, (i+1)%n)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < chords; i++ {
		fmt.Fprintf(w, "%d %d\n", rng.Intn(n), rng.Intn(n))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := StreamEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != n {
		t.Fatalf("n = %d, want %d", g.NumVertices(), n)
	}
	// Dedup and self-loop dropping make the exact count data-dependent,
	// but the ring alone guarantees n edges and the chords push it near
	// n + chords.
	if g.NumEdges() < n || g.NumEdges() > n+chords {
		t.Fatalf("m = %d outside [%d, %d]", g.NumEdges(), n, n+chords)
	}
	for v := 0; v < n; v++ {
		if g.Degree(v) < 2 {
			t.Fatalf("ring vertex %d degree %d", v, g.Degree(v))
		}
	}
}

// FuzzStreamEdgeList checks both loaders against the test-only reference
// (reference_test.go) on arbitrary bytes: each must accept exactly what
// the reference accepts and build exactly its labels and runs.
func FuzzStreamEdgeList(f *testing.F) {
	f.Add([]byte("1 2\n2 3\n"))
	f.Add([]byte("# comment\n\n10\t20\n"))
	f.Add([]byte("a b\n"))
	f.Add([]byte("1\n"))
	f.Add([]byte("9223372036854775807 -9223372036854775808\n"))
	f.Add([]byte("1 2 3 4 extra\n"))
	f.Add([]byte("5 5\n1 2\n2 1\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= maxLineBytes {
			return // the loaders' line limit is not part of the reference
		}
		pairs, ok := referencePairs(string(data))
		ref := referenceGraph(pairs)
		for name, load := range map[string]func(io.ReadSeeker) (*graph.Graph, error){
			"ReadEdgeList":   func(r io.ReadSeeker) (*graph.Graph, error) { return ReadEdgeList(r) },
			"StreamEdgeList": StreamEdgeList,
		} {
			g, err := load(bytes.NewReader(data))
			if (err == nil) != ok {
				t.Fatalf("%s err=%v, reference accepts=%v", name, err, ok)
			}
			if ok {
				if err := diffReference(g, ref); err != nil {
					t.Fatalf("%s differs from the reference: %v", name, err)
				}
			}
		}
	})
}
