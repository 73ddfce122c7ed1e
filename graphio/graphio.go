package graphio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"

	"kvcc/graph"
)

// ReadEdgeList parses an edge list from r in one pass. It buffers the
// label pairs and replays them for the placement pass, so peak memory
// includes that pair list; prefer StreamEdgeList for seekable
// multi-million-edge inputs, which re-reads the input instead. Both
// accept the same format (see parseEdgeLine) and produce identical
// graphs.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	var pairs [][2]int64
	keep := func(u, v int64) { pairs = append(pairs, [2]int64{u, v}) }
	return loadEdgeList(r, keep, func(place func(u, v int64) error) error {
		for _, p := range pairs {
			if err := place(p[0], p[1]); err != nil {
				return err
			}
		}
		return nil
	})
}

// ReadEdgeListFile loads an edge list from a file path. Regular files are
// seekable, so those go through the two-pass streaming reader and never
// hold an intermediate edge list; anything else a path can name (a FIFO,
// /dev/stdin, a process substitution) cannot rewind and falls back to the
// one-pass reader.
func ReadEdgeListFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		return StreamEdgeList(f)
	}
	return ReadEdgeList(f)
}

// WriteEdgeList writes g as an edge list using vertex labels, one edge per
// line, preceded by a summary comment.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# vertices: %d edges: %d\n", g.NumVertices(), g.NumEdges())
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				fmt.Fprintf(bw, "%d\t%d\n", g.Label(u), g.Label(v))
			}
		}
	}
	return bw.Flush()
}

// WriteEdgeListFile writes g to a file path.
func WriteEdgeListFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteComponents writes a set of components: one header line per
// component followed by its sorted vertex labels.
func WriteComponents(w io.Writer, comps []*graph.Graph) error {
	bw := bufio.NewWriter(w)
	for i, c := range comps {
		labels := append([]int64(nil), c.Labels()...)
		sort.Slice(labels, func(a, b int) bool { return labels[a] < labels[b] })
		fmt.Fprintf(bw, "# component %d: %d vertices %d edges\n", i, c.NumVertices(), c.NumEdges())
		for j, l := range labels {
			if j > 0 {
				fmt.Fprint(bw, " ")
			}
			fmt.Fprintf(bw, "%d", l)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
