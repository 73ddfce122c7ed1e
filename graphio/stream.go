package graphio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"kvcc/graph"
)

// This file is the SNAP/edge-list ingestion path: a buffered,
// tab/space/comment-tolerant scanner feeding graph.CSRBuilder in two
// passes. Both loaders in this package run one body (loadEdgeList) with
// one line parser (parseEdgeLine), so they accept byte-identical inputs
// and build identical graphs; they differ only in where the placement
// pass reads from. The streaming loader re-reads its input, so a
// multi-million-edge file is loaded with bounded memory — the CSR arrays
// plus the label intern map — and never materializes an intermediate
// edge slice.

// maxLineBytes bounds one input line; SNAP exports are two short integers
// per line, so a megabyte is already absurdly generous.
const maxLineBytes = 1024 * 1024

// StreamEdgeList builds a graph from a seekable edge-list stream in two
// passes: the first counts degrees and interns labels, the second places
// every edge directly into its final CSR slot. Peak memory is the finished
// graph plus the label map; no intermediate edge list is ever built.
// Malformed lines (a lone field, a non-integer id, an id overflowing
// int64) are reported as errors with their line number; blank lines and
// #-comments are skipped; self-loops and duplicate edges are dropped as in
// SNAP preprocessing.
func StreamEdgeList(rs io.ReadSeeker) (*graph.Graph, error) {
	return loadEdgeList(rs, nil, func(place func(u, v int64) error) error {
		if _, err := rs.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("graphio: rewind for placement pass: %w", err)
		}
		return scanEdges(rs, place)
	})
}

// loadEdgeList runs graph.CSRBuilder's two passes over an edge list: the
// counting pass parses r, handing every pair to keep as well when keep is
// non-nil, and replay must deliver the same pairs again to place.
func loadEdgeList(r io.Reader, keep func(u, v int64), replay func(place func(u, v int64) error) error) (*graph.Graph, error) {
	b := graph.NewCSRBuilder()
	if err := scanEdges(r, func(u, v int64) error {
		b.CountEdge(u, v)
		if keep != nil {
			keep(u, v)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	b.BeginPlacement()
	if err := replay(b.PlaceEdge); err != nil {
		return nil, err
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("graphio: input changed between passes: %w", err)
	}
	return g, nil
}

// StreamEdgeListFile loads an edge list from a file path with the two-pass
// streaming reader.
func StreamEdgeListFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return StreamEdgeList(f)
}

// scanEdges drives one pass: it parses every line of r and hands each edge
// to visit. It allocates nothing per line beyond the scanner's one buffer.
func scanEdges(r io.Reader, visit func(u, v int64) error) error {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, maxLineBytes), maxLineBytes)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		u, v, skip, err := parseEdgeLine(scanner.Bytes(), lineNo)
		if err != nil {
			return err
		}
		if skip {
			continue
		}
		if err := visit(u, v); err != nil {
			return err
		}
	}
	if err := scanner.Err(); err != nil {
		// bufio's bare "token too long" names neither the offending line
		// nor the limit; on a multi-gigabyte ingest that is undebuggable.
		// The scanner stopped before consuming the oversized line, so it
		// is the one after the last line counted.
		if errors.Is(err, bufio.ErrTooLong) {
			return fmt.Errorf("graphio: line %d: line exceeds the %d-byte limit", lineNo+1, maxLineBytes)
		}
		return fmt.Errorf("graphio: read: %v", err)
	}
	return nil
}

// parseEdgeLine parses one edge-list line: two whitespace-separated vertex
// ids (any further fields are ignored). It reports skip for blank lines
// and #-comments, and an error for a line with fewer than two fields or a
// field that is not a base-10 int64. Self-loops are NOT filtered here —
// the builders drop them — so both passes of the streaming loader see the
// same edge stream.
func parseEdgeLine(line []byte, lineNo int) (u, v int64, skip bool, err error) {
	f1, rest := nextField(line)
	if len(f1) == 0 || f1[0] == '#' {
		return 0, 0, true, nil
	}
	f2, _ := nextField(rest)
	if len(f2) == 0 {
		return 0, 0, false, fmt.Errorf("graphio: line %d: want two vertex ids, got %q", lineNo, string(line))
	}
	u, ok := parseVertexID(f1)
	if !ok {
		return 0, 0, false, fmt.Errorf("graphio: line %d: bad vertex id %q", lineNo, string(f1))
	}
	v, ok = parseVertexID(f2)
	if !ok {
		return 0, 0, false, fmt.Errorf("graphio: line %d: bad vertex id %q", lineNo, string(f2))
	}
	return u, v, false, nil
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

// nextField returns the first whitespace-delimited field of b and the
// remainder after it, without allocating.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	j := i
	for j < len(b) && !isSpace(b[j]) {
		j++
	}
	return b[i:j], b[j:]
}

// parseVertexID parses a base-10 int64 (optional +/- sign) from b without
// allocating, with the same accept set and overflow behaviour as
// strconv.ParseInt(s, 10, 64).
func parseVertexID(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	switch b[0] {
	case '+':
		i++
	case '-':
		neg = true
		i++
	}
	if i == len(b) {
		return 0, false
	}
	limit := uint64(1) << 63 // |MinInt64|; positive max is one less
	if !neg {
		limit--
	}
	var n uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (limit-d)/10 {
			return 0, false // overflow
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}
