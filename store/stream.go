package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"os"

	"kvcc/graph"
	"kvcc/internal/failpoint"
)

// Snapshot writing: every snapshot file is produced by one streaming
// writer that pulls the CSR one vertex at a time from callbacks — offsets
// fold into a running prefix sum, adjacency runs pass through one reused
// max-degree buffer — so the writer's heap footprint is O(max degree)
// plus fixed buffers whatever the graph size. A heap graph streams
// straight from its arrays (GraphStream); a mutation overlay streams its
// merged adjacency (DeltaStream), which lets a checkpoint of a graph near
// or beyond RAM skip building the compacted CSR on the heap.

// SnapshotStream describes a CSR to be written vertex by vertex. The
// callbacks must be pure: each is called once per vertex in ascending
// order, and the writer cross-checks that the degrees sum to 2M and that
// every run has exactly Degree(v) entries.
type SnapshotStream struct {
	N       int    // vertex count
	M       int    // undirected edge count
	Version uint64 // overlay version stamp for the header

	// Label returns the label of vertex v.
	Label func(v int) int64
	// Degree returns the degree of vertex v; must be O(1)-cheap, it is
	// called twice per vertex (offsets pass + run check).
	Degree func(v int) int
	// Run appends the sorted merged adjacency of v to buf[:0] and
	// returns it. The same buffer is handed back on every call.
	Run func(v int, buf []int) []int
}

// WriteSnapshotStream atomically writes src as a snapshot file at path:
// the bytes land in path+".tmp" first and are fsync'd before a rename
// makes them visible, so a crash mid-write can never leave a half-written
// file under the real name. A degree/run mismatch aborts before the
// rename, so a bad stream can never replace a good snapshot.
func WriteSnapshotStream(path string, src *SnapshotStream) error {
	if err := failpoint.Eval("store/snapshot-write"); err != nil {
		return err
	}
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := writeSnapshotFile(f, src); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := failpoint.Eval("store/snapshot-sync"); err != nil {
		// Simulated crash between writing the temp file and the rename:
		// the temp stays behind exactly as a dead process would leave it,
		// and the next Open must sweep it without ever serving it.
		f.Close()
		return err
	}
	return atomicReplace(f, tmp, path)
}

// writeSnapshotFile writes the whole snapshot into f in a single pass: a
// zeroed header placeholder, then the payload streamed through the CRC,
// then the real header written in place.
func writeSnapshotFile(f *os.File, src *SnapshotStream) error {
	n, m := int64(src.N), int64(src.M)
	crc := crc64.New(crcTable)
	out := io.MultiWriter(f, crc)
	var header [snapshotHeader]byte
	if _, err := out.Write(header[:]); err != nil {
		return err
	}
	enc := &le64Writer{w: out, buf: make([]byte, 0, 64*1024)}

	// Offsets: running prefix sum, no array.
	off := int64(0)
	for v := 0; v <= src.N; v++ {
		enc.put(off)
		if v < src.N {
			off += int64(src.Degree(v))
		}
	}
	if off != 2*m {
		return fmt.Errorf("store: stream: degrees sum to %d, want 2m = %d", off, 2*m)
	}
	// Edges: one merged run at a time through a reused buffer.
	var run []int
	for v := 0; v < src.N; v++ {
		run = src.Run(v, run[:0])
		if len(run) != src.Degree(v) {
			return fmt.Errorf("store: stream: vertex %d run has %d entries, degree says %d", v, len(run), src.Degree(v))
		}
		enc.ints(run)
	}
	// Labels.
	for v := 0; v < src.N; v++ {
		enc.put(src.Label(v))
	}
	if err := enc.flush(); err != nil {
		return err
	}

	// The stored payload CRC is defined over (64 zero bytes ++ payload):
	// the hash ran while the header placeholder was still zeroed, which
	// keeps the writer single-pass, and Verify replays the same
	// construction.
	copy(header[0:8], snapshotMagic)
	binary.LittleEndian.PutUint32(header[8:12], formatVersion)
	binary.LittleEndian.PutUint32(header[12:16], 0)
	binary.LittleEndian.PutUint64(header[16:24], uint64(n))
	binary.LittleEndian.PutUint64(header[24:32], uint64(m))
	binary.LittleEndian.PutUint64(header[32:40], src.Version)
	binary.LittleEndian.PutUint64(header[40:48], crc.Sum64())
	binary.LittleEndian.PutUint64(header[48:56], crc64.Checksum(header[0:48], crcTable))
	_, err := f.WriteAt(header[:], 0)
	return err
}

// le64Writer encodes int64s little-endian into a fixed buffer and writes
// it out whole, so adjacency runs of a few entries do not each cost a
// Write. The first write error sticks and is returned by flush.
type le64Writer struct {
	w   io.Writer
	buf []byte
	err error
}

func (e *le64Writer) put(x int64) {
	if len(e.buf) == cap(e.buf) {
		e.flush()
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(x))
}

// ints encodes a whole run, chunked to the buffer's free space.
func (e *le64Writer) ints(vals []int) {
	for len(vals) > 0 {
		if len(e.buf) == cap(e.buf) {
			e.flush()
		}
		free := e.buf[len(e.buf):cap(e.buf)]
		k := min(len(vals), len(free)/8)
		for i, x := range vals[:k] {
			binary.LittleEndian.PutUint64(free[8*i:], uint64(x))
		}
		e.buf = e.buf[:len(e.buf)+8*k]
		vals = vals[k:]
	}
}

func (e *le64Writer) flush() error {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err
}

// GraphStream adapts a heap (or mapped) graph to the snapshot writer,
// stamped with the given overlay version.
func GraphStream(g *graph.Graph, version uint64) *SnapshotStream {
	return &SnapshotStream{
		N:       g.NumVertices(),
		M:       g.NumEdges(),
		Version: version,
		Label:   g.Label,
		Degree:  g.Degree,
		Run:     func(v int, buf []int) []int { return append(buf, g.Neighbors(v)...) },
	}
}

// DeltaStream adapts a mutation overlay to the snapshot writer: the
// merged (base + overlay) adjacency is generated per vertex, so the
// compacted CSR never exists on the heap.
func DeltaStream(d *graph.Delta) *SnapshotStream {
	return &SnapshotStream{
		N:       d.NumVertices(),
		M:       d.NumEdges(),
		Version: d.Version(),
		Label:   d.Label,
		Degree:  d.Degree,
		Run:     d.MergedNeighbors,
	}
}
