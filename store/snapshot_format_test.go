package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"

	"kvcc/graph"
	"kvcc/internal/difftest"
)

// referenceSnapshot encodes g as a snapshot file straight from the layout
// documented in snapshot.go, sharing no code or constants with the
// writer: a 64-byte little-endian header (magic, format version 1, zero
// flags, n, m, version, payload CRC, header CRC, zero reserved) followed
// by (n+1) offsets, 2m neighbor ids and n labels as int64s. The payload
// CRC64-ECMA runs over 64 zero bytes followed by the payload; the header
// CRC covers header bytes [0:48).
func referenceSnapshot(g *graph.Graph, version uint64) []byte {
	le := binary.LittleEndian
	n := g.NumVertices()
	var payload []byte
	off := 0
	for v := 0; v <= n; v++ {
		payload = le.AppendUint64(payload, uint64(off))
		if v < n {
			off += len(g.Neighbors(v))
		}
	}
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			payload = le.AppendUint64(payload, uint64(w))
		}
	}
	for v := 0; v < n; v++ {
		payload = le.AppendUint64(payload, uint64(g.Label(v)))
	}

	ecma := crc64.MakeTable(crc64.ECMA)
	header := make([]byte, 64)
	copy(header[0:8], "KVCCSNP1")
	le.PutUint32(header[8:12], 1)
	le.PutUint64(header[16:24], uint64(n))
	le.PutUint64(header[24:32], uint64(g.NumEdges()))
	le.PutUint64(header[32:40], version)
	le.PutUint64(header[40:48], crc64.Update(crc64.Checksum(make([]byte, 64), ecma), ecma, payload))
	le.PutUint64(header[48:56], crc64.Checksum(header[0:48], ecma))
	return append(header, payload...)
}

// TestSnapshotFormatPin pins the on-disk snapshot layout: the writer's
// bytes must equal an independent encoding of the documented format for
// a graph-backed stream, an overlay stream with inserts and deletes, and
// the empty graph. A layout change fails here before it can make
// snapshots written by older builds unreadable; the reference bytes must
// also open and verify.
func TestSnapshotFormatPin(t *testing.T) {
	base := difftest.Corpus()[0].G
	d := graph.NewDeltaAt(base, 1)
	for _, e := range [][2]int64{{9001, 9002}, {9002, 9003}, {9001, 9003}, {0, 9001}} {
		d.InsertEdge(e[0], e[1])
	}
	d.DeleteEdge(9002, 9003)
	d.DeleteEdge(base.Label(0), base.Label(base.Neighbors(0)[0]))
	empty := graph.FromEdges(0, nil)

	cases := []struct {
		name    string
		src     *SnapshotStream
		want    *graph.Graph
		version uint64
	}{
		{"graph", GraphStream(base, 5), base, 5},
		{"delta", DeltaStream(d), d.Compact(), d.Version()},
		{"empty", GraphStream(empty, 1), empty, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, snapshotName)
			if err := WriteSnapshotStream(path, tc.src); err != nil {
				t.Fatalf("WriteSnapshotStream: %v", err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceSnapshot(tc.want, tc.version)
			if !bytes.Equal(got, want) {
				t.Fatalf("written snapshot (%d bytes) differs from the documented layout (%d bytes)", len(got), len(want))
			}

			refPath := filepath.Join(dir, "reference.kvcc")
			if err := os.WriteFile(refPath, want, 0o644); err != nil {
				t.Fatal(err)
			}
			snap, err := OpenSnapshot(refPath)
			if err != nil {
				t.Fatalf("OpenSnapshot(reference): %v", err)
			}
			defer snap.Close()
			if err := snap.Verify(); err != nil {
				t.Fatalf("Verify(reference): %v", err)
			}
			if snap.Version() != tc.version {
				t.Fatalf("reference opened at version %d, want %d", snap.Version(), tc.version)
			}
			sameGraph(t, snap.Graph(), tc.want)
		})
	}
}
