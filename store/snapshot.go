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

// Snapshot header layout (little-endian, 64 bytes):
//
//	[ 0: 8)  magic "KVCCSNP1"
//	[ 8:12)  format version (u32)
//	[12:16)  flags (u32, reserved)
//	[16:24)  n  — vertex count (u64)
//	[24:32)  m  — undirected edge count (u64)
//	[32:40)  graph version stamp (u64)
//	[40:48)  payload CRC64-ECMA over everything after the header
//	[48:56)  header CRC64-ECMA over bytes [0:48)
//	[56:64)  reserved
//
// Payload, in order, each section a multiple of 8 bytes so the mmap'd
// regions stay 8-aligned for in-place aliasing:
//
//	offsets  (n+1) x int64   CSR offsets
//	edges    2m    x int64   flat neighbor array
//	labels   n     x int64   vertex labels
//
// Opening a snapshot reads and verifies only the 64-byte header plus the
// file size — O(1) — and trusts the payload to the page cache until
// Verify is called (full CRC + CSR invariant validation).

// Snapshot is one opened on-disk CSR snapshot. The Graph it exposes
// shares memory with the mapping, so the Snapshot must stay open for as
// long as the Graph (or any Delta rebased on it) is reachable.
type Snapshot struct {
	path       string
	g          *graph.Graph
	version    uint64
	payloadCRC uint64
	data       []byte // whole file, mmap'd (or heap on non-mmap platforms)
	unmap      func() error
	closed     bool

	// counters, when set by the owning store, receives release
	// accounting; see paging.go.
	counters *PagingCounters
}

// snapshotSize returns the exact file size a well-formed snapshot with
// the given counts must have.
func snapshotSize(n, m int64) int64 {
	return snapshotHeader + 8*((n+1)+2*m+n)
}

// OpenSnapshot maps the snapshot at path and adopts its CSR arrays as a
// Graph. Work done here is O(1) in the graph size: the 64-byte header is
// read and checksum-verified, the file size is checked against the
// header's counts, and the payload is mapped — not read. On hosts that
// cannot alias little-endian int64 arrays in place the payload is
// decoded into the heap instead.
func OpenSnapshot(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var header [snapshotHeader]byte
	if _, err := io.ReadFull(f, header[:]); err != nil {
		return nil, &corruptError{path: path, msg: fmt.Sprintf("short header: %v", err)}
	}
	if string(header[0:8]) != snapshotMagic {
		return nil, &corruptError{path: path, msg: "bad magic"}
	}
	if v := binary.LittleEndian.Uint32(header[8:12]); v != formatVersion {
		return nil, &corruptError{path: path, msg: fmt.Sprintf("unsupported format version %d", v)}
	}
	if got, want := crc64.Checksum(header[0:48], crcTable), binary.LittleEndian.Uint64(header[48:56]); got != want {
		return nil, &corruptError{path: path, msg: "header checksum mismatch"}
	}
	n := int64(binary.LittleEndian.Uint64(header[16:24]))
	m := int64(binary.LittleEndian.Uint64(header[24:32]))
	version := binary.LittleEndian.Uint64(header[32:40])
	if n < 0 || m < 0 {
		return nil, &corruptError{path: path, msg: "negative counts"}
	}
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if info.Size() != snapshotSize(n, m) {
		return nil, &corruptError{path: path,
			msg: fmt.Sprintf("size %d does not match header (want %d for n=%d m=%d)", info.Size(), snapshotSize(n, m), n, m)}
	}

	if err := failpoint.Eval("store/mmap"); err != nil {
		return nil, fmt.Errorf("store: map %s: %w", path, err)
	}
	data, unmap, err := mapFile(f, int(info.Size()))
	if err != nil {
		return nil, fmt.Errorf("store: map %s: %w", path, err)
	}

	var offsets, edges []int
	var labels []int64
	off := int64(snapshotHeader)
	offBytes := data[off : off+8*(n+1)]
	edgeBytes := data[off+8*(n+1) : off+8*(n+1)+16*m]
	labelBytes := data[off+8*(n+1)+16*m:]
	if aliasable {
		offsets = aliasInts(offBytes, int(n+1))
		edges = aliasInts(edgeBytes, int(2*m))
		labels = aliasInt64s(labelBytes, int(n))
	} else {
		offsets = decodeInts(offBytes, int(n+1))
		edges = decodeInts(edgeBytes, int(2*m))
		labels = decodeInt64s(labelBytes, int(n))
	}
	g, err := graph.AdoptCSR(offsets, edges, labels, int(m))
	if err != nil {
		unmap()
		return nil, &corruptError{path: path, msg: err.Error()}
	}
	return &Snapshot{
		path:       path,
		g:          g,
		version:    version,
		payloadCRC: binary.LittleEndian.Uint64(header[40:48]),
		data:       data,
		unmap:      unmap,
	}, nil
}

// Graph returns the adopted graph. It shares memory with the snapshot's
// mapping: the Snapshot must not be Closed while the Graph is in use.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// Version returns the overlay version the snapshot was checkpointed at.
func (s *Snapshot) Version() uint64 { return s.version }

// Verify reads the entire payload, checks it against the header's CRC64,
// and validates the full set of CSR invariants. This is the deep check
// deliberately left out of OpenSnapshot's O(1) path; tests and
// suspicious operators (Options.VerifyOnOpen) call it.
func (s *Snapshot) Verify() error {
	crc := crc64.New(crcTable)
	var zero [snapshotHeader]byte
	crc.Write(zero[:]) // the stored CRC covers (zero header ++ payload)
	if s.data != nil {
		crc.Write(s.data[snapshotHeader:])
	} else {
		f, err := os.Open(s.path)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := f.Seek(snapshotHeader, io.SeekStart); err != nil {
			return err
		}
		if _, err := io.Copy(crc, f); err != nil {
			return err
		}
	}
	if crc.Sum64() != s.payloadCRC {
		return &corruptError{path: s.path, msg: "payload checksum mismatch"}
	}
	if err := graph.ValidateCSR(s.g); err != nil {
		return &corruptError{path: s.path, msg: err.Error()}
	}
	return nil
}

// Close releases the mapping. Every Graph (and subgraph, Delta, or
// enumeration result sharing its arrays) obtained from this snapshot
// becomes invalid: call Close only when the graph is unreachable, i.e.
// when the owning server has stopped serving it.
func (s *Snapshot) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.unmap()
}
