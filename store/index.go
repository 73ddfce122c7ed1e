package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc64"
	"io"
	"os"

	"kvcc/cohesion"
	"kvcc/graph"
	"kvcc/hierarchy"
)

// indexFileName maps a measure to its index file inside a store
// directory. The k-VCC name predates the measure abstraction.
func indexFileName(m cohesion.Measure) string {
	switch m {
	case cohesion.KECC:
		return indexNameKECC
	case cohesion.KCore:
		return indexNameKCore
	default:
		return indexName
	}
}

// Persisted hierarchy index: a small checksummed header followed by a
// gob-encoded flattening of the tree. Unlike the graph snapshot the
// index is always decoded into the heap — it is a pointer structure, not
// a flat array — so the format optimizes for simplicity. The header's
// version stamp ties the index to the exact overlay version it was built
// from; a loader whose recovered graph is at any other version discards
// the file, because an index of a different graph state must never serve.
//
// Header layout (little-endian, 40 bytes):
//
//	[ 0: 8)  magic "KVCCIDX1"
//	[ 8:12)  format version (u32)
//	[12:16)  cohesion measure id (u32; 0 = kvcc, 1 = kecc, 2 = kcore)
//	[16:24)  graph version stamp (u64)
//	[24:32)  payload CRC64-ECMA
//	[32:40)  header CRC64-ECMA over bytes [0:32)
//
// The measure field was the reserved word until the measure abstraction
// existed; pre-measure files wrote 0 there, which reads back as kvcc —
// exactly what those files contain.

const indexHeader = 40

// indexPayload is the gob image of one hierarchy.Tree.
type indexPayload struct {
	// BuiltMaxK is always written as 0. Older builds could truncate a
	// tree at a depth cap and recorded the cap here; such a tree cannot
	// answer for levels past the cap, so readIndex treats a nonzero value
	// as stale and the caller rebuilds.
	BuiltMaxK int
	BuildMS   float64
	Stats     hierarchy.Stats
	// LevelCounts[k-1] is the node count of level k; Nodes concatenates
	// the levels in order, each level in canonical order.
	LevelCounts []int
	Nodes       []indexNode
}

// indexNode is one flattened hierarchy node: its component's exact CSR
// arrays (so the reassembled subgraph is bit-identical to the enumerated
// one) and the global index of its parent node (-1 for level-1 roots).
type indexNode struct {
	Parent  int
	M       int
	Offsets []int
	Edges   []int
	Labels  []int64
}

// flattenTree renders a finished tree into its gob image.
func flattenTree(t *hierarchy.Tree, buildMS float64) (*indexPayload, error) {
	p := &indexPayload{
		BuildMS: buildMS,
		Stats:   t.Stats,
	}
	nodeIdx := make(map[*hierarchy.Node]int)
	for k := 1; k <= t.MaxK; k++ {
		level := t.Level(k)
		p.LevelCounts = append(p.LevelCounts, len(level))
		for _, n := range level {
			parent := -1
			if n.Parent != nil {
				idx, ok := nodeIdx[n.Parent]
				if !ok {
					return nil, fmt.Errorf("store: index flatten: level-%d node with unflattened parent", k)
				}
				parent = idx
			}
			offsets, edges := n.Component.Adjacency()
			nodeIdx[n] = len(p.Nodes)
			p.Nodes = append(p.Nodes, indexNode{
				Parent:  parent,
				M:       n.Component.NumEdges(),
				Offsets: offsets,
				Edges:   edges,
				Labels:  n.Component.Labels(),
			})
		}
	}
	return p, nil
}

// reassembleTree inverts flattenTree.
func (p *indexPayload) reassembleTree() (*hierarchy.Tree, error) {
	nodes := make([]*hierarchy.Node, 0, len(p.Nodes))
	levels := make([][]*hierarchy.Node, 0, len(p.LevelCounts))
	i := 0
	for k := 1; k <= len(p.LevelCounts); k++ {
		count := p.LevelCounts[k-1]
		if i+count > len(p.Nodes) {
			return nil, fmt.Errorf("store: index: level counts exceed %d nodes", len(p.Nodes))
		}
		level := make([]*hierarchy.Node, 0, count)
		for j := 0; j < count; j++ {
			in := p.Nodes[i]
			g, err := graph.AdoptCSR(in.Offsets, in.Edges, in.Labels, in.M)
			if err != nil {
				return nil, fmt.Errorf("store: index: node %d: %w", i, err)
			}
			n := &hierarchy.Node{K: k, Component: g}
			if in.Parent >= 0 {
				if in.Parent >= len(nodes) {
					return nil, fmt.Errorf("store: index: node %d: forward parent %d", i, in.Parent)
				}
				n.Parent = nodes[in.Parent]
			}
			nodes = append(nodes, n)
			level = append(level, n)
			i++
		}
		levels = append(levels, level)
	}
	if i != len(p.Nodes) {
		return nil, fmt.Errorf("store: index: %d nodes not covered by level counts", len(p.Nodes)-i)
	}
	return hierarchy.FromLevels(levels, p.Stats), nil
}

// writeIndex atomically persists a finished tree stamped with the graph
// version it was built from.
func writeIndex(path string, t *hierarchy.Tree, version uint64, buildMS float64) error {
	payload, err := flattenTree(t, buildMS)
	if err != nil {
		return err
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(payload); err != nil {
		return err
	}
	var header [indexHeader]byte
	copy(header[0:8], indexMagic)
	binary.LittleEndian.PutUint32(header[8:12], formatVersion)
	binary.LittleEndian.PutUint32(header[12:16], uint32(t.Measure))
	binary.LittleEndian.PutUint64(header[16:24], version)
	binary.LittleEndian.PutUint64(header[24:32], crc64.Checksum(body.Bytes(), crcTable))
	binary.LittleEndian.PutUint64(header[32:40], crc64.Checksum(header[0:32], crcTable))

	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(header[:]); err == nil {
		_, err = f.Write(body.Bytes())
	} else {
		f.Close()
		os.Remove(tmp)
		return err
	}
	return atomicReplace(f, tmp, path)
}

// readIndex loads a persisted index, requiring its stamp to equal the
// recovered graph version and its measure id to equal the measure the
// caller expects for this file. It returns ok=false — not an error — when
// the file is missing, stamped with a different version (stale after a
// crash that lost the index but replayed newer WAL records, say) or holds
// a depth-capped tree (nonzero BuiltMaxK); errors are reserved for a
// present, matching file that is damaged.
func readIndex(path string, wantVersion uint64, wantMeasure cohesion.Measure) (t *hierarchy.Tree, buildMS float64, ok bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()

	var header [indexHeader]byte
	if _, err := io.ReadFull(f, header[:]); err != nil {
		return nil, 0, false, &corruptError{path: path, msg: fmt.Sprintf("short header: %v", err)}
	}
	if string(header[0:8]) != indexMagic {
		return nil, 0, false, &corruptError{path: path, msg: "bad magic"}
	}
	if v := binary.LittleEndian.Uint32(header[8:12]); v != formatVersion {
		return nil, 0, false, &corruptError{path: path, msg: fmt.Sprintf("unsupported format version %d", v)}
	}
	if got, want := crc64.Checksum(header[0:32], crcTable), binary.LittleEndian.Uint64(header[32:40]); got != want {
		return nil, 0, false, &corruptError{path: path, msg: "header checksum mismatch"}
	}
	if m := binary.LittleEndian.Uint32(header[12:16]); m != uint32(wantMeasure) {
		// A measure file holding some other measure's tree cannot serve;
		// it is damage, not staleness (the file name determines the
		// expected measure).
		return nil, 0, false, &corruptError{path: path, msg: fmt.Sprintf("measure id %d, want %d", m, uint32(wantMeasure))}
	}
	if binary.LittleEndian.Uint64(header[16:24]) != wantVersion {
		return nil, 0, false, nil // index of another graph state: ignore
	}
	body, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, false, err
	}
	if crc64.Checksum(body, crcTable) != binary.LittleEndian.Uint64(header[24:32]) {
		return nil, 0, false, &corruptError{path: path, msg: "payload checksum mismatch"}
	}
	var payload indexPayload
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&payload); err != nil {
		return nil, 0, false, &corruptError{path: path, msg: fmt.Sprintf("gob: %v", err)}
	}
	if payload.BuiltMaxK != 0 {
		return nil, 0, false, nil // truncated tree: incomplete past its cap
	}
	tree, err := payload.reassembleTree()
	if err != nil {
		return nil, 0, false, err
	}
	tree.Measure = wantMeasure
	return tree, payload.BuildMS, true, nil
}
