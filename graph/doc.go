// Package graph provides the undirected simple-graph substrate used by all
// k-VCC algorithms: compact adjacency-list storage, label tracking across
// subgraph operations, traversals, and connected components.
//
// A Graph has vertices identified by contiguous ints 0..N-1. Every vertex
// additionally carries an int64 label. Labels preserve vertex identity when
// subgraphs are carved out of larger graphs: the overlapped partition at
// the heart of KVCC-ENUM (Algorithm 1, Section 4 of the paper) repeatedly
// induces subgraphs and duplicates cut vertices on both sides of a
// partition, so the label is the only stable name for a vertex across
// recursion levels — and the reason two k-VCCs can report overlapping
// vertex sets (Property 1: any two k-VCCs share fewer than k vertices).
//
// Invariants maintained by every constructor in this package:
//   - adjacency lists are sorted ascending,
//   - no self-loops,
//   - no duplicate edges,
//   - the graph is simple and undirected ((u,v) stored in both lists).
//
// Sorted adjacency makes neighborhood intersection a linear merge, which
// the sweep optimizations (Section 5) and the metrics package rely on.
//
// Construct graphs with FromEdges (contiguous vertices), FromLabeledEdges
// or a two-pass CSRBuilder (labels numbered in first-mention order), or
// the subgraph operations InducedSubgraph and SpanningSubgraphScratch; parse
// them from edge lists with the graphio package. A Graph is immutable once built; to
// mutate one over time, wrap it in a Delta — a versioned overlay of edge
// insertions, deletions and new vertices whose Compact method materializes
// fresh immutable snapshots.
package graph
