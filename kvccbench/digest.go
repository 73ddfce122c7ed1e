package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"

	"kvcc/graph"
	"kvcc/server"
)

// digestSets hashes a collection of vertex-label sets independently of
// the order of the sets and of the labels within each set: every set is
// sorted, the sets are sorted lexicographically, and the result is
// hashed with SHA-256. Two answers with the same digest name the same
// components.
func digestSets(sets [][]int64) string {
	sorted := make([][]int64, len(sets))
	for i, s := range sets {
		c := append([]int64(nil), s...)
		slices.Sort(c)
		sorted[i] = c
	}
	sort.Slice(sorted, func(a, b int) bool { return slices.Compare(sorted[a], sorted[b]) < 0 })
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(sorted)))
	for _, s := range sorted {
		put(uint64(len(s)))
		for _, l := range s {
			put(uint64(l))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func wireSets(comps []server.Component) [][]int64 {
	sets := make([][]int64, len(comps))
	for i, c := range comps {
		sets[i] = c.Vertices
	}
	return sets
}

func graphSets(comps []*graph.Graph) [][]int64 {
	sets := make([][]int64, len(comps))
	for i, c := range comps {
		sets[i] = c.Labels()
	}
	return sets
}

// matrixSets turns an overlap matrix into sets for digestSets. Row order
// matters for a matrix, so each row leads with its index.
func matrixSets(m [][]int) [][]int64 {
	sets := make([][]int64, len(m))
	for i, row := range m {
		s := make([]int64, 0, len(row)+1)
		s = append(s, -int64(i)-1)
		for _, v := range row {
			s = append(s, int64(v))
		}
		sets[i] = s
	}
	return sets
}

// cohesionSets turns (vertex, cohesion) answers into sets for digestSets.
func cohesionSets(vertices []int64, cohesion []int) [][]int64 {
	sets := make([][]int64, len(vertices))
	for i := range vertices {
		sets[i] = []int64{vertices[i], int64(cohesion[i])}
	}
	return sets
}

// golden holds the committed expected answers. Keys name a request; the
// values are digestSets results computed in-process by kvcc.Enumerate
// (-write-golden), independently of the server's serving ladder.
type golden struct {
	// EnumCold maps "Graph/k" to the digest of its k-VCCs. Dropped lists
	// grid keys left out because they took over a second to enumerate.
	EnumCold map[string]string `json:"enum_cold"`
	Dropped  []string          `json:"enum_cold_dropped"`
	// ServeHot maps "op/Graph/k[/vertex]" and "cohesion/Graph/i" to
	// digests, for every key the serve-hot sequence can draw.
	ServeHot map[string]string `json:"serve_hot"`
	// MaxK is each serve-hot graph's deepest hierarchy level; Pool the
	// vertices components-containing asks about; Batches the vertex
	// batches cohesion asks about.
	MaxK    map[string]int       `json:"max_k"`
	Pool    map[string][]int64   `json:"pool"`
	Batches map[string][][]int64 `json:"cohesion_batches"`
}

func loadGolden(path string) (*golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", path, err)
	}
	return &g, nil
}

func (g *golden) save(path string) error {
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checkDigest compares an answer's digest with the committed one for key. A key
// without a committed digest is a failure too: the sequence asked for
// something no golden covers.
func checkDigest(want map[string]string, key string, sets [][]int64) error {
	exp, ok := want[key]
	if !ok {
		return fmt.Errorf("no golden digest for %s", key)
	}
	if got := digestSets(sets); got != exp {
		return fmt.Errorf("%s: digest %s, golden %s", key, got, exp)
	}
	return nil
}
