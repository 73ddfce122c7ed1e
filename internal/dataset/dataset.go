// Package dataset builds the seven synthetic stand-ins for the paper's
// SNAP evaluation corpus (Table 1: Stanford, DBLP, Cnr, ND, Google, Cit,
// plus Youtube used in Figs. 7-9). The module is offline, so each dataset
// is generated deterministically with a structure calibrated to the
// original's character: overall density and hub profile from Table 1, and
// planted dense communities whose vertex connectivities span the k ranges
// the paper evaluates on that dataset (6-9 for Youtube, 15-21 for the
// effectiveness figures, 20-40 for the efficiency figures).
//
// The generated graphs are laptop-sized (≈10⁴ vertices at scale 1.0); the
// scale knob grows or shrinks the corpus proportionally. See docs/DESIGN.md
// ("Substitutions") for why this preserves the paper's observable
// behaviour.
package dataset

import (
	"fmt"
	"math/rand"

	"kvcc/gen"
	"kvcc/graph"
)

// Meta describes one dataset: the paper's reported statistics and the
// flavour of the synthetic stand-in.
type Meta struct {
	Name           string
	PaperVertices  int
	PaperEdges     int
	PaperDensity   float64
	PaperMaxDegree int
	Kind           string // "web", "social", "citation", "collaboration"
}

// blockSpec describes one tier of planted communities. Vertex
// connectivity of a block spans roughly [prob*(minSize-1),
// prob*(maxSize-1)].
type blockSpec struct {
	count   int
	minSize int
	maxSize int
	prob    float64
	overlap int // chained vertex overlap (every 4th block)
	bridges int
}

type profile struct {
	meta Meta

	// Two community tiers. Real k-cores mix large, relatively sparse
	// k-connected regions (where group sweep and vertex deposits do the
	// pruning and the basic algorithm pays hundreds of flow tests) with
	// small near-clique blocks (where strong side-vertices fire). The mix
	// ratio shapes the dataset's Table 2 profile.
	sparse blockSpec
	dense  blockSpec

	// Optional "mega core": one large G(n,p) block with average degree
	// megaDeg, modelling the single huge dense core region of web and
	// citation graphs. Its average degree stays above 2k across the
	// paper's k range, so the k-th scan-first forest spans it and the
	// group sweep prunes it wholesale — the structure behind the paper's
	// largest VCCE-vs-VCCE* gaps (Stanford, Cnr, Cit). megaSize 0
	// disables the tier; the size scales with the dataset scale.
	megaSize int
	megaDeg  int

	// Background graph providing the global degree profile.
	background    string // "web", "ba"
	backgroundN   int
	backgroundDeg int
	copyProb      float64

	attachments int // random community<->background edges
	seed        int64
}

var profiles = []profile{
	{
		meta: Meta{Name: "Stanford", PaperVertices: 281903, PaperEdges: 2312497,
			PaperDensity: 8.20, PaperMaxDegree: 38625, Kind: "web"},
		sparse:   blockSpec{count: 40, minSize: 55, maxSize: 135, prob: 0.28, overlap: 3, bridges: 40},
		dense:    blockSpec{count: 30, minSize: 20, maxSize: 52, prob: 0.90, overlap: 3, bridges: 20},
		megaSize: 1600, megaDeg: 50,
		background: "web", backgroundN: 5200, backgroundDeg: 8, copyProb: 0.72,
		attachments: 350, seed: 101,
	},
	{
		meta: Meta{Name: "DBLP", PaperVertices: 317080, PaperEdges: 1049866,
			PaperDensity: 3.31, PaperMaxDegree: 343, Kind: "collaboration"},
		// Co-authorship is cliquey: the dense tier dominates, matching
		// DBLP's strong NS1 share in Table 2.
		sparse:     blockSpec{count: 18, minSize: 50, maxSize: 125, prob: 0.30, overlap: 3, bridges: 16},
		dense:      blockSpec{count: 60, minSize: 18, maxSize: 52, prob: 0.88, overlap: 3, bridges: 40},
		background: "ba", backgroundN: 6500, backgroundDeg: 2,
		attachments: 400, seed: 102,
	},
	{
		meta: Meta{Name: "Cnr", PaperVertices: 325557, PaperEdges: 3216152,
			PaperDensity: 9.88, PaperMaxDegree: 18236, Kind: "web"},
		// Cnr is the paper's group-sweep-heavy dataset: mostly large
		// sparse blocks.
		sparse:   blockSpec{count: 45, minSize: 55, maxSize: 140, prob: 0.28, overlap: 4, bridges: 44},
		dense:    blockSpec{count: 14, minSize: 20, maxSize: 52, prob: 0.90, overlap: 3, bridges: 10},
		megaSize: 1500, megaDeg: 52,
		background: "web", backgroundN: 4600, backgroundDeg: 10, copyProb: 0.75,
		attachments: 300, seed: 103,
	},
	{
		meta: Meta{Name: "ND", PaperVertices: 325729, PaperEdges: 1497134,
			PaperDensity: 4.60, PaperMaxDegree: 10721, Kind: "web"},
		sparse:     blockSpec{count: 36, minSize: 55, maxSize: 130, prob: 0.28, overlap: 3, bridges: 32},
		dense:      blockSpec{count: 22, minSize: 20, maxSize: 52, prob: 0.90, overlap: 3, bridges: 14},
		background: "web", backgroundN: 5200, backgroundDeg: 4, copyProb: 0.62,
		attachments: 280, seed: 104,
	},
	{
		meta: Meta{Name: "Google", PaperVertices: 875713, PaperEdges: 5105039,
			PaperDensity: 5.83, PaperMaxDegree: 6332, Kind: "web"},
		sparse:   blockSpec{count: 45, minSize: 55, maxSize: 135, prob: 0.28, overlap: 3, bridges: 48},
		dense:    blockSpec{count: 34, minSize: 20, maxSize: 52, prob: 0.90, overlap: 3, bridges: 22},
		megaSize: 1000, megaDeg: 48,
		background: "web", backgroundN: 8800, backgroundDeg: 5, copyProb: 0.66,
		attachments: 500, seed: 105,
	},
	{
		meta: Meta{Name: "Youtube", PaperVertices: 1134890, PaperEdges: 2987624,
			PaperDensity: 2.63, PaperMaxDegree: 28754, Kind: "social"},
		sparse:     blockSpec{count: 30, minSize: 20, maxSize: 60, prob: 0.30, overlap: 2, bridges: 24},
		dense:      blockSpec{count: 45, minSize: 10, maxSize: 22, prob: 0.80, overlap: 2, bridges: 28},
		background: "ba", backgroundN: 5200, backgroundDeg: 2,
		attachments: 380, seed: 106,
	},
	{
		meta: Meta{Name: "Cit", PaperVertices: 3774768, PaperEdges: 16518948,
			PaperDensity: 4.38, PaperMaxDegree: 793, Kind: "citation"},
		sparse:   blockSpec{count: 50, minSize: 50, maxSize: 130, prob: 0.28, overlap: 3, bridges: 44},
		dense:    blockSpec{count: 40, minSize: 18, maxSize: 52, prob: 0.88, overlap: 3, bridges: 26},
		megaSize: 1700, megaDeg: 48,
		background: "ba", backgroundN: 13000, backgroundDeg: 4,
		attachments: 650, seed: 107,
	},
}

// Names lists the datasets in the paper's Table 1 order (plus Youtube).
func Names() []string {
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.meta.Name
	}
	return names
}

// Load generates a dataset stand-in at the given scale (1.0 = default
// size; 0.5 = half the communities and background). Generation is
// deterministic per (name, scale).
func Load(name string, scale float64) (*graph.Graph, error) {
	for _, p := range profiles {
		if p.meta.Name == name {
			return build(p, scale), nil
		}
	}
	return nil, fmt.Errorf("dataset: unknown dataset %q (have %v)", name, Names())
}

// MustLoad is Load for tests and benchmarks with known-good names.
func MustLoad(name string, scale float64) *graph.Graph {
	g, err := Load(name, scale)
	if err != nil {
		panic(err)
	}
	return g
}

func scaleInt(v int, scale float64, min int) int {
	s := int(float64(v)*scale + 0.5)
	if s < min {
		return min
	}
	return s
}

func plantedConfig(b blockSpec, scale float64, seed int64) gen.PlantedConfig {
	return gen.PlantedConfig{
		Communities: scaleInt(b.count, scale, 2),
		MinSize:     b.minSize, MaxSize: b.maxSize, IntraProb: b.prob,
		ChainOverlap: b.overlap, ChainEvery: 4,
		BridgeEdges: scaleInt(b.bridges, scale, 0), Seed: seed,
	}
}

func build(p profile, scale float64) *graph.Graph {
	if scale <= 0 {
		scale = 1
	}
	sparseG, sparseComms := gen.Planted(plantedConfig(p.sparse, scale, p.seed))
	denseG, denseComms := gen.Planted(plantedConfig(p.dense, scale, p.seed+10))
	mega := megaBlock(p, scale)
	backgroundN := scaleInt(p.backgroundN, scale, 16)
	var bg *graph.Graph
	switch p.background {
	case "web":
		bg = gen.WebGraph(backgroundN, p.backgroundDeg, p.copyProb, p.seed+1)
	case "ba":
		m0 := p.backgroundDeg + 2
		bg = gen.BarabasiAlbert(backgroundN, m0, p.backgroundDeg, p.seed+1)
	default:
		panic("dataset: unknown background kind " + p.background)
	}

	// Merge the layers with disjoint label ranges.
	var edges [][2]int64
	layer := func(g *graph.Graph, offset int64) {
		for _, e := range g.Edges(nil) {
			edges = append(edges, [2]int64{offset + g.Label(e[0]), offset + g.Label(e[1])})
		}
	}
	layer(sparseG, 0)
	denseOffset := int64(sparseG.NumVertices())
	layer(denseG, denseOffset)
	megaOffset := denseOffset + int64(denseG.NumVertices())
	var bgOffset int64 = megaOffset
	if mega != nil {
		layer(mega, megaOffset)
		bgOffset += int64(mega.NumVertices())
	}
	layer(bg, bgOffset)
	// Attachment edges tie the layers together so the graph is one
	// loosely connected whole (k-core strips them during enumeration).
	rng := rand.New(rand.NewSource(p.seed + 2))
	pick := func() int64 {
		if rng.Intn(2) == 0 && len(denseComms) > 0 {
			c := denseComms[rng.Intn(len(denseComms))]
			return denseOffset + c[rng.Intn(len(c))]
		}
		c := sparseComms[rng.Intn(len(sparseComms))]
		return c[rng.Intn(len(c))]
	}
	for i := 0; i < scaleInt(p.attachments, scale, 1); i++ {
		edges = append(edges, [2]int64{pick(), bgOffset + int64(rng.Intn(bg.NumVertices()))})
	}
	if mega != nil {
		for i := 0; i < 10; i++ {
			edges = append(edges, [2]int64{megaOffset + int64(rng.Intn(mega.NumVertices())),
				bgOffset + int64(rng.Intn(bg.NumVertices()))})
		}
	}
	return graph.FromLabeledEdges(edges)
}

// megaBlock builds the optional dense core tier as an "onion": nested
// vertex layers of increasing density, so the block's k-core shrinks
// smoothly as k grows instead of dying all at once — the behaviour of the
// big dense core regions of real web and citation graphs. The outermost
// layer has average degree ≈ 0.55*megaDeg and each inner layer adds more,
// giving core numbers that span roughly [0.5*megaDeg, 1.9*megaDeg].
func megaBlock(p profile, scale float64) *graph.Graph {
	if p.megaSize == 0 {
		return nil
	}
	size := scaleInt(p.megaSize, scale, 200)
	rng := rand.New(rand.NewSource(p.seed + 20))
	var edges [][2]int
	layerFrac := []float64{1.0, 0.55, 0.30, 0.17}
	degFrac := []float64{0.55, 0.40, 0.45, 0.90}
	for li, lf := range layerFrac {
		s := int(float64(size) * lf)
		if s < 10 {
			break
		}
		q := float64(p.megaDeg) * degFrac[li] / float64(s-1)
		if q > 1 {
			q = 1
		}
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				if rng.Float64() < q {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
	}
	return graph.FromEdges(size, edges)
}

// Communities regenerates the planted community label sets of a dataset
// (ground truth for recovery measurements), sparse tier first.
func Communities(name string, scale float64) ([][]int64, error) {
	for _, p := range profiles {
		if p.meta.Name == name {
			if scale <= 0 {
				scale = 1
			}
			_, sparseComms := gen.Planted(plantedConfig(p.sparse, scale, p.seed))
			sparseG, _ := gen.Planted(plantedConfig(p.sparse, scale, p.seed))
			_, denseComms := gen.Planted(plantedConfig(p.dense, scale, p.seed+10))
			offset := int64(sparseG.NumVertices())
			out := append([][]int64(nil), sparseComms...)
			for _, c := range denseComms {
				shifted := make([]int64, len(c))
				for i, l := range c {
					shifted[i] = l + offset
				}
				out = append(out, shifted)
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Stats summarizes a generated graph next to the paper's reported numbers
// for the Table 1 reproduction.
type Stats struct {
	Meta      Meta
	Vertices  int
	Edges     int
	Density   float64
	MaxDegree int
}

// Table1 generates every dataset at the given scale and reports the
// Table 1 statistics (generated vs. paper).
func Table1(scale float64) []Stats {
	out := make([]Stats, 0, len(profiles))
	for _, p := range profiles {
		g := build(p, scale)
		out = append(out, Stats{
			Meta:      p.meta,
			Vertices:  g.NumVertices(),
			Edges:     g.NumEdges(),
			Density:   float64(g.NumEdges()) / float64(g.NumVertices()), // m/n, as in Table 1
			MaxDegree: g.MaxDegree(),
		})
	}
	return out
}
