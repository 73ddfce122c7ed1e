package server

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"context"

	"kvcc/cohesion"
	"kvcc/graph"
	"kvcc/internal/kcore"
	"kvcc/metrics"
)

// Graph profiling: GET /api/v1/graphs/{name}/profile answers "what does
// this graph look like, and what k is worth asking about?" before any
// enumeration is run. The graph-level portion — degeneracy, core-number
// histogram, degree and component-size distributions, clustering — is a
// pure function of the snapshot, so it is computed once per (graph,
// generation) and cached; the optional per-vertex portion reads the three
// cohesion hierarchies (core(u) from the kcore tree, λ(u) from kecc,
// κ(u) from kvcc), building them on demand like the cohesion endpoint.

// ProfileRequest asks for a graph's structural profile. The HTTP handler
// fills it from the URL: the graph from the path, Vertices from the
// comma-separated "vertices" query parameter, TimeoutMillis from
// "timeout_ms".
type ProfileRequest struct {
	Graph string `json:"graph"`
	// Vertices optionally asks for the per-vertex cohesion profile
	// (core, λ, κ) of up to 1024 vertex labels. Each triple satisfies
	// core ≥ λ ≥ κ: the k-core contains the k-ECC contains the k-VCC.
	Vertices      []int64 `json:"vertices,omitempty"`
	TimeoutMillis int64   `json:"timeout_ms,omitempty"`
}

// DegreeProfile summarizes the degree distribution.
type DegreeProfile struct {
	Min  int     `json:"min"`
	P50  int     `json:"p50"`
	P90  int     `json:"p90"`
	P99  int     `json:"p99"`
	Max  int     `json:"max"`
	Mean float64 `json:"mean"`
}

// ComponentsProfile summarizes the connected components of the graph.
// LargestSizes lists component sizes in descending order until at least
// 90% of all vertices are covered — on most real graphs that is a single
// giant component, and a long list is itself the finding.
type ComponentsProfile struct {
	Count int `json:"count"`
	// LargestSizes covers >= 90% of the vertices; CoveredFraction is the
	// exact fraction those components hold.
	LargestSizes    []int   `json:"largest_sizes"`
	CoveredFraction float64 `json:"covered_fraction"`
	P50             int     `json:"p50"`
	P90             int     `json:"p90"`
	Max             int     `json:"max"`
}

// ClusteringProfile summarizes triadic closure.
type ClusteringProfile struct {
	// GlobalCoefficient is the transitivity ratio 3·triangles/wedges.
	GlobalCoefficient float64 `json:"global_coefficient"`
	Triangles         int     `json:"triangles"`
}

// RecommendedK is the k range the core-number histogram suggests probing:
// below Min the components are near-trivial (k prunes almost nothing),
// above Max (the degeneracy) every level is empty, and Suggested is the
// deepest k whose k-core is still large enough to host interesting
// components. Derived deterministically from the histogram alone.
type RecommendedK struct {
	Min       int `json:"min"`
	Max       int `json:"max"`
	Suggested int `json:"suggested"`
}

// VertexProfile is one vertex's cohesion triple. Core is its core number,
// Lambda the deepest k with a k-ECC containing it, Kappa the deepest k
// with a k-VCC containing it; Whitney's inequality guarantees
// Core >= Lambda >= Kappa.
type VertexProfile struct {
	Vertex int64 `json:"vertex"`
	Core   int   `json:"core"`
	Lambda int   `json:"lambda"`
	Kappa  int   `json:"kappa"`
}

// ProfileResponse is the structural profile of one graph.
type ProfileResponse struct {
	Graph    string `json:"graph"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	// Degeneracy is the maximum core number — the exact upper bound on
	// any k with a non-empty k-core, k-ECC or k-VCC level.
	Degeneracy int `json:"degeneracy"`
	// CoreHistogram[c] counts the vertices with core number exactly c
	// (index 0 = isolated vertices, last index = degeneracy).
	CoreHistogram []int             `json:"core_histogram"`
	Degrees       DegreeProfile     `json:"degrees"`
	Components    ComponentsProfile `json:"components"`
	Clustering    ClusteringProfile `json:"clustering"`
	RecommendedK  RecommendedK      `json:"recommended_k"`
	PerVertex     []VertexProfile   `json:"per_vertex,omitempty"`
	// Cached reports that the graph-level profile was served from the
	// per-generation cache rather than recomputed.
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// graphProfile is one cached graph-level profile, valid for one
// generation of one graph.
type graphProfile struct {
	gen  uint64
	data ProfileResponse // per-request fields (PerVertex, Cached, ElapsedMS) left zero
}

// profileFor returns the graph-level profile for entry, computing and
// caching it on first request per generation.
func (s *Server) profileFor(name string, entry graphEntry) (ProfileResponse, bool) {
	s.profileMu.Lock()
	if p := s.profiles[name]; p != nil && p.gen == entry.gen {
		data := p.data
		s.profileMu.Unlock()
		return data, true
	}
	s.profileMu.Unlock()

	data := computeProfile(name, entry.g)

	s.profileMu.Lock()
	// Last writer wins; both computed the same pure function of the
	// snapshot, so overwriting is harmless. A newer generation's profile
	// is never displaced by this older one.
	if p := s.profiles[name]; p == nil || p.gen <= entry.gen {
		if s.profiles == nil {
			s.profiles = make(map[string]*graphProfile)
		}
		s.profiles[name] = &graphProfile{gen: entry.gen, data: data}
	}
	s.profileMu.Unlock()
	return data, false
}

// dropProfile forgets the cached profile of a removed graph (replaced
// graphs are handled by the generation check in profileFor).
func (s *Server) dropProfile(name string) {
	s.profileMu.Lock()
	delete(s.profiles, name)
	s.profileMu.Unlock()
}

// Profile serves one graph-profile request. It is the method behind
// GET /api/v1/graphs/{name}/profile.
func (s *Server) Profile(ctx context.Context, req ProfileRequest) (*ProfileResponse, error) {
	if len(req.Vertices) > maxCohesionVertices {
		return nil, fmt.Errorf("%w: at most %d vertices per profile request, got %d",
			ErrBadRequest, maxCohesionVertices, len(req.Vertices))
	}
	begin := time.Now()
	entry, err := s.lookup(req.Graph)
	if err != nil {
		return nil, err
	}
	ctx, cancel, err := s.requestContext(ctx, req.TimeoutMillis)
	if err != nil {
		return nil, err
	}
	defer cancel()
	release, err := s.admit(ctx, classCheap, req.Graph)
	if err != nil {
		return nil, err
	}
	defer release()

	data, cached := s.profileFor(req.Graph, entry)
	resp := data // copy; the cached value stays pristine
	resp.Cached = cached

	if len(req.Vertices) > 0 {
		pv, err := s.perVertexProfiles(ctx, req.Graph, req.Vertices)
		if err != nil {
			return nil, err
		}
		resp.PerVertex = pv
	}

	s.statsMu.Lock()
	s.enum.Profiles++
	s.statsMu.Unlock()
	resp.ElapsedMS = float64(time.Since(begin)) / float64(time.Millisecond)
	return &resp, nil
}

// perVertexProfiles reads the three cohesion hierarchies — built on
// demand, like the cohesion endpoint — and assembles one (core, λ, κ)
// triple per requested label. The three indexFor calls run concurrently:
// each build is independent and the first profile request would otherwise
// pay them back to back.
func (s *Server) perVertexProfiles(ctx context.Context, name string, vertices []int64) ([]VertexProfile, error) {
	measures := [3]cohesion.Measure{cohesion.KCore, cohesion.KECC, cohesion.KVCC}
	var trees [3]*graphIndex
	var errs [3]error
	var wg sync.WaitGroup
	for i, m := range measures {
		wg.Add(1)
		go func() {
			defer wg.Done()
			trees[i], errs[i] = s.indexFor(ctx, name, m)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]VertexProfile, 0, len(vertices))
	for _, v := range vertices {
		out = append(out, VertexProfile{
			Vertex: v,
			Core:   trees[0].tree.Cohesion(v),
			Lambda: trees[1].tree.Cohesion(v),
			Kappa:  trees[2].tree.Cohesion(v),
		})
	}
	return out, nil
}

// computeProfile derives the graph-level profile: one core decomposition,
// one BFS over the components, one triangle pass. Everything below is a
// deterministic pure function of the snapshot.
func computeProfile(name string, g *graph.Graph) ProfileResponse {
	n := g.NumVertices()
	resp := ProfileResponse{
		Graph:    name,
		Vertices: n,
		Edges:    g.NumEdges(),
	}

	cores := kcore.CoreNumbers(g)
	degeneracy := 0
	for _, c := range cores {
		if c > degeneracy {
			degeneracy = c
		}
	}
	resp.Degeneracy = degeneracy
	resp.CoreHistogram = make([]int, degeneracy+1)
	for _, c := range cores {
		resp.CoreHistogram[c]++
	}

	resp.Degrees = degreeProfile(g)
	resp.Components = componentsProfile(g)
	resp.Clustering = ClusteringProfile{
		GlobalCoefficient: metrics.ClusteringCoefficient(g),
		Triangles:         metrics.TriangleCount(g),
	}
	resp.RecommendedK = recommendK(resp.CoreHistogram, n)
	return resp
}

// percentile returns the nearest-rank q-th percentile of sorted
// (ascending) values; zero for an empty slice.
func percentile(sorted []int, q float64) int {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func degreeProfile(g *graph.Graph) DegreeProfile {
	n := g.NumVertices()
	if n == 0 {
		return DegreeProfile{}
	}
	degs := make([]int, n)
	total := 0
	for v := 0; v < n; v++ {
		degs[v] = g.Degree(v)
		total += degs[v]
	}
	sort.Ints(degs)
	return DegreeProfile{
		Min:  degs[0],
		P50:  percentile(degs, 0.50),
		P90:  percentile(degs, 0.90),
		P99:  percentile(degs, 0.99),
		Max:  degs[n-1],
		Mean: float64(total) / float64(n),
	}
}

// componentsProfile BFS-labels the connected components and summarizes
// their sizes, listing the largest ones until 90% of the vertices are
// covered.
func componentsProfile(g *graph.Graph) ComponentsProfile {
	n := g.NumVertices()
	if n == 0 {
		return ComponentsProfile{}
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var sizes []int
	queue := make([]int, 0, 64)
	for start := 0; start < n; start++ {
		if comp[start] >= 0 {
			continue
		}
		id := len(sizes)
		comp[start] = id
		queue = append(queue[:0], start)
		size := 0
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			for _, w := range g.Neighbors(v) {
				if comp[w] < 0 {
					comp[w] = id
					queue = append(queue, w)
				}
			}
		}
		sizes = append(sizes, size)
	}

	sorted := append([]int(nil), sizes...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	covered := 0
	var largest []int
	for _, sz := range sorted {
		largest = append(largest, sz)
		covered += sz
		if float64(covered) >= 0.9*float64(n) {
			break
		}
	}
	asc := append([]int(nil), sorted...)
	sort.Ints(asc)
	return ComponentsProfile{
		Count:           len(sizes),
		LargestSizes:    largest,
		CoveredFraction: float64(covered) / float64(n),
		P50:             percentile(asc, 0.50),
		P90:             percentile(asc, 0.90),
		Max:             sorted[0],
	}
}

// recommendK turns the core histogram into a probing range. coreSizes(k)
// — the k-core's vertex count — is the histogram's suffix sum. Min is the
// smallest k >= 2 whose core already prunes at least 10% of the graph
// (below that, enumeration mostly re-reports the whole graph); Max is the
// degeneracy; Suggested is the deepest k whose k-core keeps at least
// max(2(k+1), 5% of n) vertices — big enough for more than one component
// of the minimum size k+1 — clamped into [Min, Max].
func recommendK(hist []int, n int) RecommendedK {
	degeneracy := len(hist) - 1
	if n == 0 || degeneracy < 2 {
		return RecommendedK{Min: 2, Max: degeneracy, Suggested: degeneracy}
	}
	coreSize := make([]int, degeneracy+1)
	coreSize[degeneracy] = hist[degeneracy]
	for c := degeneracy - 1; c >= 0; c-- {
		coreSize[c] = coreSize[c+1] + hist[c]
	}

	rec := RecommendedK{Min: 2, Max: degeneracy}
	for k := 2; k <= degeneracy; k++ {
		if float64(coreSize[k]) <= 0.9*float64(n) {
			rec.Min = k
			break
		}
	}
	rec.Suggested = rec.Min
	for k := degeneracy; k >= 2; k-- {
		want := 2 * (k + 1)
		if pct := n / 20; pct > want {
			want = pct
		}
		if coreSize[k] >= want {
			rec.Suggested = k
			break
		}
	}
	if rec.Suggested < rec.Min {
		rec.Suggested = rec.Min
	}
	if rec.Suggested > rec.Max {
		rec.Suggested = rec.Max
	}
	return rec
}
