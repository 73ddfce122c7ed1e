package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"kvcc"
	"kvcc/graph"
	"kvcc/hierarchy"
	"kvcc/server"
)

// serve-hot: the index-served read path. kvccd runs with -index and no
// -data-dir, so set-up is ingest plus the full hierarchy builds (and no
// index persistence), and in the timed window the compute layers never
// run: every answer must come from the index.

// serveHotGraphs are the graphs kvccd indexes. DBLP is left out: kvccd's
// index build runs the basic VCCE variant (hierarchy.Options leaves
// Algorithm at its zero value), which takes 55 s on DBLP against 2.4 s for
// kvcc.BuildHierarchy, too long to repeat within a run. Youtube's build
// (17 s, 0.6 s with VCCE*) keeps that cost in setup_s.
var serveHotGraphs = []string{"Youtube"}

// serveHotRate is the nominal op rate of the one client the sequence
// length is set from.
const serveHotRate = 800.0

// shop is one serve-hot request: op is "enumerate", "overlap",
// "containing" (k and vertex) or "cohesion" (batch index in k).
type shop struct {
	op     string
	graph  string
	k      int
	vertex int64
}

func (o shop) key() string {
	switch o.op {
	case "containing":
		return fmt.Sprintf("containing/%s/%d/%d", o.graph, o.k, o.vertex)
	case "cohesion":
		return fmt.Sprintf("cohesion/%s/%d", o.graph, o.k)
	}
	return fmt.Sprintf("%s/%s/%d", o.op, o.graph, o.k)
}

// serveHotPass is every key the golden covers, once: enumerate and
// overlap at each k from 2 to the graph's deepest level, components-
// containing for each pool vertex at each of those k, and each cohesion
// batch.
func serveHotPass(g *golden) []shop {
	var pass []shop
	for _, name := range serveHotGraphs {
		for k := 2; k <= g.MaxK[name]; k++ {
			pass = append(pass, shop{"enumerate", name, k, 0}, shop{"overlap", name, k, 0})
			for _, v := range g.Pool[name] {
				pass = append(pass, shop{"containing", name, k, v})
			}
		}
		for i := range g.Batches[name] {
			pass = append(pass, shop{"cohesion", name, i, 0})
		}
	}
	return pass
}

// serveHotSequence is n ops rounded up to whole seeded permutations of
// the pass.
func serveHotSequence(g *golden, seed int64, n int) []shop {
	pass := serveHotPass(g)
	rng := rand.New(rand.NewSource(seed))
	var seq []shop
	for len(seq) < n {
		for _, j := range rng.Perm(len(pass)) {
			seq = append(seq, pass[j])
		}
	}
	return seq
}

func serveHotOp(g *golden, o shop) op {
	key := o.key()
	run := func(ctx context.Context, c countingClient) (string, float64, [][]int64, error) {
		switch o.op {
		case "enumerate":
			r, err := c.Enumerate(ctx, server.EnumerateRequest{Graph: o.graph, K: o.k})
			if err != nil {
				return "error", 0, nil, err
			}
			return source(r.Cached, r.Deduped, r.IndexServed, r.Degraded), r.ElapsedMS, wireSets(r.Components), nil
		case "overlap":
			r, err := c.Overlap(ctx, server.OverlapRequest{Graph: o.graph, K: o.k})
			if err != nil {
				return "error", 0, nil, err
			}
			return source(r.Cached, false, r.IndexServed, r.Degraded), 0, matrixSets(r.Matrix), nil
		case "containing":
			r, err := c.ComponentsContaining(ctx, server.ContainingRequest{Graph: o.graph, K: o.k, Vertex: o.vertex})
			if err != nil {
				return "error", 0, nil, err
			}
			return source(r.Cached, false, r.IndexServed, r.Degraded), 0, wireSets(r.Components), nil
		}
		vs := g.Batches[o.graph][o.k]
		r, err := c.Cohesion(ctx, server.CohesionRequest{Graph: o.graph, Vertices: vs})
		if err != nil {
			return "error", 0, nil, err
		}
		coh := make([]int, len(r.Results))
		got := make([]int64, len(r.Results))
		for i, vc := range r.Results {
			got[i], coh[i] = vc.Vertex, vc.Cohesion
		}
		// Cohesion is answered from the hierarchy by construction and
		// carries no rung flag; the window's stats check shows that no
		// enumeration ran.
		return "index", 0, cohesionSets(got, coh), nil
	}
	return op{kind: o.op, read: true, do: func(ctx context.Context, c countingClient) (string, float64, func() error, error) {
		src, ms, sets, err := run(ctx, c)
		if err != nil {
			return src, ms, nil, err
		}
		return src, ms, func() error {
			if err := wantSource(key, src, "index"); err != nil {
				return err
			}
			return checkDigest(g.ServeHot, key, sets)
		}, nil
	}}
}

// indexesReady reports whether every graph's k-VCC index is built.
func indexesReady(st *server.StatsResponse) (bool, error) {
	ready := 0
	for _, ix := range st.Indexes {
		if ix.Measure != "" {
			continue
		}
		switch ix.State {
		case "ready":
			ready++
		case "failed":
			return false, fmt.Errorf("index of %s failed", ix.Graph)
		}
	}
	return ready == len(serveHotGraphs), nil
}

func runServeHot(e *env) (*result, error) {
	graphs := loadGraphs(serveHotGraphs...)
	args, err := writeGraphs(e.work, graphs)
	if err != nil {
		return nil, err
	}
	args = append([]string{"-index"}, args...)
	r := &result{layers: layerSet{}}
	warm := serveHotOp(e.golden, shop{"enumerate", serveHotGraphs[0], e.golden.MaxK[serveHotGraphs[0]], 0})
	d, err := setupRepeats(e.cal, 2, r, nil, func() (*daemon, error) {
		d, err := startDaemon(e.kvccd, filepath.Join(e.work, "kvccd.log"), args...)
		if err != nil {
			return nil, err
		}
		fail := func(err error) (*daemon, error) {
			d.kill()
			return nil, err
		}
		if err := d.waitHealthy(60 * time.Second); err != nil {
			return fail(err)
		}
		for deadline := time.Now().Add(90 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			st, err := fetchStats(d.base)
			if err != nil {
				return fail(err)
			}
			ok, err := indexesReady(st)
			if err != nil {
				return fail(err)
			}
			if ok {
				break
			}
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("indexes not ready after 90s"))
			}
		}
		if err := warm.exec(newClient(d.base)); err != nil {
			return fail(fmt.Errorf("warm read: %w", err))
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()

	seq := serveHotSequence(e.golden, e.seed, int(float64(e.seconds)*serveHotRate))
	ops := make([]op, len(seq))
	for i, o := range seq {
		ops[i] = serveHotOp(e.golden, o)
	}
	before, err := fetchStats(d.base)
	if err != nil {
		return nil, err
	}
	r.win, err = runWindow(d.base, d.pid(), ops, e.trace, e.cal)
	if err != nil {
		return nil, err
	}
	after, err := fetchStats(d.base)
	if err != nil {
		return nil, err
	}
	if r.rssMB, err = processPeakRSS(d.pid()); err != nil {
		return nil, err
	}
	var ladder error
	if started := after.Enumerations.Started - before.Enumerations.Started; started != 0 {
		ladder = fmt.Errorf("serve-hot: %d enumerations ran in the window", started)
	}
	r.checks = append(r.checks, ladder)
	if e.trace == nil {
		return r, nil
	}
	serverLayers(r.layers, r.win, before, after)
	parents := make([]int, len(r.win.recs))
	for i, rec := range r.win.recs {
		parents[i] = rec.span
	}
	return r, replayServeHot(e, graphs, seq, parents, r.layers)
}

// replayServeHotShort replays one seeded pass.
func replayServeHotShort(e *env, l layerSet) error {
	seq := serveHotSequence(e.golden, e.seed, len(serveHotPass(e.golden)))
	return replayServeHot(e, loadGraphs(serveHotGraphs...), seq, nil, l)
}

// replayServeHot builds each graph's hierarchy with kvcc.BuildHierarchy,
// as kvccd's -index does, then answers seq from the trees in-process:
// LevelComponents for enumerate, overlap and containing, Cohesion and
// Path for cohesion batches.
func replayServeHot(e *env, graphs map[string]*graph.Graph, seq []shop, parents []int, l layerSet) error {
	tr := e.trace
	trees := map[string]*hierarchy.Tree{}
	var build time.Duration
	for _, name := range serveHotGraphs {
		var err error
		build += tr.timed("hierarchy.Build", 0, func() { trees[name], err = kvcc.BuildHierarchy(graphs[name]) })
		if err != nil {
			return err
		}
	}
	l.set("hierarchy.build_s", build.Seconds(), "s")
	var lookups []float64
	for i, o := range seq {
		parent := 0
		if parents != nil {
			parent = parents[i]
		} else {
			parent = tr.open("replay."+o.op, 0)
		}
		t := trees[o.graph]
		d := tr.timed("hierarchy.lookup", parent, func() {
			if o.op != "cohesion" {
				t.LevelComponents(o.k)
				return
			}
			for _, v := range e.golden.Batches[o.graph][o.k] {
				t.Cohesion(v)
				t.Path(v)
			}
		})
		lookups = append(lookups, float64(d)/float64(time.Microsecond))
		if parents == nil {
			tr.close(parent)
		}
	}
	l.set("hierarchy.lookup_us", median(lookups), "us")
	return nil
}
