package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"kvcc/graph"
	"kvcc/graphio"
	"kvcc/internal/core"
	"kvcc/internal/incr"
	"kvcc/internal/sparse"
	"kvcc/server"
)

// enum-cold: every request is a computed k-VCC enumeration, so the
// compute layers (incr, kcore, sparse, core, flow) do nearly all the
// work. One client, -cache 1 and no key twice in a row keep every answer
// off the cache, the dedup table and the index.

type ekey struct {
	graph string
	k     int
}

func (k ekey) String() string { return fmt.Sprintf("%s/%d", k.graph, k.k) }

// enumColdGrid is the (dataset, k) grid. The small-k part is where the
// auto engine picks LocalVC; the large-k part is sweep-heavy recursion.
// Stanford, Google and Cnr at k <= 8 collapse into one giant block that
// takes 9-22 s, so they are not in the grid.
func enumColdGrid() []ekey {
	var keys []ekey
	for _, g := range []string{"DBLP", "ND", "Cit", "Youtube"} {
		for _, k := range []int{6, 8} {
			keys = append(keys, ekey{g, k})
		}
	}
	for _, g := range []string{"Stanford", "Google", "Cit", "DBLP", "ND"} {
		for _, k := range []int{10, 15, 20, 25, 30} {
			keys = append(keys, ekey{g, k})
		}
	}
	return keys
}

// enumColdRate is the enumeration rate measured on a 2-vCPU VM; the
// sequence length is set from it: a run replays ceil(seconds*rate/len(keys))
// full passes over the grid, so every seed times the same multiset of keys.
const enumColdRate = 5.3

// enumColdWarm is the warm read that ends set-up: a cheap key outside the
// grid, so the first timed key is never the cached one.
var enumColdWarm = ekey{"Youtube", 20}

func enumColdKeys(g *golden) []ekey {
	dropped := map[string]bool{}
	for _, d := range g.Dropped {
		dropped[d] = true
	}
	var keys []ekey
	for _, k := range enumColdGrid() {
		if !dropped[k.String()] {
			keys = append(keys, k)
		}
	}
	return keys
}

func enumColdGraphs(keys []ekey) map[string]*graph.Graph {
	seen := map[string]bool{enumColdWarm.graph: true}
	names := []string{enumColdWarm.graph}
	for _, k := range keys {
		if !seen[k.graph] {
			seen[k.graph] = true
			names = append(names, k.graph)
		}
	}
	return loadGraphs(names...)
}

// enumColdSequence is n ops rounded up to whole passes over keys, each
// pass a seeded permutation, never the same key twice in a row.
func enumColdSequence(keys []ekey, seed int64, n int) []ekey {
	rng := rand.New(rand.NewSource(seed))
	passes := max(1, (n+len(keys)-1)/len(keys))
	var seq []ekey
	for p := 0; p < passes; p++ {
		pass := make([]ekey, len(keys))
		for i, j := range rng.Perm(len(keys)) {
			pass[i] = keys[j]
		}
		if len(seq) > 0 && len(pass) > 1 && pass[0] == seq[len(seq)-1] {
			pass[0], pass[1] = pass[1], pass[0]
		}
		seq = append(seq, pass...)
	}
	return seq
}

// enumerateOp requests one key; its check wants a computed answer whose
// components match the golden digest.
func enumerateOp(want map[string]string, k ekey) op {
	return op{kind: "enumerate", read: true, do: func(ctx context.Context, c countingClient) (string, float64, func() error, error) {
		r, err := c.Enumerate(ctx, server.EnumerateRequest{Graph: k.graph, K: k.k})
		if err != nil {
			return "error", 0, nil, err
		}
		src := source(r.Cached, r.Deduped, r.IndexServed, r.Degraded)
		return src, r.ElapsedMS, func() error {
			if err := wantSource(k.String(), src, "computed"); err != nil {
				return err
			}
			return checkDigest(want, k.String(), wireSets(r.Components))
		}, nil
	}}
}

func runEnumCold(e *env) (*result, error) {
	keys := enumColdKeys(e.golden)
	graphs := enumColdGraphs(keys)
	args, err := writeGraphs(e.work, graphs)
	if err != nil {
		return nil, err
	}
	args = append([]string{"-cache", "1"}, args...)
	r := &result{layers: layerSet{}}
	d, err := setupRepeats(e.cal, 5, r, nil, func() (*daemon, error) {
		d, err := startDaemon(e.kvccd, filepath.Join(e.work, "kvccd.log"), args...)
		if err != nil {
			return nil, err
		}
		if err := d.waitHealthy(60 * time.Second); err != nil {
			d.kill()
			return nil, err
		}
		warm := enumerateOp(e.golden.EnumCold, enumColdWarm)
		if err := warm.exec(newClient(d.base)); err != nil {
			d.kill()
			return nil, fmt.Errorf("warm read: %w", err)
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()

	// At least 100 reads, so the tail is p90 (ten samples beyond it).
	seq := enumColdSequence(keys, e.seed, max(100, int(float64(e.seconds)*enumColdRate)))
	ops := make([]op, len(seq))
	for i, k := range seq {
		ops[i] = enumerateOp(e.golden.EnumCold, k)
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
	// The ladder check per response is backed by the server's own count:
	// every op must have started exactly one enumeration.
	var ladder error
	if started := after.Enumerations.Started - before.Enumerations.Started; started != int64(len(ops)) {
		ladder = fmt.Errorf("enum-cold: %d enumerations started for %d requests", started, len(ops))
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
	return r, replayEnumCold(e, graphs, seq, parents, r.layers)
}

// replayEnumColdShort replays one seeded pass over the grid.
func replayEnumColdShort(e *env, l layerSet) error {
	keys := enumColdKeys(e.golden)
	return replayEnumCold(e, enumColdGraphs(keys), enumColdSequence(keys, e.seed, len(keys)), nil, l)
}

// replayEnumCold drives each request of seq through the compute layers
// in-process, with the server's enumeration options: incr.Partition
// (k-core peel and component split), then per k-core component a
// core.component span holding sparse.Compute and the engine's
// core.EnumerateComponentContext. The engine builds its own certificate
// too, so the component's self time is the engine call alone. parents
// holds the request span each replayed request reproduces, or is nil to
// give each one its own replay span.
func replayEnumCold(e *env, graphs map[string]*graph.Graph, seq []ekey, parents []int, l layerSet) error {
	tr := e.trace
	if err := replayIngest(e, graphs, l); err != nil {
		return err
	}
	ctx := context.Background()
	var st core.Stats
	var peeled, keptEdges, edges int64
	for i, k := range seq {
		parent := 0
		if parents != nil {
			parent = parents[i]
		} else {
			parent = tr.open("replay.enumerate", 0)
		}
		g := graphs[k.graph]
		var comps []*graph.Graph
		tr.timed("incr.Partition", parent, func() {
			var p int
			comps, _, p = incr.Partition(g, k.k)
			peeled += int64(p)
		})
		for _, c := range comps {
			id := tr.open("core.component", parent)
			tr.timed("sparse.Compute", id, func() {
				keptEdges += int64(sparse.Compute(c, k.k).SC.NumEdges())
				edges += int64(c.NumEdges())
			})
			_, s, err := core.EnumerateComponentContext(ctx, c, k.k, core.Options{Algorithm: core.VCCEStar})
			tr.close(id)
			if err != nil {
				return err
			}
			st.Add(s)
		}
		if parents == nil {
			tr.close(parent)
		}
	}
	spans := tr.snapshot()
	for _, m := range []struct {
		metric, span string
		self         bool
	}{
		{"incr.partition_ms", "incr.Partition", false},
		{"sparse.cert_ms", "sparse.Compute", false},
		{"core.component_ms", "core.component", false},
		{"core.component_self_ms", "core.component", true},
	} {
		v, err := medianPerRequest(spans, m.span, m.self)
		if err != nil {
			return err
		}
		l.set(m.metric, v, "ms")
	}
	l.set("kcore.peeled", float64(peeled)/float64(len(seq)), "count")
	l.set("sparse.kept_frac", frac(keptEdges, edges-keptEdges), "ratio")
	coreLayers(l, &st, len(seq))
	return nil
}

// replayIngest times graphio.StreamEdgeListFile, kvccd's -graph loader,
// on the workload's edge lists (written untimed first).
func replayIngest(e *env, graphs map[string]*graph.Graph, l layerSet) error {
	dir := filepath.Join(e.work, "replay-ingest")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, err := writeGraphs(dir, graphs); err != nil {
		return err
	}
	var total time.Duration
	var bytes int64
	for name := range graphs {
		path := filepath.Join(dir, name+".txt")
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		bytes += fi.Size()
		total += e.trace.timed("graphio.StreamEdgeListFile", 0, func() { _, err = graphio.StreamEdgeListFile(path) })
		if err != nil {
			return err
		}
	}
	l.set("graphio.ingest_s", total.Seconds(), "s")
	l.set("graphio.mb_per_s", float64(bytes)/1e6/total.Seconds(), "MB/s")
	return nil
}
