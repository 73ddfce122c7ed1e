package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"kvcc"
	"kvcc/graph"
	"kvcc/internal/core"
	"kvcc/internal/incr"
	"kvcc/server"
	"kvcc/store"
)

// edit-stream: keyed edit batches beside reads on the enumerate endpoint,
// against a durable kvccd (-data-dir on disk, real fsync). Each batch is
// local to one k-core component, so the incremental path recomputes that
// component and reuses the rest; random edges would make every read a
// near-full recomputation and hide the reuse.

const (
	editGraph = "DBLP" // its k=10 k-core has 15 components
	editK     = 10
	// editInserts new edges per batch; once editLive inserted edges are
	// live, each batch also deletes the oldest ones, keeping the graph's
	// size steady.
	editInserts = 4
	editLive    = 8
	// editPrep batches form the WAL tail of the prepared data dir that
	// set-up recovers from.
	editPrep = 8
	// editCheckpointEvery is kvccd's -checkpoint-every: one batch in 16
	// is a spill (store.CompactToStore), so the write tail lands on them.
	editCheckpointEvery = 16
	// editCycleRate is the nominal rate of (edit, enumerate, containing)
	// cycles the sequence length is set from.
	editCycleRate = 30.0
)

// batch is one planned edit batch and what the oracle says it does.
type batch struct {
	ins, del [][2]int64
	key      string
	prev     uint64 // version before and after the batch
	version  uint64
	edges    int
}

// editPlan plans prep+n batches on an in-process graph.Delta over g, the
// oracle the server's answers are checked against. Every batch inserts
// editInserts absent edges inside one k-core component and deletes the
// oldest inserted edges beyond editLive. Components are edited in passes,
// each a seeded permutation of all of them, so every seed spreads its
// batches evenly over the components and times the same mix of work.
func editPlan(g *graph.Graph, seed int64, n int) ([]batch, *graph.Delta) {
	// The prep batches do not depend on the seed, so every run's set-up
	// recovers the same data dir; the window's batches do.
	rng := rand.New(rand.NewSource(0))
	var comps [][]int64
	for _, c := range kvcc.KCoreComponents(g, editK) {
		comps = append(comps, append([]int64(nil), c.Labels()...))
	}
	oracle := graph.NewDeltaAt(g, 1) // kvccd registers a graph at version 1
	var live [][2]int64
	var order []int // components still to edit in this pass
	plan := make([]batch, editPrep+n)
	for i := range plan {
		b := batch{key: fmt.Sprintf("prep-b%d", i), prev: oracle.Version()}
		if i >= editPrep {
			b.key = fmt.Sprintf("s%d-b%d", seed, i)
		}
		if i == editPrep {
			rng, order = rand.New(rand.NewSource(seed)), nil
		}
		if len(order) == 0 {
			order = rng.Perm(len(comps))
		}
		comp := comps[order[0]]
		order = order[1:]
		for len(b.ins) < editInserts {
			e := [2]int64{comp[rng.Intn(len(comp))], comp[rng.Intn(len(comp))]}
			u, v := oracle.IndexOfLabel(e[0]), oracle.IndexOfLabel(e[1])
			if u == v || oracle.HasEdge(u, v) {
				continue
			}
			oracle.InsertEdge(e[0], e[1])
			b.ins = append(b.ins, e)
			live = append(live, e)
		}
		for len(live) > editLive {
			oracle.DeleteEdge(live[0][0], live[0][1])
			b.del = append(b.del, live[0])
			live = live[1:]
		}
		b.version, b.edges = oracle.Version(), oracle.NumEdges()
		plan[i] = b
	}
	return plan, oracle
}

// walRecord is the batch as kvccd logs it.
func (b batch) walRecord() store.Batch {
	return store.Batch{PrevVersion: b.prev, NewVersion: b.version, Inserts: b.ins, Deletes: b.del, Key: b.key}
}

func editOp(b batch) op {
	return op{kind: "edit", write: true, do: func(ctx context.Context, c countingClient) (string, float64, func() error, error) {
		r, err := c.Edits(ctx, server.EditsRequest{Graph: editGraph, Inserts: b.ins, Deletes: b.del, IdempotencyKey: b.key})
		if err != nil {
			return "error", 0, nil, err
		}
		return "edit", r.ElapsedMS, func() error {
			switch {
			case !r.Persisted:
				return fmt.Errorf("batch %s: persisted:false", b.key)
			case r.Replayed:
				return fmt.Errorf("batch %s: answered from the replay table", b.key)
			case r.Version != b.version || r.Edges != b.edges ||
				r.AppliedInserts != len(b.ins) || r.AppliedDeletes != len(b.del):
				return fmt.Errorf("batch %s: version %d edges %d applied %d/%d, oracle %d %d %d/%d",
					b.key, r.Version, r.Edges, r.AppliedInserts, r.AppliedDeletes, b.version, b.edges, len(b.ins), len(b.del))
			}
			return nil
		}, nil
	}}
}

// editReads holds the latest enumerate answer of the single edit-stream
// client; its ops run in order, so no locking is needed.
type editReads struct {
	comps   [][]int64
	version uint64
}

func (s *editReads) enumerateOp(version uint64) op {
	return op{kind: "enumerate", read: true, do: func(ctx context.Context, c countingClient) (string, float64, func() error, error) {
		r, err := c.Enumerate(ctx, server.EnumerateRequest{Graph: editGraph, K: editK})
		if err != nil {
			return "error", 0, nil, err
		}
		src := source(r.Cached, r.Deduped, r.IndexServed, r.Degraded)
		return src, r.ElapsedMS, func() error {
			s.comps, s.version = wireSets(r.Components), version
			return wantSource(fmt.Sprintf("enumerate at version %d", version), src, "computed")
		}, nil
	}}
}

// containingOp asks for the components holding an edited vertex. The
// enumerate just before it cached the answer at this version, so it must
// be a cache hit naming exactly those of its components that hold v.
func (s *editReads) containingOp(v int64) op {
	return op{kind: "containing", do: func(ctx context.Context, c countingClient) (string, float64, func() error, error) {
		r, err := c.ComponentsContaining(ctx, server.ContainingRequest{Graph: editGraph, K: editK, Vertex: v})
		if err != nil {
			return "error", 0, nil, err
		}
		src := source(r.Cached, false, r.IndexServed, r.Degraded)
		return src, 0, func() error {
			if err := wantSource(fmt.Sprintf("containing %d", v), src, "cached"); err != nil {
				return err
			}
			var want [][]int64
			for _, set := range s.comps {
				if slices.Contains(set, v) {
					want = append(want, set)
				}
			}
			if got, exp := digestSets(wireSets(r.Components)), digestSets(want); got != exp {
				return fmt.Errorf("containing %d at version %d: digest %s, enumerate says %s", v, s.version, got, exp)
			}
			return nil
		}, nil
	}}
}

// copyDir copies the regular files of a data dir tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

func runEditStream(e *env) (*result, error) {
	g := loadGraphs(editGraph)
	graphArgs, err := writeGraphs(e.work, g)
	if err != nil {
		return nil, err
	}
	n := int(float64(e.seconds) * editCycleRate)
	plan, oracle := editPlan(g[editGraph], e.seed, n)
	log := filepath.Join(e.work, "kvccd.log")
	durable := func(dir string) []string {
		return []string{"-data-dir", dir, "-checkpoint-every", fmt.Sprint(editCheckpointEvery)}
	}

	// Untimed prep: a data dir holding the version-1 snapshot plus a WAL
	// tail of editPrep batches.
	prep := filepath.Join(e.work, "prep")
	d, err := startDaemon(e.kvccd, log, append(durable(prep), graphArgs...)...)
	if err != nil {
		return nil, err
	}
	if err := d.waitHealthy(60 * time.Second); err != nil {
		d.kill()
		return nil, err
	}
	for _, b := range plan[:editPrep] {
		if err := editOp(b).exec(newClient(d.base)); err != nil {
			d.kill()
			return nil, fmt.Errorf("prep: %w", err)
		}
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	// Set-up: recover from a fresh copy of the prepared dir (store.Open:
	// snapshot map plus WAL replay) and run the seeding enumeration.
	r := &result{layers: layerSet{}}
	reads := &editReads{}
	var dir string
	rep := 0
	prepare := func() error {
		rep++
		dir = filepath.Join(e.work, fmt.Sprintf("data-%d", rep))
		return copyDir(prep, dir)
	}
	d, err = setupRepeats(e.cal, 9, r, prepare, func() (*daemon, error) {
		d, err := startDaemon(e.kvccd, log, durable(dir)...)
		if err != nil {
			return nil, err
		}
		if err := d.waitHealthy(60 * time.Second); err != nil {
			d.kill()
			return nil, err
		}
		if err := reads.enumerateOp(plan[editPrep-1].version).exec(newClient(d.base)); err != nil {
			d.kill()
			return nil, fmt.Errorf("seeding enumeration: %w", err)
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	window := plan[editPrep:]
	ops := make([]op, 0, 3*len(window))
	for _, b := range window {
		ops = append(ops, editOp(b), reads.enumerateOp(b.version), reads.containingOp(b.ins[0][0]))
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

	// Final state against the oracle: the batches replayed on graph.Delta
	// and enumerated from scratch.
	res, err := kvcc.Enumerate(oracle.Compact(), editK)
	if err != nil {
		return nil, err
	}
	want := digestSets(graphSets(res.Components))
	last := plan[len(plan)-1].version
	var final error
	if got := digestSets(reads.comps); reads.version != last || got != want {
		final = fmt.Errorf("final state: enumerate at version %d digest %s, oracle at %d %s", reads.version, got, last, want)
	}
	r.checks = append(r.checks, final)

	// Untimed restart: recovery must land on the last acknowledged
	// version with the oracle's components.
	if err := d.stop(); err != nil {
		return nil, err
	}
	d = nil
	r.checks = append(r.checks, checkRecovery(e, log, durable(dir), last, want))

	if e.trace == nil {
		return r, nil
	}
	serverLayers(r.layers, r.win, before, after)
	parents := make([]int, len(r.win.recs))
	for i, rec := range r.win.recs {
		parents[i] = rec.span
	}
	return r, replayEditStream(e, g[editGraph], plan, parents, r.layers)
}

func checkRecovery(e *env, log string, args []string, version uint64, want string) error {
	d, err := startDaemon(e.kvccd, log, args...)
	if err != nil {
		return err
	}
	defer d.stop()
	if err := d.waitHealthy(60 * time.Second); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := newClient(d.base)
	infos, err := c.Graphs(ctx)
	if err != nil {
		return err
	}
	if len(infos) != 1 || infos[0].Version != version {
		return fmt.Errorf("restart: recovered %+v, want %s at version %d", infos, editGraph, version)
	}
	resp, err := c.Enumerate(ctx, server.EnumerateRequest{Graph: editGraph, K: editK})
	if err != nil {
		return err
	}
	if got := digestSets(wireSets(resp.Components)); got != want {
		return fmt.Errorf("restart: digest %s, oracle %s", got, want)
	}
	return nil
}

// prepareStore writes what kvccd's prep leaves in a graph's store: the
// version-1 snapshot of g plus a WAL tail of the prep batches.
func prepareStore(dir string, g *graph.Graph, prep []batch) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	if err := st.Checkpoint(g, 1); err != nil {
		st.Close()
		return err
	}
	for _, b := range prep {
		if err := st.Append(b.walRecord()); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// replayEditStreamShort replays three checkpoint cycles of batches.
func replayEditStreamShort(e *env, l layerSet) error {
	g := loadGraphs(editGraph)[editGraph]
	plan, _ := editPlan(g, e.seed, 3*editCheckpointEvery)
	return replayEditStream(e, g, plan, nil, l)
}

// replayEditStream drives the plan through the write-path layers
// in-process, with kvccd's policy: the prep batches go to a store that is
// then reopened (store.Open recovery); each window batch is applied to a
// graph.Delta, then either appended to the WAL (Store.Append, fsync) or,
// on every editCheckpointEvery-th pending batch, spilled into a fresh
// snapshot (Store.CompactToStore); then incr.Run re-enumerates with the
// previous result. parents holds the request spans of the window's
// (edit, enumerate, containing) cycles, or is nil.
func replayEditStream(e *env, g *graph.Graph, plan []batch, parents []int, l layerSet) error {
	tr := e.trace
	dir := filepath.Join(e.work, "replay-store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := prepareStore(dir, g, plan[:editPrep]); err != nil {
		return err
	}
	var st *store.Store
	var err error
	open := tr.timed("store.Open", 0, func() { st, err = store.Open(dir, store.Options{}) })
	if err != nil {
		return err
	}
	defer st.Close()
	replayed, _ := st.Replayed()
	cur, version, _ := st.Graph()
	delta := graph.NewDeltaAt(cur, version)
	walPath := filepath.Join(dir, "wal.log")
	walSize := func() int64 {
		fi, err := os.Stat(walPath)
		if err != nil {
			return 0
		}
		return fi.Size()
	}

	var applyUS, appendMS, spillMS []float64
	var walBytes, walEdits, reused, recomputed int64
	var prev *incr.Store
	for i, b := range plan[editPrep:] {
		editSpan, enumSpan := 0, 0
		if parents != nil {
			editSpan, enumSpan = parents[3*i], parents[3*i+1]
		} else {
			editSpan = tr.open("replay.edit", 0)
			enumSpan = editSpan
		}
		d := tr.timed("graph.Delta", editSpan, func() {
			for _, x := range b.ins {
				delta.InsertEdge(x[0], x[1])
			}
			for _, x := range b.del {
				delta.DeleteEdge(x[0], x[1])
			}
		})
		applyUS = append(applyUS, float64(d)/float64(time.Microsecond))
		if st.Pending()+1 >= editCheckpointEvery {
			d = tr.timed("store.CompactToStore", editSpan, func() { cur, err = st.CompactToStore(delta, b.key) })
			spillMS = append(spillMS, float64(d)/float64(time.Millisecond))
		} else {
			w0 := walSize()
			d = tr.timed("store.Append", editSpan, func() {
				err = st.Append(b.walRecord())
			})
			appendMS = append(appendMS, float64(d)/float64(time.Millisecond))
			walBytes += walSize() - w0
			walEdits += int64(len(b.ins) + len(b.del))
			cur = delta.Compact()
		}
		if err != nil {
			return err
		}
		var s *core.Stats
		tr.timed("incr.Run", enumSpan, func() {
			prev, s, err = incr.Run(context.Background(), cur, editK, core.Options{Algorithm: core.VCCEStar}, prev)
		})
		if err != nil {
			return err
		}
		if i > 0 { // the first run has no previous result to reuse
			reused += s.ComponentsReused
			recomputed += s.ComponentsRecomputed
		}
		if parents == nil {
			tr.close(editSpan)
		}
	}
	l.set("store.open_ms", float64(open)/float64(time.Millisecond), "ms")
	l.set("store.replayed_batches", float64(replayed), "count")
	l.set("graph.delta_apply_us", median(applyUS), "us")
	l.set("store.append_p50_ms", percentile(appendMS, 50), "ms")
	l.set("store.append_p95_ms", percentile(appendMS, 95), "ms")
	l.set("store.spill_ms", median(spillMS), "ms")
	l.set("store.wal_appends", float64(len(appendMS)), "count")
	l.set("store.spill_compactions", float64(len(spillMS)), "count")
	l.set("store.wal_bytes_per_edit", float64(walBytes)/float64(max(walEdits, 1)), "B")
	l.set("incr.reuse_frac", frac(reused, recomputed), "ratio")
	return nil
}
