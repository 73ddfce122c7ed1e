// Command kvccbench is the end-to-end benchmark of kvccd. It starts a
// real kvccd as a child process, drives it over loopback HTTP with
// server.Client in one of three closed-loop workloads, checks every
// answer, and prints the metrics by name with their units; the last line
// of its output is one JSON object. See README.md for the workloads, the
// metrics and what each per-layer metric should move.
//
// Usage (normally through run.sh, which builds both binaries first):
//
//	kvccbench -root DIR -kvccd BIN -workload enum-cold -seed 1 -seconds 10 -trace 0
//	kvccbench -root DIR -kvccd BIN -report 10 [-workload W]   # steadiness report
//	kvccbench -root DIR -write-golden                          # regenerate golden.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"kvcc/graph"
	"kvcc/graphio"
	"kvcc/internal/dataset"
)

// env is what one run of a workload works with.
type env struct {
	root    string // checkout root
	kvccd   string // kvccd binary
	work    string // scratch directory of this run, removed at the end
	seed    int64
	seconds int
	trace   *tracer // nil in measured runs
	cal     *calibrator
	golden  *golden
}

// workload is one traffic mix. run measures it end to end (and, when
// traced, replays its own requests through the layers); replay drives a
// short seeded sequence of its inputs through the layers in-process
// without kvccd, so every traced run reports every layer.
type workload struct {
	name   string
	run    func(e *env) (*result, error)
	replay func(e *env, layers layerSet) error
}

var workloads = []workload{
	{"enum-cold", runEnumCold, replayEnumColdShort},
	{"serve-hot", runServeHot, replayServeHotShort},
	{"edit-stream", runEditStream, replayEditStreamShort},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run()) }

func run() int {
	var (
		root        = flag.String("root", ".", "checkout root")
		kvccd       = flag.String("kvccd", "", "kvccd binary")
		name        = flag.String("workload", "", "enum-cold | serve-hot | edit-stream")
		seed        = flag.Int64("seed", 1, "workload seed")
		seconds     = flag.Int("seconds", 10, "nominal length of the timed window")
		trace       = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		reportRuns  = flag.Int("report", 0, "steadiness report: run each workload this many times")
		writeGolden = flag.Bool("write-golden", false, "recompute golden.json in-process and exit")
	)
	flag.Parse()
	goldenPath := filepath.Join(*root, "kvccbench", "golden.json")
	if *writeGolden {
		if err := makeGolden(goldenPath); err != nil {
			fmt.Fprintln(os.Stderr, "kvccbench:", err)
			return 1
		}
		return 0
	}
	g, err := loadGolden(goldenPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvccbench:", err)
		return 1
	}
	if *kvccd == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "kvccbench: need -kvccd and -seconds >= 1")
		return 2
	}
	base := env{root: *root, kvccd: *kvccd, seconds: *seconds, golden: g}
	if *reportRuns > 0 {
		if err := steadinessReport(base, *name, *reportRuns); err != nil {
			fmt.Fprintln(os.Stderr, "kvccbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "kvccbench: unknown workload %q\n", *name)
		return 2
	}
	base.seed = *seed
	r, metrics, err := runOnce(base, w, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvccbench:", err)
		return 1
	}
	if err := writeReport(os.Stdout, w.name, r, metrics); err != nil {
		fmt.Fprintln(os.Stderr, "kvccbench:", err)
		return 1
	}
	return 0
}

// runOnce runs one workload in a fresh scratch directory under
// .bench_build and returns its end-to-end metrics, or with traced set its
// per-layer metrics.
func runOnce(e env, w workload, traced bool) (*result, map[string]metric, error) {
	dir, err := os.MkdirTemp(filepath.Join(e.root, ".bench_build"), "run-"+w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	e.work = dir
	e.cal = newCalibrator()
	if traced {
		e.trace = newTracer()
	}
	r, err := w.run(&e)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.slowdown = e.cal.slowdown()
	e2e, wall := r.endToEnd(), r.wallClock()
	if !traced {
		for _, n := range sortedNames(wall) {
			r.notef("%s %.4f %s (wall clock, not in the result)", n, wall[n].Value, wall[n].Unit)
		}
		return r, e2e, nil
	}
	// The traced run's own end-to-end figures, next to the untraced
	// runs' medians, are the tracing overhead; its wall-clock figures
	// are reported beside them.
	for _, ms := range []map[string]metric{e2e, wall} {
		for n, m := range ms {
			if !strings.HasPrefix(n, "write_") {
				r.layers["traced."+n] = m
			}
		}
	}
	r.layers.set("host.cpu_slowdown", r.slowdown, "ratio")
	for _, o := range workloads {
		if o.name != w.name {
			if err := o.replay(&e, r.layers); err != nil {
				return nil, nil, fmt.Errorf("%s layer replay: %w", o.name, err)
			}
		}
	}
	out := filepath.Join(e.root, ".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, e.seed))
	if err := e.trace.write(out); err != nil {
		return nil, nil, err
	}
	r.notef("spans written to %s", out)
	return r, r.layers, nil
}

// setupRepeats starts kvccd reps times through start, timing each from
// exec to the moment the first timed request could go out, and keeps the
// last daemon running for the window. It records kvccd's CPU time over
// that span (setup_s) and the wall time (printed beside it). prepare,
// when not nil, runs untimed before each start. Set-up is repeated
// because one start is too short to time steadily; the run reports the
// median. After each set-up, with kvccd idle, cal takes a few samples.
func setupRepeats(cal *calibrator, reps int, r *result, prepare func() error, start func() (*daemon, error)) (*daemon, error) {
	var d *daemon
	for i := 0; i < reps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		if prepare != nil {
			if err := prepare(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		d, err = start()
		if err != nil {
			return nil, err
		}
		wall := time.Since(t)
		cpu, err := processCPUClock(d.pid())
		if err != nil {
			d.kill()
			return nil, err
		}
		r.setups = append(r.setups, cpu.Seconds())
		r.setupWalls = append(r.setupWalls, wall.Seconds())
		for j := 0; j < 4; j++ {
			if err := cal.sample(); err != nil {
				d.kill()
				return nil, err
			}
		}
	}
	return d, nil
}

// loadGraphs generates the offline dataset stand-ins at scale 1.0. They do
// not depend on the seed: the seed picks the request sequence, so the
// committed golden digests cover every run.
func loadGraphs(names ...string) map[string]*graph.Graph {
	out := make(map[string]*graph.Graph, len(names))
	for _, n := range names {
		out[n] = dataset.MustLoad(n, 1.0)
	}
	return out
}

// writeGraphs saves graphs as edge lists in dir and returns kvccd's
// -graph arguments for them, in name order.
func writeGraphs(dir string, gs map[string]*graph.Graph) ([]string, error) {
	names := make([]string, 0, len(gs))
	for n := range gs {
		names = append(names, n)
	}
	sort.Strings(names)
	var args []string
	for _, n := range names {
		p := filepath.Join(dir, n+".txt")
		if err := graphio.WriteEdgeListFile(p, gs[n]); err != nil {
			return nil, err
		}
		args = append(args, "-graph", n+"="+p)
	}
	return args, nil
}

// steadinessReport runs each workload (or only the named one) runs times
// with seeds 1..runs and prints, per end-to-end metric, the median, the
// quartiles and spread/median, plus host steal per run.
func steadinessReport(base env, only string, runs int) error {
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		vals := map[string][]float64{}
		var steal []float64
		for i := 1; i <= runs; i++ {
			e := base
			e.seed = int64(i)
			r, m, err := runOnce(e, w, false)
			if err != nil {
				return err
			}
			if f := r.failures(); len(f) > 0 {
				return fmt.Errorf("%s seed %d: %d failed ops, first: %v", w.name, i, len(f), f[0])
			}
			// The wall-clock figures are not end-to-end metrics; they
			// are reported to show why (their spread).
			for _, ms := range []map[string]metric{m, r.wallClock()} {
				for n, v := range ms {
					vals[n] = append(vals[n], v.Value)
				}
			}
			steal = append(steal, r.win.steal.Seconds())
			fmt.Printf("%s seed %d: steal %.2fs slowdown %.4f", w.name, i, r.win.steal.Seconds(), r.slowdown)
			for _, n := range sortedNames(m) {
				fmt.Printf(" %s %.4f", n, m[n].Value)
			}
			fmt.Printf("; %s\n", r.notes[0])
		}
		fmt.Printf("%s over %d runs (steal_s per run %v)\n", w.name, runs, roundAll(steal, 2))
		for _, n := range sortedNames(vals) {
			q1, med, q3 := quartiles(vals[n])
			fmt.Printf("  %-16s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.4f\n", n, med, q1, q3, (q3-q1)/med)
		}
	}
	return nil
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// layerSet holds the per-layer metrics of a traced run.
type layerSet map[string]metric

func (l layerSet) set(name string, v float64, unit string) { l[name] = metric{v, unit} }
