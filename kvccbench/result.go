package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// result is everything one run measured.
type result struct {
	// setups and setupWalls are kvccd's CPU time and the wall time of
	// each set-up repetition, in seconds.
	setups, setupWalls []float64
	win                *window
	rssMB              float64
	// slowdown is the host's CPU slowdown over the run (calib.go); the
	// end-to-end CPU timings are divided by it.
	slowdown float64
	// checks are the correctness checks made outside the window (final
	// state, recovery); each one counts as an attempted op.
	checks []error
	layers layerSet // per-layer metrics of a traced run
	notes  []string
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) attempted() int { return len(r.win.recs) + len(r.checks) }

func (r *result) failures() []error {
	var errs []error
	for _, rec := range r.win.recs {
		if rec.err != nil {
			errs = append(errs, rec.err)
		}
	}
	for _, err := range r.checks {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// samples returns value(rec) for the ops keep selects.
func (r *result) samples(keep func(record) bool, value func(record) float64) []float64 {
	var xs []float64
	for _, rec := range r.win.recs {
		if keep(rec) {
			xs = append(xs, value(rec))
		}
	}
	return xs
}

func isRead(rec record) bool  { return rec.read }
func isWrite(rec record) bool { return rec.write }

func (r *result) completed() int {
	n := 0
	for _, rec := range r.win.recs {
		if rec.ran {
			n++
		}
	}
	return n
}

// endToEnd computes the metrics a user of kvccd sees and the bounds are
// set on. Their timings are kvccd's CPU time, which the host's load moves
// far less than wall time, divided by the host's CPU slowdown over the
// run (see README.md, "Noise"): setup_s, cpu_ms_per_op over the window,
// and read_cpu_* per read, the tail at the highest percentile with ten
// samples beyond it.
func (r *result) endToEnd() map[string]metric {
	slow := r.slowdown
	if !(slow > 0) {
		slow = 1
	}
	reads := r.samples(isRead, record.cpuMS)
	tail := tailPercentile(len(reads))
	cpuPerOp := float64(r.win.cpu) / float64(time.Millisecond) / float64(max(r.completed(), 1))
	m := map[string]metric{
		"setup_s":          {median(r.setups) / slow, "s"},
		"cpu_ms_per_op":    {cpuPerOp / slow, "ms"},
		"read_cpu_p50_ms":  {percentile(reads, 50) / slow, "ms"},
		"read_cpu_tail_ms": {percentile(reads, tail) / slow, "ms"},
		"peak_rss_mb":      {r.rssMB, "MiB"},
	}
	r.notef("read_cpu_tail_ms is p%g over %d reads; %d ops in %.3f s", tail, len(reads), r.completed(), r.win.wall.Seconds())
	r.notef("host CPU slowdown %.4f; as measured: setup_s %.4f, cpu_ms_per_op %.4f, read_cpu_p50_ms %.4f, read_cpu_tail_ms %.4f",
		slow, median(r.setups), cpuPerOp, percentile(reads, 50), percentile(reads, tail))
	r.notef("host.steal_s %.3f, driver.cpu_s %.3f, setups_s %v",
		r.win.steal.Seconds(), r.win.driverCPU.Seconds(), roundAll(r.setups, 4))
	return m
}

// wallClock computes the client-side figures: throughput and round-trip
// latencies. They are what a client waits for, but on a shared host they
// move with the host's steal from run to run by more than a bound can
// allow, so measured runs print them as notes and the traced run reports
// them as traced.* per-layer metrics.
func (r *result) wallClock() map[string]metric {
	reads := r.samples(isRead, record.latencyMS)
	tail := tailPercentile(len(reads))
	m := map[string]metric{
		"setup_wall_s": {median(r.setupWalls), "s"},
		"ops_per_s":    {float64(r.completed()) / r.win.wall.Seconds(), "1/s"},
		"read_p50_ms":  {percentile(reads, 50), "ms"},
		"read_tail_ms": {percentile(reads, tail), "ms"},
	}
	if writes := r.samples(isWrite, record.latencyMS); len(writes) > 0 {
		wt := tailPercentile(len(writes))
		m["write_p50_ms"] = metric{percentile(writes, 50), "ms"}
		m["write_tail_ms"] = metric{percentile(writes, wt), "ms"}
	}
	return m
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// writeReport prints the notes, the first few failures, and the JSON
// result line, which must come last.
func writeReport(w io.Writer, workload string, r *result, metrics map[string]metric) error {
	fails := r.failures()
	for _, n := range r.notes {
		fmt.Fprintf(w, "%s: %s\n", workload, n)
	}
	for i, err := range fails {
		if i == 5 {
			fmt.Fprintf(w, "%s: ... %d more failures\n", workload, len(fails)-i)
			break
		}
		fmt.Fprintf(w, "%s: FAIL %v\n", workload, err)
	}
	rep := report{Correct: len(fails) == 0, Attempted: r.attempted(), Failed: len(fails), Metrics: metrics}
	for _, n := range sortedNames(metrics) {
		m := metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only failed ops can make a latency infinite; JSON cannot
			// carry it, and the run is already marked incorrect.
			m.Value = math.MaxFloat64
			metrics[n] = m
			rep.Correct = false
		}
		fmt.Fprintf(w, "%s: %-32s %14.4f %s\n", workload, n, m.Value, m.Unit)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
