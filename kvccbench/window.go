package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"kvcc/server"
)

// op is one request of a workload's fixed sequence. do sends it and
// returns the serving-ladder rung that answered, the server's elapsed_ms
// when the response carries one, and a check of the answer that runs
// after the op is timed. The op fails on a request error (a non-2xx
// status, including a shed) or when check fails: a degraded answer, the
// wrong rung, persisted:false, or a digest that does not match.
type op struct {
	kind  string
	read  bool // counts toward the read_* metrics
	write bool
	do    func(ctx context.Context, c countingClient) (source string, elapsedMS float64, check func() error, err error)
}

// exec runs an op untimed, for set-up and preparation requests.
func (o op) exec(c countingClient) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, _, check, err := o.do(ctx, c)
	if err != nil {
		return err
	}
	return check()
}

// record is the outcome of one op.
type record struct {
	kind        string
	read, write bool
	ran         bool
	start, end  time.Duration // since the window opened
	cpu         time.Duration // kvccd CPU time over the op's round trip
	source      string
	elapsedMS   float64
	bytes       int64
	err         error
	span        int // request span id in a traced run
}

func (r record) latencyMS() float64 {
	if r.err != nil {
		return math.Inf(1) // a failed op misses every latency limit
	}
	return float64(r.end-r.start) / float64(time.Millisecond)
}

// cpuMS is kvccd's CPU time for the op; a failed op counts as +Inf, like
// its latency.
func (r record) cpuMS() float64 {
	if r.err != nil {
		return math.Inf(1)
	}
	return float64(r.cpu) / float64(time.Millisecond)
}

// window is the timed part of a run.
type window struct {
	recs      []record
	wall      time.Duration
	cpu       time.Duration // kvccd user+sys over the window
	steal     time.Duration
	driverCPU time.Duration
}

// windowLimit bounds a window however slow the program under test gets,
// so a run always ends within the benchmark's time limit. Ops that could
// not start before it count as failed.
const windowLimit = 110 * time.Second

// runWindow drives one closed-loop client through seq against the daemon
// at base, and reads kvccd's CPU time (pid) around every op and the
// host's steal time around the window. One client, so that kvccd is idle
// between ops and all of its CPU time between two reads belongs to the op
// in flight. With a tracer, each op becomes a request span. With a
// calibrator, it takes a sample between ops whenever one is due.
func runWindow(base string, pid int, seq []op, tr *tracer, cal *calibrator) (*window, error) {
	c := newClient(base)
	cpu0, err := processCPU(pid)
	if err != nil {
		return nil, err
	}
	steal0, err := hostSteal()
	if err != nil {
		return nil, err
	}
	d0 := driverCPU()
	t0 := time.Now()
	deadline := t0.Add(windowLimit)
	recs := make([]record, len(seq))
	for j, o := range seq {
		r := record{kind: o.kind, read: o.read, write: o.write}
		if time.Now().After(deadline) {
			r.err = errors.New("not started: window limit reached")
			recs[j] = r
			continue
		}
		if cal != nil && cal.due() {
			if err := cal.sample(); err != nil {
				return nil, err
			}
		}
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		b0 := c.bytes.Load()
		c0, err := processCPUClock(pid)
		if err != nil {
			cancel()
			return nil, err
		}
		start := time.Now()
		var check func() error
		r.source, r.elapsedMS, check, r.err = o.do(ctx, c)
		end := time.Now()
		c1, err := processCPUClock(pid)
		cancel()
		if err != nil {
			return nil, err
		}
		if r.err == nil {
			r.err = check()
		}
		r.ran = true
		r.start, r.end, r.cpu = start.Sub(t0), end.Sub(t0), c1-c0
		r.bytes = c.bytes.Load() - b0
		if tr != nil {
			r.span = tr.add(span{Name: "request", Op: o.kind, Source: r.source, ElapsedMS: r.elapsedMS,
				Start: tr.since(start), End: tr.since(end)})
		}
		recs[j] = r
	}
	w := &window{recs: recs, wall: time.Since(t0), driverCPU: driverCPU() - d0}
	cpu1, err := processCPU(pid)
	if err != nil {
		return nil, err
	}
	steal1, err := hostSteal()
	if err != nil {
		return nil, err
	}
	w.cpu, w.steal = cpu1-cpu0, steal1-steal0
	return w, nil
}

// source names the serving-ladder rung that answered a read.
func source(cached, deduped, index, degraded bool) string {
	switch {
	case degraded:
		return "degraded"
	case index:
		return "index"
	case cached:
		return "cached"
	case deduped:
		return "deduped"
	}
	return "computed"
}

// wantSource fails an op answered from another rung than the one the
// workload is built to exercise.
func wantSource(key, got, want string) error {
	if got != want {
		return fmt.Errorf("%s answered from %s, want %s", key, got, want)
	}
	return nil
}

func fetchStats(base string) (*server.StatsResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return newClient(base).Stats(ctx)
}
