package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Request spans (Parent 0)
// stand for one client round trip; layer spans are the benchmark's own
// calls into a layer's public functions, parented to the request they
// reproduce.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Request spans only: the op, the serving-ladder rung that answered,
	// and the server's own elapsed_ms where the response carries one.
	Op        string  `json:"op,omitempty"`
	Source    string  `json:"source,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the length of a run; write saves them
// once the run is over, so tracing adds no I/O to what it times.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.t0) }

// add records a finished span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// open starts a span now; close ends it.
func (t *tracer) open(name string, parent int) int {
	now := t.since(time.Now())
	return t.add(span{Name: name, Parent: parent, Start: now, End: now})
}

func (t *tracer) close(id int) time.Duration {
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].dur()
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int, f func()) time.Duration {
	id := t.open(name, parent)
	f()
	return t.close(id)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover. Overlapping children (spans of
// concurrent work) are merged first, and children are clipped to the
// parent, so a self time is never negative. Spans are indexed by ID-1.
func selfTimes(spans []span) ([]time.Duration, error) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("trace: span %d %q ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		curS, curE := time.Duration(-1), time.Duration(-1)
		flush := func() {
			if curE > curS {
				covered += curE - curS
			}
		}
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curE {
				flush()
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		flush()
		out[i] = s.dur() - covered
	}
	return out, nil
}
