package main

import (
	"time"

	"kvcc/internal/core"
	"kvcc/server"
)

// perRequest returns, for every request (root) span that has descendants
// named name, the total duration in ms of those descendants — or of their
// self times when self is set. The span's request is its root ancestor.
func perRequest(spans []span, name string, self bool) ([]float64, error) {
	selfs, err := selfTimes(spans)
	if err != nil {
		return nil, err
	}
	root := make([]int, len(spans))
	for i, s := range spans {
		root[i] = s.ID
		if s.Parent != 0 {
			root[i] = root[s.Parent-1] // parents are recorded before children
		}
	}
	sums := map[int]time.Duration{}
	var order []int
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		d := s.dur()
		if self {
			d = selfs[i]
		}
		if _, ok := sums[root[i]]; !ok {
			order = append(order, root[i])
		}
		sums[root[i]] += d
	}
	out := make([]float64, len(order))
	for i, r := range order {
		out[i] = float64(sums[r]) / float64(time.Millisecond)
	}
	return out, nil
}

// medianPerRequest is the median over requests of perRequest.
func medianPerRequest(spans []span, name string, self bool) (float64, error) {
	xs, err := perRequest(spans, name, self)
	if err != nil {
		return 0, err
	}
	if len(xs) == 0 {
		return 0, nil
	}
	return median(xs), nil
}

// frac is a/(a+b), or 0 when both are 0.
func frac(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// coreLayers reports the enumeration engine's work counters per request,
// and the sweep and skip ratios of the paper's Table 2.
func coreLayers(l layerSet, st *core.Stats, requests int) {
	per := func(n int64) float64 { return float64(n) / float64(max(requests, 1)) }
	l.set("core.global_cut_calls", per(st.GlobalCutCalls), "count")
	l.set("core.partitions", per(st.Partitions), "count")
	l.set("core.loc_cut_tests", per(st.LocCutTests), "count")
	l.set("core.flow_runs", per(st.FlowRuns), "count")
	l.set("core.tested", per(st.TestedNonPrune), "count")
	l.set("core.swept_ns1", per(st.SweptNS1), "count")
	l.set("core.swept_ns2", per(st.SweptNS2), "count")
	l.set("core.swept_gs", per(st.SweptGS), "count")
	l.set("core.sweep_frac", frac(st.SweptNS1+st.SweptNS2+st.SweptGS, st.TestedNonPrune), "ratio")
	l.set("core.phase2_skip_frac", frac(st.Phase2Skipped, st.Phase2Pairs), "ratio")
	l.set("flow.local_attempts", per(st.LocalCutAttempts), "count")
	l.set("flow.local_fallback_frac", frac(st.LocalCutFallbacks, st.LocalCutAttempts-st.LocalCutFallbacks), "ratio")
}

// serverLayers reports the serving layer's share of the window: round
// trip minus the server's own elapsed_ms, response size, and the
// admission and ladder counters as /api/v1/stats deltas.
func serverLayers(l layerSet, w *window, before, after *server.StatsResponse) {
	var overhead, kb []float64
	for _, r := range w.recs {
		if !r.ran || r.err != nil {
			continue
		}
		kb = append(kb, float64(r.bytes)/1024)
		if r.elapsedMS > 0 {
			overhead = append(overhead, r.latencyMS()-r.elapsedMS)
		}
	}
	if len(overhead) == 0 {
		overhead = []float64{0}
	}
	l.set("server.overhead_ms", median(overhead), "ms")
	l.set("server.resp_kb", mean(kb), "KiB")
	var wait float64
	if after.Admission != nil {
		wait = after.Admission.QueueWaitP95MS
	}
	l.set("server.admission_wait_p95_ms", wait, "ms")
	ops := float64(max(len(w.recs), 1))
	l.set("server.index_served_frac", float64(after.Enumerations.IndexServed-before.Enumerations.IndexServed)/ops, "ratio")
	l.set("server.cache_hit_frac", float64(after.Cache.Hits-before.Cache.Hits)/ops, "ratio")
	l.set("host.steal_s", w.steal.Seconds(), "s")
	l.set("driver.cpu_s", w.driverCPU.Seconds(), "s")
}
