package main

import "testing"

func TestCalibrator(t *testing.T) {
	c := newCalibrator()
	// Sattolo's shuffle makes one cycle through every word, so the walk
	// never settles into a short loop that stays in cache.
	at, n := c.next[0], 1
	for at != 0 {
		at, n = c.next[at], n+1
	}
	if n != calibWords {
		t.Fatalf("cycle through word 0 has %d words, want %d", n, calibWords)
	}
	if got := c.slowdown(); got != 1 {
		t.Errorf("slowdown without samples = %g, want 1", got)
	}
	if err := c.sample(); err != nil {
		t.Fatal(err)
	}
	if got := c.slowdown(); !(got > 0) || c.due() {
		t.Errorf("after one sample: slowdown %g, due %v", got, c.due())
	}
}

func TestSlowdownDividesCPUTimings(t *testing.T) {
	r := &result{setups: []float64{0.4}, rssMB: 10, slowdown: 2,
		win: &window{cpu: 40e6, recs: []record{{read: true, ran: true, cpu: 8e6}, {read: true, ran: true, cpu: 12e6}}}}
	m := r.endToEnd()
	for name, want := range map[string]float64{"setup_s": 0.2, "cpu_ms_per_op": 10, "read_cpu_p50_ms": 4, "peak_rss_mb": 10} {
		if got := m[name].Value; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}
