package main

import (
	"os"
	"testing"
	"time"
)

func TestParsePidStat(t *testing.T) {
	// The command name may hold spaces and ')'; utime=250 and stime=50
	// ticks are fields 14 and 15.
	line := "4242 (kvcc d) x) S 1 4242 4242 0 -1 4194560 900 0 3 0 250 50 0 0 20 0 9 0 77 123456 789 18446744073709551615\n"
	got, err := parsePidStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Errorf("parsePidStat = %v, want %v", got, want)
	}
	if _, err := parsePidStat("4242 kvccd S 1"); err == nil {
		t.Error("stat line without a parenthesised comm parsed")
	}
	if _, err := parsePidStat("4242 (kvccd) S 1 2"); err == nil {
		t.Error("truncated stat line parsed")
	}
}

func TestParseStatSteal(t *testing.T) {
	text := "cpu  100 0 50 9000 10 0 5 321 0 0\ncpu0 50 0 25 4500 5 0 2 160 0 0\nintr 1\n"
	got, err := parseStatSteal(text)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3210 * time.Millisecond; got != want {
		t.Errorf("steal = %v, want %v (aggregate line only)", got, want)
	}
	if _, err := parseStatSteal("cpu0 1 2 3\n"); err == nil {
		t.Error("text without the aggregate cpu line parsed")
	}
}

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM("Name:\tkvccd\nVmPeak:\t  999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n")
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Errorf("VmHWM = %g MiB, want 50", got)
	}
	if _, err := parseVmHWM("VmRSS:\t 1 kB\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
}

// The parsers must accept what this kernel actually writes.
func TestProcOfSelf(t *testing.T) {
	// Burn some CPU, then the ns clock and the tick count must agree to
	// within a few ticks.
	for t0 := time.Now(); time.Since(t0) < 100*time.Millisecond; {
	}
	ticks, err := processCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	ns, err := processCPUClock(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if ns < 90*time.Millisecond || (ns-ticks).Abs() > 50*time.Millisecond {
		t.Errorf("cpu clock %v, /proc stat %v", ns, ticks)
	}
	if rss, err := processPeakRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("peak RSS %g, %v", rss, err)
	}
	if _, err := hostSteal(); err != nil {
		t.Error(err)
	}
}
