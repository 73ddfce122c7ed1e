package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// clkTck is USER_HZ, the unit of the CPU times in /proc/<pid>/stat and
// /proc/stat. The kernel fixes it at 100 on every architecture Go targets.
const clkTck = 100

func ticks(n uint64) time.Duration { return time.Duration(n) * time.Second / clkTck }

// parsePidStat returns utime+stime from the text of /proc/<pid>/stat. The
// command name (field 2) is parenthesised and may hold spaces or ')', so
// fields are counted from the last ')'.
func parsePidStat(s string) (time.Duration, error) {
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("procfs: malformed pid stat %q", s)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: pid stat has %d fields after comm, want >= 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stime: %w", err)
	}
	return ticks(ut + st), nil
}

// parseStatSteal returns the host steal time from the text of /proc/stat:
// the eighth value of the aggregate "cpu" line.
func parseStatSteal(s string) (time.Duration, error) {
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return 0, fmt.Errorf("procfs: cpu line has %d fields, want >= 9", len(f))
		}
		n, err := strconv.ParseUint(f[8], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: steal: %w", err)
		}
		return ticks(n), nil
	}
	return 0, fmt.Errorf("procfs: no aggregate cpu line")
}

// parseVmHWM returns the peak resident set size, in MiB, from the text of
// /proc/<pid>/status.
func parseVmHWM(s string) (float64, error) {
	for _, line := range strings.Split(s, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("procfs: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("procfs: no VmHWM line")
}

func readProc(path string) (string, error) {
	b, err := os.ReadFile(path)
	return string(b), err
}

// processCPU is the user+system CPU time a process has used so far.
func processCPU(pid int) (time.Duration, error) {
	s, err := readProc(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parsePidStat(s)
}

// processCPUClock is the CPU time a process has used so far, to the
// nanosecond: clock_gettime on the process's CPU-time clock, the clock
// clock_getcpuclockid(3) names (CPUCLOCK_SCHED of the whole thread group).
// /proc/<pid>/stat counts in 10 ms ticks, too coarse for one request.
// With paravirtual time accounting the guest kernel keeps host steal out
// of this clock, which is why the benchmark's end-to-end timings are
// taken from it.
func processCPUClock(pid int) (time.Duration, error) {
	clock := uintptr(^pid<<3 | 2)
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("procfs: cpu clock of %d: %w", pid, e)
	}
	return time.Duration(ts.Nano()), nil
}

// processPeakRSS is a process's VmHWM in MiB.
func processPeakRSS(pid int) (float64, error) {
	s, err := readProc(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(s)
}

// hostSteal is the machine-wide steal time so far: CPU time the hypervisor
// gave to other guests while this one had work to run.
func hostSteal() (time.Duration, error) {
	s, err := readProc("/proc/stat")
	if err != nil {
		return 0, err
	}
	return parseStatSteal(s)
}

// driverCPU is the user+system CPU time this driver process has used.
func driverCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
