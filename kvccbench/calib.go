package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The host's load slows the code itself, not only the wall clock: on the
// shared guest the bounds were set on, kvccd needed from 141 to 216 ms of
// CPU time per enum-cold request, the same requests, in runs with under
// a second of steal, and the load driver's own CPU time for its fixed
// share of the work rose and fell with it (README.md, "Noise"). The
// calibrator measures that slowdown: it times a fixed reference kernel,
// which shares no code with kvccd, in CPU time while kvccd is idle
// between requests, and the end-to-end CPU timings are divided by the
// run's median slowdown.

// calibRef is the reference kernel's CPU time, the median of a run's
// samples, on the 2-vCPU guest the bounds were set on (Intel Xeon,
// Firecracker) with the host quiet. At that speed the slowdown is 1 and
// kvccd's CPU timings are reported as measured.
const calibRef = 7500 * time.Microsecond

// calibEvery is how often, in wall time, the window takes a sample: often
// enough for a hundred or so per run, rarely enough to cost about 3% of
// the window.
const calibEvery = 250 * time.Millisecond

// The kernel has two halves, because neither alone followed both
// workloads: a dependent-load walk through a random cycle over
// calibWords words (memory latency; 4 MiB, so a run's TLB reach does not
// depend on whether the table got huge pages), and a decode-sort-hash
// pass over a fixed JSON document of label sets, the work the driver
// does on every answer (allocation, parsing, sorting, SHA-256).
const (
	calibWords = 1 << 20
	calibSteps = 1 << 14
	calibSets  = 40  // label sets in the document
	calibLabs  = 100 // labels per set
	calibReps  = 3   // decode-sort-hash passes per kernel run
)

type calibrator struct {
	next    []uint32 // a single random cycle (Sattolo's algorithm)
	at      uint32
	doc     []byte
	last    time.Time
	samples []float64 // CPU time per kernel run, in ms
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	next := make([]uint32, calibWords)
	for i := range next {
		next[i] = uint32(i)
	}
	for i := len(next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	sets := make([][]int64, calibSets)
	for i := range sets {
		for j := 0; j < calibLabs; j++ {
			sets[i] = append(sets[i], rng.Int63n(1<<40))
		}
	}
	doc, err := json.Marshal(sets)
	if err != nil {
		panic(err) // [][]int64 always encodes
	}
	return &calibrator{next: next, doc: doc}
}

// kernel runs both halves and returns a hash of what they read, so no
// step can be skipped.
func (c *calibrator) kernel() (uint64, error) {
	h := uint64(0x9e3779b97f4a7c15)
	at := c.at
	for i := 0; i < calibSteps; i++ {
		at = c.next[at]
		h ^= uint64(at)
		h *= 0xff51afd7ed558ccd
		h ^= h >> 29
	}
	c.at = at
	for rep := 0; rep < calibReps; rep++ {
		var sets [][]int64
		if err := json.Unmarshal(c.doc, &sets); err != nil {
			return 0, err
		}
		d := sha256.New()
		for _, s := range sets {
			slices.Sort(s)
			if err := binary.Write(d, binary.LittleEndian, s); err != nil {
				return 0, err
			}
		}
		h ^= binary.LittleEndian.Uint64(d.Sum(nil))
	}
	return h, nil
}

// sample times one kernel run in this thread's CPU time.
func (c *calibrator) sample() error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, err := threadCPU()
	if err != nil {
		return err
	}
	if sink, err = c.kernel(); err != nil {
		return err
	}
	t1, err := threadCPU()
	if err != nil {
		return err
	}
	c.samples = append(c.samples, float64(t1-t0)/float64(time.Millisecond))
	c.last = time.Now()
	return nil
}

// sink keeps the kernel's result live.
var sink uint64

// due reports whether calibEvery has passed since the last sample.
func (c *calibrator) due() bool { return time.Since(c.last) >= calibEvery }

// slowdown is the run's median kernel time over calibRef; 1 when no
// sample was taken.
func (c *calibrator) slowdown() float64 {
	if c == nil || len(c.samples) == 0 {
		return 1
	}
	return median(c.samples) / (float64(calibRef) / float64(time.Millisecond))
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("calib: thread cpu clock: %w", e)
	}
	return time.Duration(ts.Nano()), nil
}
