package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"gcs/internal/engine"
	"gcs/internal/search"
)

// jobSeed derives job k's seed from the workload seed (splitmix64), so the
// same workload seed always generates the same job pool.
func jobSeed(seed uint64, k int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// stamp is a reading of both clocks a job is timed on: the monotonic wall
// clock and the CPU time of the whole process (every thread, the garbage
// collector's included). CPU time is what the end-to-end metrics report: on
// a shared host it leaves out the time the process waits for a processor,
// which wall time picks up from whatever else the host is running.
type stamp struct{ wall, cpu int64 }

func now() stamp {
	return stamp{wall: nanotime(), cpu: cpuClock(clockProcessCPUTime)}
}

// jobTime is what a job took on each clock.
type jobTime struct{ wall, cpu time.Duration }

func (s stamp) elapsed() jobTime {
	e := now()
	return jobTime{wall: time.Duration(e.wall - s.wall), cpu: time.Duration(e.cpu - s.cpu)}
}

// On a shared 2-vCPU Xeon virtual machine the host's speed changed by 20%
// and more within minutes, in CPU time as much as in wall time, as other
// tenants came and went (NOTES.md). The program's own cost does not change
// with them, so the end-to-end times are calibrated against a fixed kernel
// of standard-library code that no change to the program can touch: every
// job is followed by one run of refKernel, and times are reported at the
// nominal host speed at which the kernel takes refNominal,
//
//	normalized = CPU time × refNominal / median kernel CPU time of the run.
const refNominal = time.Millisecond

// calibration collects reference-kernel CPU times (ms) over one run.
type calibration struct{ samples []float64 }

// sample runs the reference kernel k times and records each CPU time.
func (c *calibration) sample(k int) {
	for i := 0; i < k; i++ {
		c.samples = append(c.samples, float64(refCPU())/1e6)
	}
}

// scale converts measured CPU time to nominal-speed time.
func (c *calibration) scale() float64 {
	return float64(refNominal) / 1e6 / median(c.samples)
}

// refSink keeps the reference kernel's result observable.
var refSink int

// refKernel formats 3000 short string keys, inserts them into a map and
// sorts them: about a millisecond of allocation, hashing and comparison,
// the runtime-heavy mix the workloads spend much of their time in. Of the
// kernels tried it tracked the host best: over consecutive runs it
// narrowed the range of p50 values on search from 19% to 4% and on stream
// from 28% to 4%, where 256 SHA-256 passes over 4 KiB managed 11% and 19%.
func refKernel() {
	const n = 3000
	m := make(map[string]int, n)
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := strconv.Itoa(i*31) + ">" + strconv.Itoa(i%7)
		m[k] = i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	refSink += len(m) + len(keys[0])
}

// Linux's CPU-time clocks, which package syscall does not name. They read
// in nanoseconds; getrusage is no substitute for the thread clock, since
// RUSAGE_THREAD reports the running thread's time as of the last tick.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

func cpuClock(id uintptr) int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // both clocks exist on every Linux since 2.6.12
	}
	return ts.Nano()
}

// refCPU runs the reference kernel on a locked thread and returns that
// thread's CPU time, which leaves out the collector's background work on
// other threads.
func refCPU() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := cpuClock(clockThreadCPUTime)
	refKernel()
	return time.Duration(cpuClock(clockThreadCPUTime) - start)
}

// pairRun is one job of the traced run: the plain run's time and runtime
// cost, the traced rerun's time, and the counters both reproduced.
type pairRun struct {
	plain, traced time.Duration
	rt            runtimeDelta
	eng           engCount
	srch          searchCount
}

// engCount is a snapshot of engine.Metrics.
type engCount struct {
	steps, forks, swaps, drops, fixedRuns, ratRuns, fallbacks uint64
}

func readEngine(m *engine.Metrics) engCount {
	return engCount{
		steps:     m.Steps.Value(),
		forks:     m.Forks.Value(),
		swaps:     m.ScheduleSwaps.Value(),
		drops:     m.Dropped.Value(),
		fixedRuns: m.FixedLaneRuns.Value(),
		ratRuns:   m.RatLaneRuns.Value(),
		fallbacks: m.FixedFallbacks.Value(),
	}
}

func (a *engCount) add(b engCount) {
	a.steps += b.steps
	a.forks += b.forks
	a.swaps += b.swaps
	a.drops += b.drops
	a.fixedRuns += b.fixedRuns
	a.ratRuns += b.ratRuns
	a.fallbacks += b.fallbacks
}

// searchCount is a snapshot of search.Metrics.
type searchCount struct {
	generations, candidates, engineSteps, candidateSteps, savedSteps uint64
}

func readSearch(m *search.Metrics) searchCount {
	return searchCount{
		generations:    m.Generations.Value(),
		candidates:     m.Candidates.Value(),
		engineSteps:    m.EngineSteps.Value(),
		candidateSteps: m.CandidateSteps.Value(),
		savedSteps:     m.PrefixSavedSteps.Value(),
	}
}

func (a *searchCount) add(b searchCount) {
	a.generations += b.generations
	a.candidates += b.candidates
	a.engineSteps += b.engineSteps
	a.candidateSteps += b.candidateSteps
	a.savedSteps += b.savedSteps
}

// runtimeDelta is the Go runtime's cost over an interval.
type runtimeDelta struct {
	allocBytes, allocs, gcs uint64
	gcCPU, totalCPU         float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeDelta{
		allocBytes: s[0].Value.Uint64(),
		allocs:     s[1].Value.Uint64(),
		gcs:        s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes: a.allocBytes - b.allocBytes,
		allocs:     a.allocs - b.allocs,
		gcs:        a.gcs - b.gcs,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}

func (a *runtimeDelta) add(b runtimeDelta) {
	a.allocBytes += b.allocBytes
	a.allocs += b.allocs
	a.gcs += b.gcs
	a.gcCPU += b.gcCPU
	a.totalCPU += b.totalCPU
}

// resetPeakRSS restarts the kernel's peak-RSS record, so the next reading
// is the peak since the reset. Kernels without the reset keep the peak
// since the process started.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB returns the process's peak resident set (VmHWM), or 0 when
// /proc is unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
