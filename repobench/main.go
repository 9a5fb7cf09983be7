// Command repobench is the repository's end-to-end benchmark: three
// closed-loop workloads (stream, search, matrix), one job in flight at a
// time, every job's output checked. With --trace 1 it instead pairs each
// job with a traced rerun that charges the job's time to the modules it
// crossed, and checks that the traced rerun reproduces the job's outputs
// and engine/search counters exactly.
//
// Run it from the repository root:
//
//	bash repobench/run.sh --workload stream --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"
)

// instance is one workload set up from a seed: a pool of generated jobs
// with their expected outputs, run round-robin by the closed loop.
type instance interface {
	// pool returns the number of distinct jobs.
	pool() int
	// run executes job i untraced and checks its output. It returns the
	// time of the job alone; checks run after the clocks stop.
	run(i int) (jobTime, error)
	// traced executes job i twice, plain (instrumented with counters only)
	// and under t, and checks that both reproduce the expected outputs and
	// the same counters.
	traced(i int, t *tracer) (pairRun, error)
	// clockScene returns the schedules and fixed-lane scale the clock
	// replay uses for this job's samples.
	clockScene(i int) (scene, error)
}

// workload builds an instance from the workload seed; tiny selects the
// small sizes the self-test runs. BENCHMARK.json records why each workload
// is in the benchmark.
type workload struct {
	name  string
	setup func(seed uint64, tiny bool) (instance, error)
}

var workloads = []workload{
	{name: "stream", setup: setupStream},
	{name: "search", setup: setupSearch},
	{name: "matrix", setup: setupMatrix},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want stream | search | matrix)", name)
}

// setupRuns is how many times set-up is repeated; setup_s is their median.
const setupRuns = 3

type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      int
	cpuprofile string
	tiny       bool
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload: stream | search | matrix")
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measured run length")
	flag.IntVar(&opt.trace, "trace", 0, "1: traced per-layer run instead of the end-to-end run")
	flag.StringVar(&opt.cpuprofile, "cpuprofile", "", "write a CPU profile of the untraced timed loop here")
	flag.Parse()
	if err := run(opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		os.Exit(1)
	}
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// info holds figures printed for the reader but not part of the
	// result line: raw CPU and wall-clock times, the calibration, counts.
	info map[string]metric
}

func run(opt options, out io.Writer) error {
	w, err := findWorkload(opt.workload)
	if err != nil {
		return err
	}
	if opt.trace != 0 && opt.trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", opt.trace)
	}
	if opt.seconds <= 0 || math.IsNaN(opt.seconds) {
		return fmt.Errorf("--seconds %v: want a positive length", opt.seconds)
	}
	var res result
	if opt.trace == 1 {
		res, err = traceRun(w, opt)
	} else {
		res, err = timedRun(w, opt)
	}
	if err != nil {
		return err
	}
	return emit(out, opt, res)
}

// setupRefs is how many reference-kernel runs follow each set-up.
const setupRefs = 20

// rssJobs is how many jobs peak_rss_mb is the median of: the first two
// seed-shuffled passes over the matrix cells, so every cell counts twice
// whatever the seed.
const rssJobs = 10

// timedRun is the end-to-end measurement: set-up (repeated, median
// reported), then the closed loop for opt.seconds.
func timedRun(w workload, opt options) (result, error) {
	var cal calibration
	var inst instance
	setups := make([]float64, 0, setupRuns)
	for k := 0; k < setupRuns; k++ {
		start := now()
		in, err := w.setup(opt.seed, opt.tiny)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, start.elapsed().cpu.Seconds())
		inst = in
		cal.sample(setupRefs)
	}
	if opt.cpuprofile != "" {
		f, err := os.Create(opt.cpuprofile)
		if err != nil {
			return result{}, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return result{}, err
		}
		defer pprof.StopCPUProfile()
	}
	res, err := measure(inst, opt.seconds, &cal)
	if err != nil {
		return res, err
	}
	res.Metrics["setup_s"] = metric{median(setups) * cal.scale(), "s"}
	res.info["setup_cpu_s"] = metric{median(setups), "s"}
	return res, nil
}

// measure runs inst's jobs round-robin, one at a time, until seconds have
// passed and every job has run at least once, sampling the reference
// kernel into cal after each job.
func measure(inst instance, seconds float64, cal *calibration) (result, error) {
	var cpu, wall []float64 // ms, correct jobs only
	var cpuBusy, wallBusy time.Duration
	attempted, failed := 0, 0
	deadline := nanotime() + int64(seconds*1e9)
	for i := 0; nanotime() < deadline || attempted < inst.pool(); i++ {
		d, err := inst.run(i % inst.pool())
		attempted++
		cal.sample(1)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "job %d: %v\n", i, err)
			continue
		}
		cpuBusy += d.cpu
		wallBusy += d.wall
		cpu = append(cpu, float64(d.cpu)/1e6)
		wall = append(wall, float64(d.wall)/1e6)
	}
	// Memory: a few more jobs, each from a collected heap with the kernel's
	// peak-RSS record restarted, so the peak is the job's own rather than
	// an accident of where the collector's cycles fell in the loop.
	var rss []float64
	for i := 0; i < min(inst.pool(), rssJobs); i++ {
		debug.FreeOSMemory()
		resetPeakRSS()
		_, err := inst.run(i)
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "memory job %d: %v\n", i, err)
			continue
		}
		rss = append(rss, peakRSSMiB())
	}
	res := result{Attempted: attempted, Failed: failed, Correct: failed == 0,
		Metrics: map[string]metric{}, info: map[string]metric{}}
	if len(cpu) == 0 || len(rss) == 0 {
		return res, errors.New("no job completed correctly")
	}
	sort.Float64s(cpu)
	sort.Float64s(wall)
	ok := float64(len(cpu))
	k := cal.scale()
	res.Metrics["jobs_per_s"] = metric{ok / (cpuBusy.Seconds() * k), "1/s"}
	res.Metrics["job_p50_ms"] = metric{percentile(cpu, 0.5) * k, "ms"}
	res.Metrics["job_p90_ms"] = metric{percentile(cpu, 0.9) * k, "ms"}
	res.Metrics["peak_rss_mb"] = metric{median(rss), "MiB"}
	res.info["ref_kernel_cpu_ms"] = metric{median(cal.samples), "ms"}
	res.info["job_cpu_p50_ms"] = metric{percentile(cpu, 0.5), "ms"}
	res.info["job_cpu_p90_ms"] = metric{percentile(cpu, 0.9), "ms"}
	res.info["job_wall_p50_ms"] = metric{percentile(wall, 0.5), "ms"}
	res.info["job_wall_p90_ms"] = metric{percentile(wall, 0.9), "ms"}
	res.info["jobs_per_wall_s"] = metric{ok / wallBusy.Seconds(), "1/s"}
	res.info["jobs"] = metric{ok, "count"}
	res.info["jobs_beyond_p90"] = metric{ok - math.Ceil(0.9*ok), "count"}
	return res, nil
}

// emit prints every metric on its own line, then the result line.
func emit(out io.Writer, opt options, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "workload %s seed %d trace %d\n", opt.workload, opt.seed, opt.trace)
	for _, k := range names {
		fmt.Fprintf(out, "%-32s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	info := make([]string, 0, len(res.info))
	for k := range res.info {
		info = append(info, k)
	}
	sort.Strings(info)
	for _, k := range info {
		fmt.Fprintf(out, "%-32s %16.6g %s (not gated)\n", k, res.info[k].Value, res.info[k].Unit)
	}
	fmt.Fprintf(out, "%-32s %16.6g %s (%d of %d jobs)\n", "failed_frac", float64(res.Failed)/float64(res.Attempted), "1", res.Failed, res.Attempted)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// percentile returns the nearest-rank p-quantile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
