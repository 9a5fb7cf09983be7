package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"gcs/internal/clock"
	"gcs/internal/fixed"
	"gcs/internal/rat"
)

// maxSamples caps the (node, reading) pairs the first traced job collects
// for the clock replay.
const maxSamples = 4096

// perLayer lists the traced run's metrics with their units, in the order
// BENCHMARK.json names them. Every workload reports every metric; one that
// a workload never exercises reads 0.
var perLayer = []struct{ name, unit string }{
	{"engine.events_per_job", "count"},
	{"engine.forks_per_job", "count"},
	{"engine.swaps_per_job", "count"},
	{"engine.drops_per_job", "count"},
	{"engine.fixed_lane_frac", "frac"},
	{"engine.fallbacks_per_event", "count"},
	{"engine.self_ns_per_event", "ns"},
	{"engine.self_share", "frac"},
	{"core.declares_per_job", "count"},
	{"core.declare_ns", "ns"},
	{"core.validity_ns", "ns"},
	{"core.self_share", "frac"},
	{"algorithms.callbacks_per_job", "count"},
	{"algorithms.callback_self_ns", "ns"},
	{"algorithms.self_share", "frac"},
	{"engine.adversary_ns", "ns"},
	{"scenario.fault_ns", "ns"},
	{"lowerbound.adaptive_ns", "ns"},
	{"clock.hw_ns", "ns"},
	{"clock.realat_ns", "ns"},
	{"clock.hw_ticks_ns", "ns"},
	{"clock.realat_ticks_ns", "ns"},
	{"search.absorb_ms_per_job", "ms"},
	{"search.absorb_share", "frac"},
	{"search.evaluate_ms_per_job", "ms"},
	{"search.evaluate_share", "frac"},
	{"search.steps_per_candidate", "count"},
	{"search.saved_frac", "frac"},
	{"search.candidates_per_job", "count"},
	{"search.generations_per_job", "count"},
	{"scenario.search_share", "frac"},
	{"scenario.adaptive_share", "frac"},
	{"runtime.alloc_bytes_per_job", "B"},
	{"runtime.allocs_per_job", "count"},
	{"runtime.gc_per_job", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// traceRun pairs every job with a traced rerun for opt.seconds and reports
// the per-layer breakdown.
func traceRun(w workload, opt options) (result, error) {
	inst, err := w.setup(opt.seed, opt.tiny)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	var total tracer
	var eng engCount
	var srch searchCount
	var rt runtimeDelta
	var plain, traced []float64
	var samples []hwSample
	attempted, failed := 0, 0
	deadline := nanotime() + int64(opt.seconds*1e9)
	for i := 0; nanotime() < deadline || attempted < inst.pool(); i++ {
		t := &tracer{}
		if samples == nil {
			t.samples, t.sampleAt = make([]hwSample, 0, maxSamples), maxSamples
		}
		pr, err := inst.traced(i%inst.pool(), t)
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "job %d: %v\n", i, err)
			continue
		}
		if samples == nil {
			samples = t.samples
		}
		total.add(t)
		eng.add(pr.eng)
		srch.add(pr.srch)
		rt.add(pr.rt)
		plain = append(plain, float64(pr.plain))
		traced = append(traced, float64(pr.traced))
	}
	res := result{Attempted: attempted, Failed: failed, Correct: failed == 0, Metrics: map[string]metric{}}
	jobs := float64(len(traced))
	if jobs == 0 {
		return res, fmt.Errorf("no traced job completed correctly")
	}
	sc, err := inst.clockScene(0)
	if err != nil {
		return res, err
	}
	clk, err := replayClock(sc, samples)
	if err != nil {
		return res, err
	}

	jobNs := float64(total.incl[lBench])
	v := map[string]float64{}
	per := func(x uint64) float64 { return float64(x) / jobs }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v["engine.events_per_job"] = per(eng.steps)
	v["engine.forks_per_job"] = per(eng.forks)
	v["engine.swaps_per_job"] = per(eng.swaps)
	v["engine.drops_per_job"] = per(eng.drops)
	v["engine.fixed_lane_frac"] = div(float64(eng.fixedRuns), float64(eng.fixedRuns+eng.ratRuns))
	v["engine.fallbacks_per_event"] = div(float64(eng.fallbacks), float64(eng.steps))
	engSelf := float64(total.self[lEngine] + total.self[lSearchEvaluate])
	v["engine.self_ns_per_event"] = div(engSelf, float64(eng.steps))
	v["engine.self_share"] = engSelf / jobNs

	v["core.declares_per_job"] = float64(total.declares[lCoreSkew]) / jobs
	v["core.declare_ns"] = div(float64(total.declareNs[lCoreSkew]), float64(total.declares[lCoreSkew]))
	v["core.validity_ns"] = div(float64(total.declareNs[lCoreValidity]), float64(total.declares[lCoreValidity]))
	v["core.self_share"] = float64(total.self[lCoreSkew]+total.self[lCoreValidity]) / jobNs

	v["algorithms.callbacks_per_job"] = float64(total.calls[lAlgorithms]) / jobs
	v["algorithms.callback_self_ns"] = div(float64(total.self[lAlgorithms]), float64(total.calls[lAlgorithms]))
	v["algorithms.self_share"] = float64(total.self[lAlgorithms]) / jobNs

	perCall := func(l layer) float64 { return div(float64(total.self[l]), float64(total.calls[l])) }
	v["engine.adversary_ns"] = perCall(lAdversary)
	v["scenario.fault_ns"] = perCall(lFault)
	v["lowerbound.adaptive_ns"] = perCall(lAdaptive)

	v["clock.hw_ns"] = clk.hw
	v["clock.realat_ns"] = clk.realAt
	v["clock.hw_ticks_ns"] = clk.hwTicks
	v["clock.realat_ticks_ns"] = clk.realAtTicks

	v["search.absorb_ms_per_job"] = float64(total.incl[lSearchAbsorb]) / 1e6 / jobs
	v["search.absorb_share"] = float64(total.incl[lSearchAbsorb]) / jobNs
	v["search.evaluate_ms_per_job"] = float64(total.incl[lSearchEvaluate]) / 1e6 / jobs
	v["search.evaluate_share"] = float64(total.incl[lSearchEvaluate]) / jobNs
	v["search.steps_per_candidate"] = div(float64(srch.engineSteps), float64(srch.candidates))
	v["search.saved_frac"] = div(float64(srch.savedSteps), float64(srch.candidateSteps))
	v["search.candidates_per_job"] = per(srch.candidates)
	v["search.generations_per_job"] = per(srch.generations)

	v["scenario.search_share"] = float64(total.incl[lScenarioSearch]) / jobNs
	v["scenario.adaptive_share"] = float64(total.incl[lScenarioAdapt]) / jobNs

	v["runtime.alloc_bytes_per_job"] = per(rt.allocBytes)
	v["runtime.allocs_per_job"] = per(rt.allocs)
	v["runtime.gc_per_job"] = per(rt.gcs)
	v["runtime.gc_cpu_frac"] = div(rt.gcCPU, rt.totalCPU)

	v["trace.overhead_frac"] = median(traced)/median(plain) - 1

	for _, m := range perLayer {
		res.Metrics[m.name] = metric{v[m.name], m.unit}
	}
	printShares(total, jobNs)
	return res, nil
}

// printShares writes every layer's self-time share to standard error, so a
// reader can see the whole job accounted for.
func printShares(t tracer, jobNs float64) {
	order := make([]layer, nLayers)
	for l := range order {
		order[l] = layer(l)
	}
	sort.Slice(order, func(a, b int) bool { return t.self[order[a]] > t.self[order[b]] })
	for _, l := range order {
		if t.calls[l] > 0 {
			fmt.Fprintf(os.Stderr, "self %-20s %6.2f%%  %d spans\n", l, 100*float64(t.self[l])/jobNs, t.calls[l])
		}
	}
}

// scene is what the clock replay evaluates samples against: the job's
// hardware schedules and the engine's detected fixed-lane scale (0 when
// the run stays on the rat lane).
type scene struct {
	scheds []*clock.Schedule
	scale  int64
}

type clockCost struct{ hw, realAt, hwTicks, realAtTicks float64 }

// clockSink keeps replayed values observable so no call is optimized away.
var clockSink int64

// replayClock replays the sampled (node, reading) pairs through the clock
// layer on both lanes and returns nanoseconds per call: Schedule.HW and
// Schedule.RealAt on exact rationals, FixedSchedule.HWTicks and
// RealAtTicks on the tick grid. Each replayed value is checked against the
// sample, so the timings cover correct evaluations only.
func replayClock(sc scene, samples []hwSample) (clockCost, error) {
	type point struct {
		node     int
		real, hw rat.Rat
		tt, ht   int64
		ticks    bool
	}
	var fs []*clock.FixedSchedule
	if sc.scale > 0 {
		for _, s := range sc.scheds {
			f, ok := s.CompileFixed(sc.scale)
			if !ok {
				return clockCost{}, fmt.Errorf("clock replay: schedule does not compile at scale %d", sc.scale)
			}
			fs = append(fs, f)
		}
	}
	pts := make([]point, 0, len(samples))
	for _, s := range samples {
		real, err := sc.scheds[s.node].RealAt(s.hw)
		if err != nil {
			return clockCost{}, fmt.Errorf("clock replay: %w", err)
		}
		p := point{node: s.node, real: real, hw: s.hw}
		if fs != nil {
			tt, ok1 := fixed.FromRat(real, sc.scale)
			ht, ok2 := fixed.FromRat(s.hw, sc.scale)
			p.tt, p.ht, p.ticks = tt, ht, ok1 && ok2
		}
		pts = append(pts, p)
	}
	if len(pts) == 0 {
		return clockCost{}, nil
	}
	for _, p := range pts {
		if got := sc.scheds[p.node].HW(p.real); !got.Equal(p.hw) {
			return clockCost{}, fmt.Errorf("clock replay: HW(%s) = %s, want %s", p.real, got, p.hw)
		}
		if p.ticks {
			if h, ok := fs[p.node].HWTicks(p.tt); !ok || h != p.ht {
				return clockCost{}, fmt.Errorf("clock replay: HWTicks(%d) = %d, %v; want %d", p.tt, h, ok, p.ht)
			}
			if r, ok := fs[p.node].RealAtTicks(p.ht); !ok || r != p.tt {
				return clockCost{}, fmt.Errorf("clock replay: RealAtTicks(%d) = %d, %v; want %d", p.ht, r, ok, p.tt)
			}
		}
	}
	var onGrid []point
	for _, p := range pts {
		if p.ticks {
			onGrid = append(onGrid, p)
		}
	}
	// measure runs f over pts until the budget is spent, five times, and
	// returns the median nanoseconds per call.
	measure := func(pts []point, f func(p *point)) float64 {
		const budget = int64(20 * time.Millisecond)
		if len(pts) == 0 {
			return 0
		}
		var runs []float64
		for r := 0; r < 5; r++ {
			calls := 0
			start := nanotime()
			for nanotime()-start < budget {
				for i := range pts {
					f(&pts[i])
				}
				calls += len(pts)
			}
			runs = append(runs, float64(nanotime()-start)/float64(calls))
		}
		return median(runs)
	}
	var c clockCost
	c.hw = measure(pts, func(p *point) { clockSink += int64(sc.scheds[p.node].HW(p.real).Sign()) })
	c.realAt = measure(pts, func(p *point) {
		r, _ := sc.scheds[p.node].RealAt(p.hw)
		clockSink += int64(r.Sign())
	})
	c.hwTicks = measure(onGrid, func(p *point) {
		h, _ := fs[p.node].HWTicks(p.tt)
		clockSink += h
	})
	c.realAtTicks = measure(onGrid, func(p *point) {
		r, _ := fs[p.node].RealAtTicks(p.ht)
		clockSink += r
	})
	return c, nil
}
