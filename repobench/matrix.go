package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/lowerbound"
	"gcs/internal/rat"
	"gcs/internal/scenario"
	"gcs/internal/search"
)

// matrix: scenario.RunScenario over the five scenario.Smoke() cells, one
// cell per job, each cycle through the cells in a seed-determined order.
// Every report must byte-equal its row of the committed BENCH_matrix.json.

// matrixGolden is the committed smoke matrix, read from the repository
// root the benchmark runs in.
const matrixGolden = "BENCH_matrix.json"

// matrixCycles is how many seed-determined orders of the cells the pool
// holds; the closed loop walks the pool round-robin.
const matrixCycles = 4

type matrixInst struct {
	cells []scenario.Scenario
	want  [][]byte // compact JSON row per cell
	order []int    // pool: cell index per job
}

func setupMatrix(seed uint64, tiny bool) (instance, error) {
	cells, err := scenario.Smoke()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(matrixGolden)
	if err != nil {
		return nil, fmt.Errorf("matrix golden: %w", err)
	}
	var rows []json.RawMessage
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, fmt.Errorf("matrix golden %s: %w", matrixGolden, err)
	}
	if len(rows) != len(cells) {
		return nil, fmt.Errorf("matrix golden has %d rows for %d smoke cells", len(rows), len(cells))
	}
	m := &matrixInst{cells: cells}
	for _, row := range rows {
		var b bytes.Buffer
		if err := json.Compact(&b, row); err != nil {
			return nil, err
		}
		m.want = append(m.want, b.Bytes())
	}
	cycles := matrixCycles
	if tiny {
		cycles = 1 // the cells have one size; tiny runs walk them once
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	for c := 0; c < cycles; c++ {
		m.order = append(m.order, rng.Perm(len(cells))...)
	}
	// Warm-up: every cell once, checked like a timed job.
	for k := range cells {
		if _, err := m.runCell(k); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *matrixInst) pool() int { return len(m.order) }

func (m *matrixInst) check(k int, rep scenario.Report) error {
	got, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, m.want[k]) {
		return fmt.Errorf("matrix %s: report %s, committed %s", m.cells[k].Name, got, m.want[k])
	}
	if !rep.Pass {
		return fmt.Errorf("matrix %s: worst %s exceeds bound %s", rep.Name, rep.Worst, rep.Bound)
	}
	return nil
}

func (m *matrixInst) runCell(k int) (jobTime, error) {
	start := now()
	rep, err := scenario.RunScenario(m.cells[k], scenario.RunOptions{Workers: 1})
	d := start.elapsed()
	if err != nil {
		return d, err
	}
	return d, m.check(k, rep)
}

func (m *matrixInst) run(i int) (jobTime, error) { return m.runCell(m.order[i]) }

// cellRun reproduces scenario.RunScenario through the public calls it
// makes — drift schedules, the faulted search, the adaptive scheduler run,
// the certified bound — so the two phases can be timed and instrumented.
// With t nil nothing is wrapped.
func cellRun(sc scenario.Scenario, t *tracer, em *engine.Metrics, sm *search.Metrics) (scenario.Report, error) {
	begin := func(l layer) {
		if t != nil {
			t.begin(l)
		}
	}
	end := func() {
		if t != nil {
			t.end()
		}
	}
	// wrap charges adv to layer l under t, and is the identity untraced.
	wrap := func(adv engine.Adversary, l layer) (engine.Adversary, error) {
		if t == nil {
			return adv, nil
		}
		return wrapAdversary(adv, l, t)
	}
	proto := sc.Protocol
	if t != nil {
		proto = wrapProtocol(proto, t)
	}
	if err := sc.Model.Validate(); err != nil {
		return scenario.Report{}, err
	}

	begin(lScenarioSearch)
	res, scheds, err := cellSearch(sc, proto, t, wrap, em, sm)
	end()
	if err != nil {
		return scenario.Report{}, fmt.Errorf("%s: search: %w", sc.Name, err)
	}

	begin(lScenarioAdapt)
	adaptive, err := cellAdaptive(sc, proto, scheds, t, wrap, em)
	end()
	if err != nil {
		return scenario.Report{}, fmt.Errorf("%s: adaptive run: %w", sc.Name, err)
	}

	worst := rat.Max(res.Best, adaptive)
	bound, term := scenario.CertifiedBound(scenario.BoundInput{
		Diameter: sc.Net.Diameter(),
		Period:   sc.Period,
		Rho:      sc.Rho,
		Duration: sc.Duration,
		Fault:    sc.Model,
	})
	return scenario.Report{
		Name:      sc.Name,
		Family:    sc.Family,
		Fault:     sc.Fault,
		Drift:     sc.Drift.String(),
		Protocol:  sc.Protocol.Name(),
		N:         sc.Net.N(),
		Diameter:  sc.Net.Diameter().String(),
		Duration:  sc.Duration.String(),
		Baseline:  res.Baseline.String(),
		Searched:  res.Best.String(),
		Adaptive:  adaptive.String(),
		Worst:     worst.String(),
		Bound:     bound.String(),
		BoundTerm: term,
		Margin:    bound.Sub(worst).String(),
		Pass:      worst.LessEq(bound),
	}, nil
}

type wrapFunc func(engine.Adversary, layer) (engine.Adversary, error)

// cellSearch is the scripted phase: the faulted midpoint base, searched
// over delay and rate mutations for the global-skew objective.
func cellSearch(sc scenario.Scenario, proto engine.Protocol, t *tracer, wrap wrapFunc, em *engine.Metrics, sm *search.Metrics) (*search.Result, []*clock.Schedule, error) {
	scheds, err := sc.Drift.Schedules(sc.Net.N(), sc.Rho, sc.Duration)
	if err != nil {
		return nil, nil, err
	}
	inner, err := wrap(engine.Midpoint(), lAdversary)
	if err != nil {
		return nil, nil, err
	}
	base, err := wrap(scenario.FaultAdversary{Model: sc.Model, Inner: inner}, lFault)
	if err != nil {
		return nil, nil, err
	}
	opt := search.Options{
		Net:            sc.Net,
		Protocol:       proto,
		Duration:       sc.Duration,
		Rho:            sc.Rho,
		Schedules:      scheds,
		Base:           base,
		Objective:      search.ObjectiveGlobalSkew,
		Rounds:         2, // scenario.RunOptions defaults
		Beam:           2,
		DelayMutations: 6,
		Workers:        1,
		Metrics:        sm,
		EngineMetrics:  em,
	}
	var res *search.Result
	if t == nil {
		res, err = search.Search(opt)
	} else {
		res, err = campaign(opt, t)
	}
	return res, scheds, err
}

// cellAdaptive is the adaptive phase: the §2 online scheduler from node 0
// (on the fast 1+ρ/2 band) to the node farthest from it, behind the fault
// layer.
func cellAdaptive(sc scenario.Scenario, proto engine.Protocol, base []*clock.Schedule, t *tracer, wrap wrapFunc, em *engine.Metrics) (rat.Rat, error) {
	const source = 0
	front, far := source, rat.Rat{}
	for j := 0; j < sc.Net.N(); j++ {
		if j != source && far.Less(sc.Net.Dist(source, j)) {
			front, far = j, sc.Net.Dist(source, j)
		}
	}
	sched, err := lowerbound.NewAdaptiveScheduler(sc.Net, source, front, lowerbound.AutoThreshold(sc.Rho, sc.Duration))
	if err != nil {
		return rat.Rat{}, err
	}
	scheds := append([]*clock.Schedule(nil), base...)
	scheds[source] = clock.Constant(lowerbound.Params{Rho: sc.Rho}.RateBandHigh())
	inner, err := wrap(sched, lAdaptive)
	if err != nil {
		return rat.Rat{}, err
	}
	adv, err := wrap(scenario.FaultAdversary{Model: sc.Model, Inner: inner}, lFault)
	if err != nil {
		return rat.Rat{}, err
	}
	if t != nil {
		t.begin(lCoreSkew)
	}
	skew, err := core.NewSkewTracker(sc.Net, scheds)
	if t != nil {
		t.end()
	}
	if err != nil {
		return rat.Rat{}, err
	}
	var skewObs engine.Observer = skew
	if t != nil {
		skewObs = &tracedTracker{inner: skew, l: lCoreSkew, t: t}
		t.begin(lEngine)
	}
	eng, err := engine.New(sc.Net,
		engine.WithProtocol(proto),
		engine.WithAdversary(adv),
		engine.WithSchedules(scheds),
		engine.WithRho(sc.Rho),
		engine.WithObservers(skewObs),
		engine.WithMetrics(em),
	)
	if err == nil {
		err = eng.RunUntil(sc.Duration)
	}
	if t != nil {
		t.end()
	}
	if err != nil {
		return rat.Rat{}, err
	}
	if err := skew.Err(); err != nil {
		return rat.Rat{}, err
	}
	return skew.Global().Skew, nil
}

func (m *matrixInst) traced(i int, t *tracer) (pairRun, error) {
	k := m.order[i]
	sc := m.cells[k]
	var pr pairRun

	_, plainEng, plainSrch := instrumented(search.Options{})
	rs := readRuntime()
	start := now()
	plain, err := cellRun(sc, nil, plainEng, plainSrch)
	pr.plain = start.elapsed().wall
	pr.rt = readRuntime().sub(rs)
	if err != nil {
		return pr, err
	}
	if err := m.check(k, plain); err != nil {
		return pr, err
	}

	_, tracedEng, tracedSrch := instrumented(search.Options{})
	t.begin(lBench)
	rep, err := cellRun(sc, t, tracedEng, tracedSrch)
	t.end()
	pr.traced = time.Duration(t.incl[lBench])
	if err != nil {
		return pr, fmt.Errorf("traced: %w", err)
	}
	if err := m.check(k, rep); err != nil {
		return pr, fmt.Errorf("traced: %w", err)
	}
	pr.eng, pr.srch = readEngine(tracedEng), readSearch(tracedSrch)
	if e := readEngine(plainEng); e != pr.eng {
		return pr, fmt.Errorf("traced engine counters %+v differ from untraced %+v", pr.eng, e)
	}
	if s := readSearch(plainSrch); s != pr.srch {
		return pr, fmt.Errorf("traced search counters %+v differ from untraced %+v", pr.srch, s)
	}
	return pr, nil
}

func (m *matrixInst) clockScene(i int) (scene, error) {
	sc := m.cells[m.order[i]]
	scheds, err := sc.Drift.Schedules(sc.Net.N(), sc.Rho, sc.Duration)
	if err != nil {
		return scene{}, err
	}
	eng, err := engine.New(sc.Net,
		engine.WithProtocol(sc.Protocol),
		engine.WithAdversary(scenario.FaultAdversary{Model: sc.Model, Inner: engine.Midpoint()}),
		engine.WithSchedules(scheds),
		engine.WithRho(sc.Rho),
	)
	if err != nil {
		return scene{}, err
	}
	return scene{scheds: scheds, scale: eng.FixedScale()}, nil
}
