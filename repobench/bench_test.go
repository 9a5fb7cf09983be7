package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"gcs/internal/engine"
	"gcs/internal/lowerbound"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/scenario"
)

// The benchmark runs from the repository root; so do its tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runTiny runs one workload at the tiny size and parses its result line.
func runTiny(t *testing.T, workload string, seed uint64, trace int) (result, string) {
	t.Helper()
	var out bytes.Buffer
	err := run(options{workload: workload, seed: seed, seconds: 0.01, trace: trace, tiny: true}, &out)
	if err != nil {
		t.Fatalf("%s seed %d trace %d: %v", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	return res, out.String()
}

// TestEveryMetricEmitted checks that every metric BENCHMARK.json names is
// emitted with its unit, and that no job fails, at the default seed and a
// second one.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, seed := range []uint64{1, 2} {
			for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
				res, text := runTiny(t, w.name, seed, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d trace %d: correct=%v failed=%d attempted=%d", w.name, seed, trace, res.Correct, res.Failed, res.Attempted)
				}
				if !strings.Contains(text, "failed_frac") {
					t.Errorf("%s trace %d: failed_frac not printed", w.name, trace)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace %d: %d metrics emitted, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s trace %d: metric %s = %+v, want unit %q", w.name, trace, m.Name, got, m.Unit)
					}
				}
			}
		}
	}
}

// TestWrongExpectationFails corrupts one expected output per workload and
// requires the closed loop to count the job as failed.
func TestWrongExpectationFails(t *testing.T) {
	for _, w := range workloads {
		inst, err := w.setup(1, true)
		if err != nil {
			t.Fatal(err)
		}
		switch in := inst.(type) {
		case *streamInst:
			in.jobs[0].want[1] = "events=0"
		case *searchInst:
			in.golden = map[uint64]searchWant{in.jobs[0].seed: {best: "0"}}
		case *matrixInst:
			in.want[in.order[0]] = []byte(`{"name":"wrong"}`)
		}
		res, err := measure(inst, 0.01, &calibration{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed == 0 || res.Correct {
			t.Errorf("%s: a wrong expected value left failed=%d correct=%v", w.name, res.Failed, res.Correct)
		}
	}
}

// adversarySignature is everything the engine derives from an adversary's
// optional interfaces: the lane hint, whether it clones, which value owns
// the drop decision, and which feedback interfaces the resolved target has.
type adversarySignature struct {
	denom                      int64
	cloneable, checked, drops  bool
	action, declare, onHorizon bool
}

func signature(adv engine.Adversary) adversarySignature {
	var s adversarySignature
	if h, ok := adv.(engine.DenomHinter); ok {
		s.denom = h.DelayDenom()
	}
	_, s.cloneable = engine.CloneAdversaryState(adv)
	_, s.checked = adv.(engine.CheckedAdversary)
	s.drops = dropLayer(adv) != nil
	target := any(adv)
	for {
		w, ok := target.(engine.AdversaryWrapper)
		if !ok {
			break
		}
		if target = w.Unwrap(); target == nil {
			break
		}
	}
	_, s.action = target.(engine.Observer)
	_, s.declare = target.(engine.ClockObserver)
	_, s.onHorizon = target.(engine.HorizonObserver)
	return s
}

// TestWrappersAreFaithful checks that wrapping an adversary changes
// nothing the engine derives from it, for every adversary shape the
// workloads build.
func TestWrappersAreFaithful(t *testing.T) {
	net, err := network.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := lowerbound.NewAdaptiveScheduler(net, 0, 2, rat.FromInt(1))
	if err != nil {
		t.Fatal(err)
	}
	model := scenario.FaultModel{LossNum: 1, LossDen: 8, LossSeed: 3}
	tr := &tracer{}
	for name, adv := range map[string]engine.Adversary{
		"hash":           engine.HashAdversary{Seed: 1, Denom: 8},
		"midpoint":       engine.Midpoint(),
		"fault/midpoint": scenario.FaultAdversary{Model: model, Inner: engine.Midpoint()},
		"adaptive":       sched,
		"fault/adaptive": scenario.FaultAdversary{Model: model, Inner: sched},
	} {
		w, err := wrapAdversary(adv, lAdversary, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := signature(adv)
		want.checked = true // the wrapper always offers the checked path
		if got := signature(w); got != want {
			t.Errorf("%s: wrapped signature %+v, unwrapped %+v", name, got, want)
		}
		c, ok := engine.CloneAdversaryState(w)
		if !ok || signature(c) != want {
			t.Errorf("%s: clone of the wrapper has signature %+v", name, signature(c))
		}
	}
}
