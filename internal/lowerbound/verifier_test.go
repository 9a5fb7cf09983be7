package lowerbound

import (
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// TestVerifierCatchesCorruptedScript re-simulates a correct Add Skew β with
// one scripted delay perturbed: the indistinguishability checker must reject
// the corrupted execution. This is the negative test for the verification
// machinery itself — a verifier that accepts everything would make every
// certificate in this package worthless.
func TestVerifierCatchesCorruptedScript(t *testing.T) {
	p := DefaultParams()
	proto := algorithms.MaxGossip(ri(1))
	n := 7
	dur := p.Tau().Mul(ri(int64(n - 1)))
	cfg, alpha := lineAlpha(t, proto, n, dur, p)
	positions := make([]rat.Rat, n)
	for k := range positions {
		positions[k] = ri(int64(k))
	}
	res, err := AddSkew(AddSkewInput{
		Cfg: cfg, Alpha: alpha, Positions: positions,
		I: 0, J: n - 1, S: rat.Rat{}, Params: p,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild β's adversary with one delay nudged by 1/8 (still within
	// bounds so the simulation itself succeeds).
	scripted, ok := res.BetaCfg.Adversary.(engine.ScriptedAdversary)
	if !ok {
		t.Fatal("β adversary is not scripted")
	}
	var victim engine.ScriptEntry
	found := false
	for _, e := range scripted.Delays {
		// Pick a delivered mid-run message between adjacent nodes.
		if rec, ok := alpha.Ledger[e.Key]; ok && rec.Delivered &&
			rec.RecvReal.Greater(ri(2)) && rec.RecvReal.Less(res.TPrime) {
			victim, found = e, true
			break
		}
	}
	if !found {
		t.Fatal("no suitable victim message")
	}
	corrupted := scripted.Delays.With(victim.Key, victim.Delay.Add(rf(1, 8)))

	badCfg := res.BetaCfg
	badCfg.Adversary = engine.ScriptedAdversary{Delays: corrupted, Fallback: engine.Midpoint()}
	bad, err := engine.Run(badCfg)
	if err != nil {
		t.Fatalf("corrupted β should still simulate (delays remain legal): %v", err)
	}
	if err := trace.CheckIndistinguishable(alpha, bad); err == nil {
		t.Fatal("verifier accepted a corrupted β: the certificate machinery is broken")
	}
}

// TestVerifierCatchesWrongSchedule perturbs one node's rate surgery point:
// hardware readings shift and the checker must notice.
func TestVerifierCatchesWrongSchedule(t *testing.T) {
	p := DefaultParams()
	proto := algorithms.MaxGossip(ri(1))
	n := 5
	dur := p.Tau().Mul(ri(int64(n - 1)))
	cfg, alpha := lineAlpha(t, proto, n, dur, p)
	positions := make([]rat.Rat, n)
	for k := range positions {
		positions[k] = ri(int64(k))
	}
	res, err := AddSkew(AddSkewInput{
		Cfg: cfg, Alpha: alpha, Positions: positions,
		I: 0, J: n - 1, S: rat.Rat{}, Params: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 speeds up 1/2 earlier than the construction demands.
	wrong, err := cfg.Schedules[2].WithRateFrom(res.Tk[2].Sub(rf(1, 2)), p.Gamma())
	if err != nil {
		t.Fatal(err)
	}
	badCfg := res.BetaCfg
	badCfg.Schedules = append([]*clock.Schedule{}, res.BetaCfg.Schedules...)
	badCfg.Schedules[2] = wrong
	bad, err := engine.Run(badCfg)
	if err != nil {
		// Acceptable: the corrupted schedule can break delay legality, which
		// is also a detection.
		return
	}
	if err := trace.CheckIndistinguishable(alpha, bad); err == nil {
		t.Fatal("verifier accepted a β with a perturbed rate schedule")
	}
}
