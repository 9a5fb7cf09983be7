package engine

import (
	"testing"

	"gcs/internal/clock"
	"gcs/internal/fixed"
	"gcs/internal/network"
	"gcs/internal/obs"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// TestDetectLaneEngages: a common-denominator configuration engages the
// fixed lane at construction with a scale covering rates, delay bounds, and
// the adversary's quantization hint.
func TestDetectLaneEngages(t *testing.T) {
	scheds, err := clock.Diverse(3, ri(1), rf(5, 4), 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := newTestEngine(t, 3, tickProtocol{period: ri(1)},
		WithSchedules(scheds),
		WithAdversary(HashAdversary{Seed: 7, Denom: 8}),
	)
	if got := eng.TimeLane(); got != "fixed" {
		t.Fatalf("TimeLane = %q, want fixed", got)
	}
	if eng.FixedScale() <= 0 {
		t.Fatalf("FixedScale = %d, want positive", eng.FixedScale())
	}
	// The scale must absorb the adversary quantization (delays are eighths of
	// unit-denominator distance bounds) and every rate denominator.
	if eng.FixedScale()%8 != 0 {
		t.Errorf("scale %d does not cover the adversary's eighths", eng.FixedScale())
	}
}

// TestDetectLaneForcedRat: WithLane(LaneRat) skips detection entirely.
func TestDetectLaneForcedRat(t *testing.T) {
	eng := newTestEngine(t, 3, tickProtocol{period: ri(1)}, WithLane(LaneRat))
	if got := eng.TimeLane(); got != "rat" {
		t.Fatalf("TimeLane = %q, want rat", got)
	}
	if eng.FixedScale() != 0 {
		t.Fatalf("FixedScale = %d on the rat lane, want 0", eng.FixedScale())
	}
}

// TestDetectLaneOverflowFallsBack: coprime rate denominators whose LCM
// exceeds MaxScale defeat detection, and the engine silently runs rational.
func TestDetectLaneOverflowFallsBack(t *testing.T) {
	// Primes near 2^11 whose pairwise products already pass 2^32 when
	// combined with the third: 2039 · 2053 · 2063 · 2069 ≈ 2^44.
	primes := []int64{2039, 2053, 2063, 2069}
	scheds := make([]*clock.Schedule, 4)
	for i, p := range primes {
		scheds[i] = clock.Constant(rat.MustFrac(p+1, p))
	}
	net, err := network.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(net, WithProtocol(tickProtocol{period: ri(1)}), WithRho(rf(1, 2)),
		WithSchedules(scheds))
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.TimeLane(); got != "rat" {
		t.Fatalf("TimeLane = %q, want rat after LCM overflow", got)
	}
	// The run still works, just on the reference lane.
	if err := eng.RunUntil(ri(4)); err != nil {
		t.Fatal(err)
	}
}

// hintlessAdversary implements Adversary but not DenomHinter.
type hintlessAdversary struct{}

func (hintlessAdversary) Delay(_, _ int, _ uint64, _ rat.Rat, bound rat.Rat) rat.Rat {
	return bound
}

// TestDenomHinterImpls pins the delay-quantization hints each adversary
// advertises to lane detection.
func TestDenomHinterImpls(t *testing.T) {
	if got := (FractionAdversary{Frac: rf(1, 3)}).DelayDenom(); got != 3 {
		t.Errorf("FractionAdversary{1/3}: DelayDenom = %d, want 3", got)
	}
	if got := (HashAdversary{Denom: 12}).DelayDenom(); got != 12 {
		t.Errorf("HashAdversary{Denom:12}: DelayDenom = %d, want 12", got)
	}
	// Denom <= 0 means the documented default of sixteenths.
	if got := (HashAdversary{}).DelayDenom(); got != 16 {
		t.Errorf("HashAdversary{}: DelayDenom = %d, want 16", got)
	}
	scripted := ScriptedAdversary{
		Delays: Script{
			{Key: trace.MsgKey{From: 0, To: 1, Seq: 0}, Delay: rf(1, 6)},
			{Key: trace.MsgKey{From: 1, To: 0, Seq: 0}, Delay: rf(3, 4)},
		},
		Fallback: FractionAdversary{Frac: rf(1, 5)},
	}
	// lcm(6, 4, 5) = 60.
	if got := scripted.DelayDenom(); got != 60 {
		t.Errorf("ScriptedAdversary: DelayDenom = %d, want 60", got)
	}
	// Midpoint is FractionAdversary{1/2}, so its hint folds in as well.
	scripted.Fallback = Midpoint()
	if got := scripted.DelayDenom(); got != 12 {
		t.Errorf("ScriptedAdversary with midpoint fallback: DelayDenom = %d, want 12", got)
	}
	// A fallback that cannot advertise a hint poisons the whole script's.
	scripted.Fallback = hintlessAdversary{}
	if got := scripted.DelayDenom(); got != 0 {
		t.Errorf("ScriptedAdversary with hintless fallback: DelayDenom = %d, want 0", got)
	}
}

// TestLaneMetrics: construction increments exactly one of the lane counters,
// and a fully on-grid run records zero per-value fallbacks.
func TestLaneMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	eng := newTestEngine(t, 3, tickProtocol{period: ri(1)},
		WithAdversary(HashAdversary{Seed: 7, Denom: 8}),
		WithMetrics(met),
	)
	if eng.TimeLane() != "fixed" {
		t.Fatalf("TimeLane = %q, want fixed", eng.TimeLane())
	}
	if met.FixedLaneRuns.Value() != 1 || met.RatLaneRuns.Value() != 0 {
		t.Fatalf("lane counters after fixed construction: fixed=%d rat=%d",
			met.FixedLaneRuns.Value(), met.RatLaneRuns.Value())
	}
	if err := eng.RunUntil(ri(8)); err != nil {
		t.Fatal(err)
	}
	if got := met.FixedFallbacks.Value(); got != 0 {
		t.Errorf("on-grid run recorded %d fallbacks, want 0", got)
	}

	ratEng := newTestEngine(t, 3, tickProtocol{period: ri(1)},
		WithLane(LaneRat), WithMetrics(met))
	if ratEng.TimeLane() != "rat" {
		t.Fatalf("TimeLane = %q, want rat", ratEng.TimeLane())
	}
	if met.RatLaneRuns.Value() != 1 {
		t.Fatalf("RatLaneRuns = %d after rat construction, want 1", met.RatLaneRuns.Value())
	}
}

// TestForkInheritsLane: a fork reuses the parent's scale and compiled
// schedules without re-running detection.
func TestForkInheritsLane(t *testing.T) {
	eng := newTestEngine(t, 3, tickProtocol{period: ri(1)},
		WithAdversary(HashAdversary{Seed: 7, Denom: 8}))
	if eng.TimeLane() != "fixed" {
		t.Fatalf("TimeLane = %q, want fixed", eng.TimeLane())
	}
	if err := eng.RunFor(ri(2)); err != nil {
		t.Fatal(err)
	}
	fork, err := eng.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if fork.TimeLane() != "fixed" || fork.FixedScale() != eng.FixedScale() {
		t.Fatalf("fork lane %q scale %d, want fixed at parent scale %d",
			fork.TimeLane(), fork.FixedScale(), eng.FixedScale())
	}
}

// TestDetectorEvalFactor pins the two-grid detection rule: the value grid is
// the time grid refined by the LCM of the rate denominators, so hardware
// readings H(t) = t·p/q of on-grid times stay on grid.
func TestDetectorEvalFactor(t *testing.T) {
	d := fixed.NewDetector()
	d.AddDen(8)      // times land on eighths
	d.AddEvalDen(16) // a rate 17/16 multiplies values onto 128ths
	scale, ok := d.Scale()
	if !ok {
		t.Fatal("detector failed on a bounded configuration")
	}
	if scale%128 != 0 {
		t.Fatalf("scale %d does not refine the value grid (want a multiple of 128)", scale)
	}
}
