package core

import (
	"testing"

	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// TestTrackerCloneEquivalence: trackers cloned mid-run and attached to a
// forked engine must finish with exactly the metrics of trackers that
// watched a fresh end-to-end run — and exactly the post-hoc checkers'
// values on the recorded execution. The original trackers must be untouched
// by the clones' progress.
func TestTrackerCloneEquivalence(t *testing.T) {
	net, err := network.Line(5)
	if err != nil {
		t.Fatal(err)
	}
	scheds := []*clock.Schedule{
		clock.Constant(rat.MustFrac(5, 4)),
		clock.Constant(rat.FromInt(1)),
		clock.Constant(rat.MustFrac(9, 8)),
		clock.Constant(rat.MustFrac(7, 8)),
		clock.Constant(rat.FromInt(1)),
	}
	cfg := engine.Config{
		Net:       net,
		Schedules: scheds,
		Adversary: engine.HashAdversary{Seed: 23, Denom: 8},
		Protocol:  gossipProtocol{period: rat.FromInt(1)},
		Duration:  rat.FromInt(14),
		Rho:       rat.MustFrac(1, 2),
	}
	f := LinearGradient(rat.FromInt(1), rat.FromInt(1))
	exec, fullSt, fullGt, fullVt := runBoth(t, cfg, f)

	// Trunk run: trackers attached from zero, cloned at mid-run, clones
	// finish on a fork.
	st, err := NewSkewTracker(cfg.Net, cfg.Schedules)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := NewGradientTracker(cfg.Net, cfg.Schedules, f)
	if err != nil {
		t.Fatal(err)
	}
	vt := NewValidityTracker(cfg.Schedules)
	trunk, err := engine.New(cfg.Net,
		engine.WithProtocol(cfg.Protocol),
		engine.WithAdversary(cfg.Adversary),
		engine.WithSchedules(cfg.Schedules),
		engine.WithRho(cfg.Rho),
		engine.WithObservers(st, gt, vt),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := trunk.RunUntil(rat.FromInt(7)); err != nil {
		t.Fatal(err)
	}
	midGlobal := st.Global().Skew
	cSt, cGt, cVt := st.Clone(), gt.Clone(), vt.Clone()
	fork, err := trunk.Fork()
	if err != nil {
		t.Fatal(err)
	}
	fork.Observe(cSt, cGt, cVt)
	if err := fork.RunUntil(cfg.Duration); err != nil {
		t.Fatal(err)
	}
	if err := cSt.Err(); err != nil {
		t.Fatal(err)
	}
	checkTrackersMatch(t, exec, cSt, cGt, cVt, f)

	// Originals froze at the fork point.
	if !st.Global().Skew.Equal(midGlobal) {
		t.Fatalf("original tracker moved with the clone: %s vs %s", st.Global().Skew, midGlobal)
	}
	if !st.Time().Equal(rat.FromInt(7)) {
		t.Fatalf("original tracker time %s, want 7", st.Time())
	}

	// Clone-of-clone still matches: the GradientTracker hook rewires each
	// time.
	again := cGt.Clone()
	if again.Violated() != cGt.Violated() {
		t.Fatalf("cloned gradient tracker violation state differs")
	}
	if fullGt.Violated() != cGt.Violated() {
		t.Fatalf("forked gradient tracker violation %v, fresh %v", cGt.Violated(), fullGt.Violated())
	}
	if (fullVt.Err() == nil) != (cVt.Err() == nil) {
		t.Fatalf("forked validity %v, fresh %v", cVt.Err(), fullVt.Err())
	}
	if !fullSt.Global().Skew.Equal(cSt.Global().Skew) {
		t.Fatalf("forked tracker global %s, fresh %s", cSt.Global().Skew, fullSt.Global().Skew)
	}
}

// sameWitness reports whether two skew reports agree exactly: pair, distance,
// value and instant.
func sameWitness(a, b PairSkew) bool {
	return a.I == b.I && a.J == b.J && a.Dist.Equal(b.Dist) && a.Skew.Equal(b.Skew) && a.At.Equal(b.At)
}

// requireSameSkew fails unless got reports exactly want's per-pair maxima,
// profile, and global and local skew, witnesses included.
func requireSameSkew(t *testing.T, name string, got, want *SkewTracker) {
	t.Helper()
	want.net.Pairs(func(i, j int) {
		if g, w := got.Pair(i, j), want.Pair(i, j); !sameWitness(g, w) {
			t.Errorf("%s: pair (%d,%d) = %s at %s, want %s at %s", name, i, j, g.Skew, g.At, w.Skew, w.At)
		}
	})
	if g, w := got.Global(), want.Global(); !sameWitness(g, w) {
		t.Errorf("%s: global = %+v, want %+v", name, g, w)
	}
	if g, w := got.Local(), want.Local(); !sameWitness(g, w) {
		t.Errorf("%s: local = %+v, want %+v", name, g, w)
	}
	gp, wp := got.Profile(), want.Profile()
	if len(gp) != len(wp) {
		t.Fatalf("%s: profile has %d points, want %d", name, len(gp), len(wp))
	}
	for k := range wp {
		if !gp[k].Dist.Equal(wp[k].Dist) || gp[k].Pairs != wp[k].Pairs || !gp[k].MaxSkew.Equal(wp[k].MaxSkew) {
			t.Errorf("%s: profile[%d] = %+v, want %+v", name, k, gp[k], wp[k])
		}
	}
}

// requirePostHoc fails unless st reports exactly the post-hoc checkers'
// values over exec, witnesses included.
func requirePostHoc(t *testing.T, name string, exec *trace.Execution, st *SkewTracker) {
	t.Helper()
	exec.Net.Pairs(func(i, j int) {
		ext := exec.MaxAbsSkew(i, j, rat.Rat{}, exec.Duration)
		if p := st.Pair(i, j); !p.Skew.Equal(ext.Val) || !p.At.Equal(ext.At) {
			t.Errorf("%s: pair (%d,%d) = %s at %s, recorded %s at %s", name, i, j, p.Skew, p.At, ext.Val, ext.At)
		}
	})
	if g, w := st.Global(), GlobalSkew(exec); !sameWitness(g, w) {
		t.Errorf("%s: global = %+v, recorded %+v", name, g, w)
	}
	if g, w := st.Local(), LocalSkew(exec); !sameWitness(g, w) {
		t.Errorf("%s: local = %+v, recorded %+v", name, g, w)
	}
	prof, oprof := SkewProfile(exec), st.Profile()
	if len(prof) != len(oprof) {
		t.Fatalf("%s: profile has %d points, recorded %d", name, len(oprof), len(prof))
	}
	for k := range prof {
		if !prof[k].Dist.Equal(oprof[k].Dist) || prof[k].Pairs != oprof[k].Pairs || !prof[k].MaxSkew.Equal(oprof[k].MaxSkew) {
			t.Errorf("%s: profile[%d] = %+v, recorded %+v", name, k, oprof[k], prof[k])
		}
	}
}

// ratLaneReference runs cfg from time zero with a tracker held on the rat
// lane throughout, and records the same execution for the post-hoc
// checkers.
func ratLaneReference(t *testing.T, cfg engine.Config) (*SkewTracker, *trace.Execution) {
	t.Helper()
	exec, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewSkewTracker(cfg.Net, cfg.Schedules)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(cfg.Net,
		engine.WithProtocol(cfg.Protocol),
		engine.WithAdversary(cfg.Adversary),
		engine.WithSchedules(cfg.Schedules),
		engine.WithRho(cfg.Rho),
		engine.WithObservers(st),
	)
	if err != nil {
		t.Fatal(err)
	}
	st.AdoptFixedLane(0)
	if err := eng.RunUntil(cfg.Duration); err != nil {
		t.Fatal(err)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	return st, exec
}

// TestTrackerCloneLaneDropWithStaleMaxima: a tick-lane tracker holds its
// pair maxima in ticks only. A clone whose schedule swap leaves the tick
// grid must build every one of those rationals before it drops to the rat
// lane; so must a clone that adopts scale 0. A clone that re-adopts the
// same grid, and the trunk tracker itself, keep going in ticks. Each must finish exactly where a rat-lane tracker
// and the post-hoc checkers over a fresh recorded run land.
func TestTrackerCloneLaneDropWithStaleMaxima(t *testing.T) {
	net, err := network.Line(5)
	if err != nil {
		t.Fatal(err)
	}
	base, err := clock.Diverse(5, rat.FromInt(1), rat.MustFrac(5, 4), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	const node = 1
	from, to := rat.FromInt(5), rat.FromInt(9)
	offGrid, err := base[node].ModifyWindow(from, to, func(rat.Rat) rat.Rat { return rat.MustFrac(1000003, 1000002) })
	if err != nil {
		t.Fatal(err)
	}
	swapped := append([]*clock.Schedule(nil), base...)
	swapped[node] = offGrid
	cfg := engine.Config{
		Net:       net,
		Schedules: base,
		Adversary: engine.HashAdversary{Seed: 5, Denom: 8},
		Protocol:  gossipProtocol{period: rat.FromInt(1)},
		Duration:  rat.FromInt(14),
		Rho:       rat.MustFrac(1, 2),
	}
	swappedCfg := cfg
	swappedCfg.Schedules = swapped

	st, err := NewSkewTracker(net, base)
	if err != nil {
		t.Fatal(err)
	}
	trunk, err := engine.New(net,
		engine.WithProtocol(cfg.Protocol),
		engine.WithAdversary(cfg.Adversary),
		engine.WithSchedules(base),
		engine.WithRho(cfg.Rho),
		engine.WithObservers(st),
	)
	if err != nil {
		t.Fatal(err)
	}
	if trunk.FixedScale() == 0 || st.scale == 0 {
		t.Fatal("trunk not on the fixed lane")
	}
	for {
		nt, ok := trunk.NextEventTime()
		if !ok || !nt.Less(from) {
			break
		}
		if _, err := trunk.Step(); err != nil {
			t.Fatal(err)
		}
	}
	stale := 0
	for idx, ok := range st.pairTickOK {
		if ok && !st.pairSkew[idx].Equal(st.pairMax(idx)) {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("no pair maximum held in ticks only at the clone point")
	}

	// Clone 1 swaps in the off-grid schedule and drops to the rat lane.
	dropFork, err := trunk.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := dropFork.SwapSchedule(node, offGrid); err != nil {
		t.Fatal(err)
	}
	dropped := st.Clone()
	if err := dropped.SwapSchedule(node, offGrid); err != nil {
		t.Fatal(err)
	}
	if dropped.scale != 0 {
		t.Fatalf("off-grid swap kept the clone on scale %d", dropped.scale)
	}
	for idx, ok := range dropped.pairTickOK {
		if ok {
			t.Fatalf("pair %d still held in ticks after the lane drop", idx)
		}
	}
	dropFork.Observe(dropped)

	// Clone 2 re-adopts the trunk's grid on an unswapped fork.
	sameFork, err := trunk.Fork()
	if err != nil {
		t.Fatal(err)
	}
	same := st.Clone()
	sameFork.Observe(same)
	if same.scale != st.scale {
		t.Fatalf("re-adopting clone on scale %d, trunk %d", same.scale, st.scale)
	}

	// Clone 3 leaves the grid through AdoptFixedLane(0) on an unswapped
	// fork.
	ratFork, err := trunk.Fork()
	if err != nil {
		t.Fatal(err)
	}
	toRat := st.Clone()
	ratFork.Observe(toRat)
	toRat.AdoptFixedLane(0)

	for _, e := range []*engine.Engine{trunk, dropFork, sameFork, ratFork} {
		if err := e.RunUntil(cfg.Duration); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range []*SkewTracker{st, dropped, same, toRat} {
		if err := tr.Err(); err != nil {
			t.Fatal(err)
		}
	}

	baseRef, baseExec := ratLaneReference(t, cfg)
	swapRef, swapExec := ratLaneReference(t, swappedCfg)
	requireSameSkew(t, "trunk", st, baseRef)
	requirePostHoc(t, "trunk", baseExec, st)
	requireSameSkew(t, "re-adopting clone", same, baseRef)
	requirePostHoc(t, "re-adopting clone", baseExec, same)
	requireSameSkew(t, "rat-adopting clone", toRat, baseRef)
	requirePostHoc(t, "rat-adopting clone", baseExec, toRat)
	requireSameSkew(t, "lane-dropped clone", dropped, swapRef)
	requirePostHoc(t, "lane-dropped clone", swapExec, dropped)
}
