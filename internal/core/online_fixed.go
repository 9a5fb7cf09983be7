// Fixed-point lane for the SkewTracker (see internal/fixed): when the
// engine's scale detection lands the run on a common tick grid, the engine
// hands the scale to every attached observer implementing AdoptFixedLane,
// and the tracker mirrors its per-node declarations and per-pair running
// maxima in int64 ticks. The pair sweep — the tracker's O(n)-per-instant hot
// path, and the dominant per-step CPU term of an observed run — then reduces
// to one integer clock evaluation per node and instant plus one integer
// subtract and compare per pair, with the usual contract: any value off the
// grid falls back to exact rational arithmetic for that value alone, so
// results are byte-identical to the pure rat lane. A pair maximum that rises
// in ticks stays in ticks; its rational is built only when it is read, or
// before the grid changes (settleTicks).

package core

import (
	"gcs/internal/clock"
	"gcs/internal/fixed"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// declTicks mirrors one logical-clock declaration on the tick grid:
// L(t) = val + (multP/multQ)·(H(t) − hw0), all times and values in ticks.
// ok=false means the declaration has an off-grid component and every
// evaluation under it takes the rat lane.
type declTicks struct {
	val, hw0     int64
	multP, multQ int64
	ok           bool
}

// AdoptFixedLane implements the engine's fixed-lane observer extension: the
// engine calls it with its detected tick scale (0 when the run stays on the
// rat lane) when the tracker is attached. The tracker compiles its own
// schedule mirrors at that scale; a tracker that never adopts a scale — or
// adopts 0 — runs entirely on the rat lane, byte-identical either way.
func (st *SkewTracker) AdoptFixedLane(scale int64) {
	if scale == st.scale && (scale == 0 || st.fscheds != nil) {
		return // already on this grid (e.g. a clone re-attached to a fork)
	}
	st.settleTicks()
	st.valLive = false
	st.scale = 0
	st.fscheds = nil
	if scale <= 0 {
		return
	}
	fs := make([]*clock.FixedSchedule, st.n)
	for i, s := range st.scheds {
		f, ok := s.CompileFixed(scale)
		if !ok {
			return
		}
		fs[i] = f
	}
	st.scale = scale
	st.fscheds = fs
	if st.curT == nil {
		st.curT = make([]declTicks, st.n)
		st.leftT = make([]declTicks, st.n)
		st.pairSkewT = make([]int64, st.n*st.n)
		st.pairTickOK = make([]bool, st.n*st.n)
	}
	for i := 0; i < st.n; i++ {
		st.curT[i] = st.declTicksOf(st.cur[i])
		st.leftT[i] = st.declTicksOf(st.left[i])
	}
}

// settleTicks builds the rational of every pair maximum held in ticks and
// drops the tick mirrors; run it before the grid changes, after which those
// ticks would mean nothing. Pair mirrors re-establish lazily from the exact
// rat maxima on the next grid.
func (st *SkewTracker) settleTicks() {
	if st.scale <= 0 {
		return
	}
	for idx, ok := range st.pairTickOK {
		if ok {
			st.pairSkew[idx] = fixed.ToRat(st.pairSkewT[idx], st.scale)
			st.pairTickOK[idx] = false
		}
	}
}

// inTicks reports whether pair idx's running maximum is held in ticks.
func (st *SkewTracker) inTicks(idx int) bool {
	return st.pairTickOK != nil && st.pairTickOK[idx]
}

// declTicksOf converts a declaration onto the grid.
func (st *SkewTracker) declTicksOf(d trace.Decl) declTicks {
	val, ok1 := fixed.FromRat(d.Value, st.scale)
	hw0, ok2 := fixed.FromRat(d.HW0, st.scale)
	p, ok3 := d.Mult.Num()
	q, ok4 := d.Mult.Den()
	return declTicks{
		val: val, hw0: hw0, multP: p, multQ: q,
		ok: ok1 && ok2 && ok3 && ok4 && p >= 0 && q > 0,
	}
}

// logicalAtT evaluates node i's logical clock in ticks, or ok=false when
// any component is off the grid. An ok result equals logicalAt bit for bit
// after fixed.ToRat.
func (st *SkewTracker) logicalAtT(dt *declTicks, i int, tT int64) (int64, bool) {
	if !dt.ok {
		return 0, false
	}
	hwT, ok := st.fscheds[i].HWTicks(tT)
	if !ok {
		return 0, false
	}
	diff, ok := fixed.Sub(hwT, dt.hw0)
	if !ok {
		return 0, false
	}
	term, ok := fixed.MulDiv(diff, dt.multP, dt.multQ)
	if !ok {
		return 0, false
	}
	return fixed.Add(dt.val, term)
}

// updatePairT folds a pair evaluation already computed in ticks into the
// running maxima. The overwhelmingly common outcome — the new value does not
// exceed the pair's running maximum held in ticks — is a single integer
// compare. An increase stores the ticks only: reads build the rational
// (pairMax), and only an installed onPair hook needs it at once.
func (st *SkewTracker) updatePairT(i, j int, diffT int64, at rat.Rat) {
	if j < i {
		i, j = j, i
	}
	idx := i*st.n + j
	if st.pairSet[idx] {
		if !st.pairTickOK[idx] {
			// The maximum was last stored through the rat lane: mirror it so
			// this and later compares stay in ticks.
			st.pairSkewT[idx], st.pairTickOK[idx] = fixed.FromRat(st.pairSkew[idx], st.scale)
			if !st.pairTickOK[idx] {
				st.updatePair(i, j, fixed.ToRat(diffT, st.scale), at)
				return
			}
		}
		if diffT <= st.pairSkewT[idx] {
			return
		}
	}
	st.pairSet[idx] = true
	st.pairSkewT[idx] = diffT
	st.pairTickOK[idx] = true
	if st.onPair != nil {
		st.onPair(i, j, fixed.ToRat(diffT, st.scale), at)
	}
	st.raised(idx, i, j, at)
}
