// Online (streaming) counterparts of the post-hoc checkers: observers that
// maintain running skew and validity metrics while an engine runs, in
// O(nodes²) state and with no trace retention.
//
// Exactness. Every logical clock L_i is piecewise linear in real time, with
// breakpoints only at logical-clock declarations (Runtime.SetLogical) and at
// hardware rate-schedule breakpoints. The maximum of |L_i − L_j| over an
// interval on which both clocks are linear is attained at the interval's
// endpoints, so a tracker that evaluates every pair at every breakpoint of
// either clock — from the left and from the right — computes exactly the
// same maxima as the post-hoc checkers over a recorded execution. Within one
// instant every left limit is fixed, and a right limit differs from it only
// for a node that declares there, so the SkewTracker evaluates each clock
// once per instant (from each side) into a value vector and compares pairs
// over that vector. The trackers subscribe to declarations through the
// engine's ClockObserver extension, process the (statically known) rate
// breakpoints lazily in time order, and close out the final interval at each
// horizon notification.
//
// Same-time subtleties are handled to match the compiled piecewise clocks:
// several declarations by one node at the same instant collapse to the last
// one (intermediate values never exist in the compiled clock, so they are
// not counted here either), and right-limit evaluations are deferred until
// time advances so that all nodes' same-instant declarations are seen
// together.
package core

import (
	"fmt"

	"gcs/internal/clock"
	"gcs/internal/fixed"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// rateBreak is one merged hardware-schedule breakpoint: the set of nodes
// whose rate changes at this real time.
type rateBreak struct {
	at    rat.Rat
	nodes []int
}

// mergedBreaks collects every schedule's interior rate breakpoints, sorted
// by time, grouped by equal times.
func mergedBreaks(scheds []*clock.Schedule) []rateBreak {
	var out []rateBreak
	for i, s := range scheds {
		for _, seg := range s.Rates()[1:] {
			out = append(out, rateBreak{at: seg.At, nodes: []int{i}})
		}
	}
	// Insertion-style sort + merge: schedules are small; exact comparison.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].at.Less(out[j-1].at); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	merged := out[:0]
	for _, b := range out {
		if n := len(merged); n > 0 && merged[n-1].at.Equal(b.at) {
			merged[n-1].nodes = append(merged[n-1].nodes, b.nodes...)
			continue
		}
		merged = append(merged, b)
	}
	return merged
}

// checkSchedules rejects a nil schedule with the engine's wording.
func checkSchedules(scheds []*clock.Schedule) error {
	for i, s := range scheds {
		if s == nil {
			return fmt.Errorf("core: nil schedule for node %d", i)
		}
	}
	return nil
}

// SkewTracker is an engine observer maintaining the running global skew,
// local (distance-1) skew, and per-pair worst skew of a streaming run. State
// is O(nodes²) and independent of event count. Attach it with
// Engine.Observe before the first step; read results any time — they are
// exact through the last horizon notification (or explicit Flush).
type SkewTracker struct {
	net    *network.Network
	scheds []*clock.Schedule
	n      int

	cur  []trace.Decl // current declaration per node
	left []trace.Decl // declaration in effect just before cur.Real

	breaks    []rateBreak
	nextBreak int

	pending rat.Rat // time of the last processed notification
	dirty   []int   // nodes whose post-state at pending awaits right-limit eval
	isDirty []bool

	pairSkew []rat.Rat // upper-triangle running max |L_i − L_j|
	pairAt   []rat.Rat // time attaining it
	pairSet  []bool

	// The global and local maxima are the running maxima of one pair each
	// (i*n + j, or -1 before any positive skew): a pair overtakes them
	// exactly when its own maximum rises above theirs, so the witness is
	// that pair's value and instant.
	gIdx, lIdx int

	// onPair, when set, fires whenever a pair's running maximum increases.
	// GradientTracker uses it for first-violation detection.
	onPair func(i, j int, val, at rat.Rat)

	// Per-instant value vectors: each node's logical value at valAt, from
	// the left (lvals, under the declaration in effect just before valAt)
	// and from the right (rvals, under the current declaration), each
	// computed at most once per instant. An entry is live while its stamp
	// equals valEpoch; moving to another instant bumps the epoch.
	lvals, rvals []nodeVal
	valAt        rat.Rat
	valLive      bool
	valEpoch     uint64
	valT         int64 // valAt on the tick grid, when valTOK
	valTOK       bool

	// Fixed-point lane (see online_fixed.go): scale > 0 after AdoptFixedLane
	// mirrors declarations and pair maxima in int64 ticks so the pair sweep
	// runs on integer arithmetic, value-by-value falling back to rat.
	scale      int64
	fscheds    []*clock.FixedSchedule
	curT       []declTicks
	leftT      []declTicks
	pairSkewT  []int64
	pairTickOK []bool // pairSkewT holds the pair's maximum; pairSkew is stale

	err error
}

// nodeVal is one node's logical value at the tracker's current instant: in
// ticks when it lies on the grid (tOK), and as a rational only once some
// pair needs the rat lane (rOK).
type nodeVal struct {
	stamp uint64
	t     int64
	tOK   bool
	r     rat.Rat
	rOK   bool
}

// NewSkewTracker returns a tracker for a run over net with the given
// hardware schedules (one per node).
func NewSkewTracker(net *network.Network, scheds []*clock.Schedule) (*SkewTracker, error) {
	if net == nil {
		return nil, fmt.Errorf("core: nil network")
	}
	n := net.N()
	if len(scheds) != n {
		return nil, fmt.Errorf("core: %d schedules for %d nodes", len(scheds), n)
	}
	if err := checkSchedules(scheds); err != nil {
		return nil, err
	}
	st := &SkewTracker{
		net:      net,
		scheds:   scheds,
		n:        n,
		cur:      make([]trace.Decl, n),
		left:     make([]trace.Decl, n),
		isDirty:  make([]bool, n),
		breaks:   mergedBreaks(scheds),
		pairSkew: make([]rat.Rat, n*n),
		pairAt:   make([]rat.Rat, n*n),
		pairSet:  make([]bool, n*n),
		gIdx:     -1,
		lIdx:     -1,
	}
	one := rat.FromInt(1)
	for i := 0; i < n; i++ {
		// The implicit starting declaration: L = H.
		st.cur[i] = trace.Decl{Node: i, Mult: one}
		st.left[i] = st.cur[i]
	}
	return st, nil
}

// OnAction implements the engine Observer interface (no-op: skew depends
// only on declarations, rate breaks, and the horizon).
func (st *SkewTracker) OnAction(trace.Action) {}

// OnSend implements the engine Observer interface (no-op).
func (st *SkewTracker) OnSend(trace.MsgRecord) {}

// OnDeliver implements the engine Observer interface (no-op).
func (st *SkewTracker) OnDeliver(trace.MsgRecord) {}

// logicalAt evaluates node i's logical clock at real time t under
// declaration d.
func (st *SkewTracker) logicalAt(d trace.Decl, i int, t rat.Rat) rat.Rat {
	return d.Value.Add(d.Mult.Mul(st.scheds[i].HW(t).Sub(d.HW0)))
}

// declBefore returns node k's declaration in effect just before time t
// (== pending).
func (st *SkewTracker) declBefore(k int, t rat.Rat) trace.Decl {
	if st.cur[k].Real.Equal(t) {
		return st.left[k]
	}
	return st.cur[k]
}

// instant points the value vectors at time t, emptying them when t is a
// new instant.
func (st *SkewTracker) instant(t rat.Rat) {
	if st.valLive && st.valAt.Equal(t) {
		return
	}
	if st.lvals == nil {
		st.lvals = make([]nodeVal, st.n)
		st.rvals = make([]nodeVal, st.n)
	}
	st.valLive = true
	st.valAt = t
	st.valEpoch++
	st.valT, st.valTOK = 0, false
	if st.scale > 0 {
		st.valT, st.valTOK = fixed.FromRat(t, st.scale)
	}
}

// value returns node j's entry in vals (lvals or rvals, as right says),
// evaluating its clock on the instant's first use only.
func (st *SkewTracker) value(vals []nodeVal, j int, right bool) *nodeVal {
	v := &vals[j]
	if v.stamp != st.valEpoch {
		st.fill(v, j, right)
	}
	return v
}

// fill evaluates node j's logical value at the current instant into v.
func (st *SkewTracker) fill(v *nodeVal, j int, right bool) {
	declared := st.cur[j].Real.Equal(st.valAt)
	if right && !declared {
		// No declaration at this instant: both limits agree. The rational,
		// if needed, is rebuilt under cur[j], the same declaration.
		l := st.value(st.lvals, j, false)
		v.stamp, v.t, v.tOK, v.rOK = l.stamp, l.t, l.tOK, false
		return
	}
	v.stamp, v.tOK, v.rOK = st.valEpoch, false, false
	if st.valTOK {
		dt := &st.curT[j]
		if !right && declared {
			dt = &st.leftT[j]
		}
		v.t, v.tOK = st.logicalAtT(dt, j, st.valT)
	}
}

// ratValue returns v, node j's value at the current instant, as a rational.
func (st *SkewTracker) ratValue(v *nodeVal, j int, right bool) rat.Rat {
	if !v.rOK {
		d := st.cur[j]
		if !right {
			d = st.declBefore(j, st.valAt)
		}
		v.r, v.rOK = st.logicalAt(d, j, st.valAt), true
	}
	return v.r
}

// sweep is the tracker's one pair loop: it folds |L_k(t) − L_j(t)| into the
// running maxima for every j ≥ from, j ≠ k, in increasing j — the visiting
// order that decides the witnesses. right selects the values under the
// current declarations over the left limits. Pairs whose values both lie on
// the tick grid compare in ticks; the rest take the rat lane.
func (st *SkewTracker) sweep(k, from int, t rat.Rat, right bool) {
	st.instant(t)
	vals := st.lvals
	if right {
		vals = st.rvals
	}
	vk := st.value(vals, k, right)
	for j := from; j < st.n; j++ {
		if j == k {
			continue
		}
		vj := st.value(vals, j, right)
		if vk.tOK && vj.tOK {
			if d, ok := fixed.Sub(vk.t, vj.t); ok {
				if d < 0 {
					d = -d
				}
				st.updatePairT(k, j, d, t)
				continue
			}
		}
		lk := st.ratValue(vk, k, right)
		st.updatePair(k, j, lk.Sub(st.ratValue(vj, j, right)).Abs(), t)
	}
}

// pairMax returns pair idx's running maximum, building the rational from
// ticks when the tick mirror holds it.
func (st *SkewTracker) pairMax(idx int) rat.Rat {
	if st.inTicks(idx) {
		return fixed.ToRat(st.pairSkewT[idx], st.scale)
	}
	return st.pairSkew[idx]
}

// exceeds reports whether pair idx's running maximum is greater than pair
// ref's, or than zero when ref < 0.
func (st *SkewTracker) exceeds(idx, ref int) bool {
	switch {
	case ref < 0 && st.inTicks(idx):
		return st.pairSkewT[idx] > 0
	case ref < 0:
		return st.pairSkew[idx].Sign() > 0
	case st.inTicks(idx) && st.inTicks(ref):
		return st.pairSkewT[idx] > st.pairSkewT[ref]
	}
	return st.pairMax(idx).Greater(st.pairMax(ref))
}

// raised records that pair idx = (i, j) reached a new running maximum at
// time at, and lets it overtake the global and local maxima.
func (st *SkewTracker) raised(idx, i, j int, at rat.Rat) {
	st.pairAt[idx] = at
	if st.exceeds(idx, st.gIdx) {
		st.gIdx = idx
	}
	if st.exceeds(idx, st.lIdx) && st.net.Dist(i, j).Equal(rat.FromInt(1)) {
		st.lIdx = idx
	}
}

// updatePair folds one pair evaluation into the running maxima through the
// rat lane.
func (st *SkewTracker) updatePair(i, j int, val, at rat.Rat) {
	if j < i {
		i, j = j, i
	}
	idx := i*st.n + j
	if st.pairSet[idx] && !val.Greater(st.pairMax(idx)) {
		return
	}
	st.pairSet[idx] = true
	st.pairSkew[idx] = val
	if st.pairTickOK != nil {
		st.pairTickOK[idx] = false
	}
	if st.onPair != nil {
		st.onPair(i, j, val, at)
	}
	st.raised(idx, i, j, at)
}

// advance moves the tracker's clock from pending to t > pending: it flushes
// deferred right-limit evaluations at pending, then processes every
// hardware rate breakpoint in (pending, t].
func (st *SkewTracker) advance(t rat.Rat) {
	for _, k := range st.dirty {
		st.isDirty[k] = false
		st.sweep(k, 0, st.pending, true)
	}
	st.dirty = st.dirty[:0]
	for st.nextBreak < len(st.breaks) && st.breaks[st.nextBreak].at.LessEq(t) {
		br := st.breaks[st.nextBreak]
		st.nextBreak++
		if !br.at.Greater(st.pending) {
			continue
		}
		for _, k := range br.nodes {
			// No declaration has landed at br.at yet: the current
			// declarations are the left limits there.
			st.sweep(k, 0, br.at, false)
			// A declaration may still land at exactly this time; re-check the
			// post-state once time moves past it.
			if br.at.Equal(t) && !st.isDirty[k] {
				st.isDirty[k] = true
				st.dirty = append(st.dirty, k)
			}
		}
	}
	st.pending = t
}

// OnDeclare implements the engine ClockObserver interface: it evaluates the
// affected pairs at the declaration instant from the left, and defers the
// right-limit evaluation until time advances (so that several same-instant
// declarations are seen together, exactly like the compiled clocks).
func (st *SkewTracker) OnDeclare(d trace.Decl) {
	if st.err != nil {
		return
	}
	t := d.Real
	if t.Less(st.pending) {
		st.err = fmt.Errorf("core: declaration at %s behind tracker time %s (observer attached mid-run or flushed ahead?)", t, st.pending)
		return
	}
	if t.Greater(st.pending) {
		st.advance(t)
	}
	i := d.Node
	st.sweep(i, 0, t, false)
	if st.cur[i].Real.Less(t) {
		st.left[i] = st.cur[i]
		if st.scale > 0 {
			st.leftT[i] = st.curT[i]
		}
	}
	st.cur[i] = d
	if st.scale > 0 {
		st.curT[i] = st.declTicksOf(d)
	}
	st.rvals[i].stamp = 0 // its right value changed; the left one did not
	if !st.isDirty[i] {
		st.isDirty[i] = true
		st.dirty = append(st.dirty, i)
	}
}

// Flush advances the tracker through time t and evaluates every pair at t,
// closing out the interval maxima exactly. Results are exact for the window
// [0, t] afterwards. Monotone: t must not precede an earlier flush or
// declaration.
func (st *SkewTracker) Flush(t rat.Rat) {
	if st.err != nil {
		return
	}
	if t.Less(st.pending) {
		st.err = fmt.Errorf("core: flush at %s behind tracker time %s", t, st.pending)
		return
	}
	if t.Greater(st.pending) {
		st.advance(t)
	}
	// Every pair once, in Network.Pairs order.
	for i := 0; i < st.n; i++ {
		st.sweep(i, i+1, t, true)
	}
	// The all-pairs evaluation covers every deferred right-limit at t.
	for _, k := range st.dirty {
		st.isDirty[k] = false
	}
	st.dirty = st.dirty[:0]
}

// OnHorizon implements the engine HorizonObserver interface: RunUntil and
// RunFor flush the tracker at each completed horizon automatically.
func (st *SkewTracker) OnHorizon(t rat.Rat) { st.Flush(t) }

// Err reports a tracker-consistency failure (observer attached or flushed
// out of order); results are unreliable when non-nil.
func (st *SkewTracker) Err() error { return st.err }

// Time returns the time through which the tracker has processed
// notifications.
func (st *SkewTracker) Time() rat.Rat { return st.pending }

// Global returns the running global skew: the worst |L_i − L_j| over all
// pairs and all processed times, with one witness pair and time.
func (st *SkewTracker) Global() PairSkew {
	if st.gIdx < 0 {
		return PairSkew{}
	}
	return st.Pair(st.gIdx/st.n, st.gIdx%st.n)
}

// Local returns the running local skew: the worst |L_i − L_j| over
// distance-1 pairs.
func (st *SkewTracker) Local() PairSkew {
	if st.lIdx < 0 {
		return PairSkew{}
	}
	p := st.Pair(st.lIdx/st.n, st.lIdx%st.n)
	p.Dist = rat.FromInt(1)
	return p
}

// Pair returns the running worst skew for one pair.
func (st *SkewTracker) Pair(i, j int) PairSkew {
	if j < i {
		i, j = j, i
	}
	idx := i*st.n + j
	return PairSkew{I: i, J: j, Dist: st.net.Dist(i, j), Skew: st.pairMax(idx), At: st.pairAt[idx]}
}

// Profile returns the running empirical gradient profile f̂(d) = max skew
// among pairs at each distinct distance, mirroring SkewProfile on a
// recorded execution.
func (st *SkewTracker) Profile() []ProfilePoint {
	byDist := map[string]*ProfilePoint{}
	var order []string
	st.net.Pairs(func(i, j int) {
		d := st.net.Dist(i, j)
		key := d.Key()
		p, ok := byDist[key]
		if !ok {
			p = &ProfilePoint{Dist: d}
			byDist[key] = p
			order = append(order, key)
		}
		p.Pairs++
		if v := st.pairMax(i*st.n + j); v.Greater(p.MaxSkew) {
			p.MaxSkew = v
		}
	})
	out := make([]ProfilePoint, 0, len(byDist))
	for _, key := range order {
		out = append(out, *byDist[key])
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Dist.Less(out[j-1].Dist); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// GradientTracker is a SkewTracker that additionally checks Requirement 2
// (the f-gradient property) online: it records the first moment any pair's
// skew exceeds f(d(i,j)), which lets a streaming driver stop a run on the
// first violation instead of scanning a recorded trace afterwards.
type GradientTracker struct {
	*SkewTracker
	f         GradientFunc
	allowed   []rat.Rat // f(d) per pair, upper triangle
	violation *PairSkew
}

// NewGradientTracker returns a tracker checking |L_i − L_j| <= f(d(i,j))
// online.
func NewGradientTracker(net *network.Network, scheds []*clock.Schedule, f GradientFunc) (*GradientTracker, error) {
	if f == nil {
		return nil, fmt.Errorf("core: nil gradient function")
	}
	st, err := NewSkewTracker(net, scheds)
	if err != nil {
		return nil, err
	}
	gt := &GradientTracker{SkewTracker: st, f: f, allowed: make([]rat.Rat, st.n*st.n)}
	net.Pairs(func(i, j int) {
		gt.allowed[i*st.n+j] = f(net.Dist(i, j))
	})
	st.onPair = gt.observePair
	return gt, nil
}

func (gt *GradientTracker) observePair(i, j int, val, at rat.Rat) {
	if gt.violation != nil {
		return
	}
	if val.Greater(gt.allowed[i*gt.n+j]) {
		v := PairSkew{I: i, J: j, Dist: gt.net.Dist(i, j), Skew: val, At: at, Allowed: gt.allowed[i*gt.n+j]}
		gt.violation = &v
	}
}

// Violated reports whether some pair has exceeded its allowed skew.
func (gt *GradientTracker) Violated() bool { return gt.violation != nil }

// Violation returns the first recorded violation.
func (gt *GradientTracker) Violation() (PairSkew, bool) {
	if gt.violation == nil {
		return PairSkew{}, false
	}
	return *gt.violation, true
}

// Report summarizes the check exactly like CheckGradient on a recorded
// execution: OK, the pair with the largest skew/allowed ratio, and the
// number of pairs examined. Call after a flush (or horizon) for results
// exact through that time.
func (gt *GradientTracker) Report() GradientReport {
	rep := GradientReport{OK: true}
	var worstRatio float64
	gt.net.Pairs(func(i, j int) {
		rep.Checked++
		idx := i*gt.n + j
		allowed := gt.allowed[idx]
		val := gt.pairMax(idx)
		ratio := val.Float64() / allowed.Float64()
		if val.Greater(allowed) {
			rep.OK = false
		}
		if ratio > worstRatio {
			worstRatio = ratio
			rep.Worst = PairSkew{I: i, J: j, Dist: gt.net.Dist(i, j), Skew: val, At: gt.pairAt[idx], Allowed: allowed}
		}
	})
	return rep
}

// ValidityTracker checks Requirement 1 (validity) online: every logical
// clock must advance at effective rate >= 1/2 and never jump down. It is the
// streaming counterpart of CheckValidity, reporting the first violation.
type ValidityTracker struct {
	scheds  []*clock.Schedule
	cur     []trace.Decl
	leftVal []rat.Rat // left-limit logical value at cur.Real
	err     error
}

// NewValidityTracker returns a tracker for nodes with the given hardware
// schedules. A nil schedule is recorded as the tracker's error, which Err
// reports; the tracker then checks nothing.
func NewValidityTracker(scheds []*clock.Schedule) *ValidityTracker {
	n := len(scheds)
	vt := &ValidityTracker{
		scheds:  scheds,
		cur:     make([]trace.Decl, n),
		leftVal: make([]rat.Rat, n),
		err:     checkSchedules(scheds),
	}
	one := rat.FromInt(1)
	for i := range vt.cur {
		vt.cur[i] = trace.Decl{Node: i, Mult: one}
	}
	return vt
}

// OnAction implements the engine Observer interface (no-op).
func (vt *ValidityTracker) OnAction(trace.Action) {}

// OnSend implements the engine Observer interface (no-op).
func (vt *ValidityTracker) OnSend(trace.MsgRecord) {}

// OnDeliver implements the engine Observer interface (no-op).
func (vt *ValidityTracker) OnDeliver(trace.MsgRecord) {}

// minRateIn returns the minimum schedule rate in effect anywhere in the
// half-open window [from, to) — exactly the rates that multiply a
// declaration closed out at `to` in the compiled clock.
func minRateIn(s *clock.Schedule, from, to rat.Rat) rat.Rat {
	rates := s.Rates()
	var mn rat.Rat
	first := true
	for i, seg := range rates {
		if seg.At.GreaterEq(to) {
			break
		}
		if i+1 < len(rates) && rates[i+1].At.LessEq(from) {
			continue
		}
		if first || seg.Rate.Less(mn) {
			mn = seg.Rate
			first = false
		}
	}
	return mn
}

// closeOut verifies node i's current declaration over [cur.Real, to): the
// deferred jump at cur.Real and the effective rate across every hardware
// rate segment the declaration spans. closed selects the closed window
// [cur.Real, to], matching the final-horizon semantics of the post-hoc
// checker (which includes the rate in effect at the end of the window).
func (vt *ValidityTracker) closeOut(i int, to rat.Rat, closed bool) {
	if vt.err != nil {
		return
	}
	cur := vt.cur[i]
	// Deferred jump check at cur.Real: the final same-instant declaration's
	// value against the left limit. The implicit starting declaration has
	// Value == leftVal == 0, so it never trips.
	if jump := cur.Value.Sub(vt.leftVal[i]); jump.Sign() < 0 {
		vt.err = fmt.Errorf("core: node %d logical clock jumps down by %s", i, jump.Neg())
		return
	}
	var mn rat.Rat
	switch {
	case closed:
		mn = vt.scheds[i].MinRate(cur.Real, to)
	case to.Greater(cur.Real):
		mn = minRateIn(vt.scheds[i], cur.Real, to)
	default:
		return
	}
	if eff := cur.Mult.Mul(mn); eff.Less(ValidityRate) {
		vt.err = fmt.Errorf("core: node %d logical rate %s < 1/2 violates validity", i, eff)
	}
}

// OnDeclare implements the engine ClockObserver interface.
func (vt *ValidityTracker) OnDeclare(d trace.Decl) {
	if vt.err != nil {
		return
	}
	i := d.Node
	if d.Real.Greater(vt.cur[i].Real) {
		vt.closeOut(i, d.Real, false)
		cur := vt.cur[i]
		vt.leftVal[i] = cur.Value.Add(cur.Mult.Mul(vt.scheds[i].HW(d.Real).Sub(cur.HW0)))
	}
	// Same-instant re-declaration replaces the current one; the left limit
	// is unchanged and intermediate values never exist in the compiled
	// clock.
	vt.cur[i] = d
}

// Flush verifies every node's open declaration through time t.
func (vt *ValidityTracker) Flush(t rat.Rat) {
	for i := range vt.cur {
		vt.closeOut(i, t, true)
	}
}

// OnHorizon implements the engine HorizonObserver interface.
func (vt *ValidityTracker) OnHorizon(t rat.Rat) { vt.Flush(t) }

// Err returns the first validity violation, or nil — the online equivalent
// of CheckValidity on the recorded execution.
func (vt *ValidityTracker) Err() error { return vt.err }
