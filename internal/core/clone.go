// Clone support for the online trackers: every tracker can be duplicated
// mid-run, producing an independent tracker with identical state. Cloning is
// the observer-side half of Engine.Fork — fork the engine at a shared prefix,
// clone the trackers that watched the prefix, attach the clones to the fork,
// and each branch's metrics continue exactly as if the whole branch had been
// observed from time zero.

package core

import (
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// Clone returns an independent tracker with identical state: same running
// maxima (including which of them are still held in ticks), same pending
// time, same deferred right-limit evaluations. The immutable environment
// (network, schedules, merged rate breakpoints) is shared; everything
// mutable is deep-copied, except the per-instant value vectors: the clone
// starts with empty ones and re-evaluates them from its own declarations,
// which also holds for a clone taken between two same-instant declarations.
// The onPair hook is deliberately not carried over — it belongs to the
// wrapper that installed it (GradientTracker.Clone rewires its own).
func (st *SkewTracker) Clone() *SkewTracker {
	return &SkewTracker{
		net:       st.net,
		scheds:    st.scheds,
		n:         st.n,
		cur:       append([]trace.Decl(nil), st.cur...),
		left:      append([]trace.Decl(nil), st.left...),
		breaks:    st.breaks,
		nextBreak: st.nextBreak,
		pending:   st.pending,
		dirty:     append([]int(nil), st.dirty...),
		isDirty:   append([]bool(nil), st.isDirty...),
		pairSkew:  append([]rat.Rat(nil), st.pairSkew...),
		pairAt:    append([]rat.Rat(nil), st.pairAt...),
		pairSet:   append([]bool(nil), st.pairSet...),
		gIdx:      st.gIdx,
		lIdx:      st.lIdx,
		err:       st.err,

		// Fixed lane: compiled schedule mirrors are immutable and shared;
		// tick mirrors deep-copy (all nil when the lane was never adopted).
		scale:      st.scale,
		fscheds:    st.fscheds,
		curT:       append([]declTicks(nil), st.curT...),
		leftT:      append([]declTicks(nil), st.leftT...),
		pairSkewT:  append([]int64(nil), st.pairSkewT...),
		pairTickOK: append([]bool(nil), st.pairTickOK...),
	}
}

// Clone returns an independent gradient tracker: the embedded SkewTracker is
// cloned and the first-violation hook is rewired onto the clone.
func (gt *GradientTracker) Clone() *GradientTracker {
	c := &GradientTracker{
		SkewTracker: gt.SkewTracker.Clone(),
		f:           gt.f,
		allowed:     gt.allowed, // immutable after construction
	}
	if gt.violation != nil {
		v := *gt.violation
		c.violation = &v
	}
	c.SkewTracker.onPair = c.observePair
	return c
}

// Clone returns an independent validity tracker with identical state.
func (vt *ValidityTracker) Clone() *ValidityTracker {
	return &ValidityTracker{
		scheds:  vt.scheds,
		cur:     append([]trace.Decl(nil), vt.cur...),
		leftVal: append([]rat.Rat(nil), vt.leftVal...),
		err:     vt.err,
	}
}
