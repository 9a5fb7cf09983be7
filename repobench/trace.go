package main

import (
	"fmt"
	_ "unsafe" // for go:linkname

	"gcs/internal/engine"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// nanotime is the runtime's monotonic clock: one vDSO read instead of the
// two (wall + monotonic) that time.Now pays, which halves the cost of every
// span the traced run records.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// layer names one module a span is charged to.
type layer int

const (
	lBench          layer = iota // the harness: the job span itself
	lEngine                      // engine.New, RunUntil: queue, dispatch, forks, swaps, lane
	lCoreSkew                    // SkewTracker callbacks
	lCoreValidity                // ValidityTracker callbacks
	lAlgorithms                  // node Init / OnTimer / OnMessage
	lAdversary                   // engine adversaries (hash, midpoint) deciding delays
	lFault                       // scenario.FaultAdversary: drop decisions and pass-through
	lAdaptive                    // lowerbound.AdaptiveScheduler: delays and feedback
	lSearchEvaluate              // Campaign.EvaluateRange
	lSearchAbsorb                // Campaign.Absorb: merge, planning, identity, dedupe
	lSearchOther                 // NewCampaign, Campaign.Result
	lScenarioSearch              // a matrix cell's search phase
	lScenarioAdapt               // a matrix cell's adaptive phase
	nLayers
)

var layerNames = [nLayers]string{
	"bench", "engine", "core.skew", "core.validity", "algorithms",
	"engine.adversary", "scenario.fault", "lowerbound.adaptive",
	"search.evaluate", "search.absorb", "search.other",
	"scenario.search", "scenario.adaptive",
}

func (l layer) String() string { return layerNames[l] }

type frame struct {
	l     layer
	start int64
	child int64
}

// tracer accumulates spans at the module boundaries the benchmark crosses.
// A span's self time is its duration minus the time its child spans cover;
// inclusive time is counted once per outermost span of a layer, so a layer
// re-entered through a nested span is not counted twice. Evaluation is
// single-threaded (Workers: 1), so spans nest strictly.
type tracer struct {
	stack []frame
	depth [nLayers]int
	self  [nLayers]int64
	incl  [nLayers]int64
	calls [nLayers]int64
	// declares and declareNs count tracker OnDeclare calls and their self
	// time, per tracker layer.
	declares  [nLayers]int64
	declareNs [nLayers]int64

	// samples collects (node, hardware reading) pairs seen by protocol
	// callbacks, replayed through the clock layer after the run; nil when
	// not sampling.
	samples  []hwSample
	sampleAt int // cap on len(samples)
}

type hwSample struct {
	node int
	hw   rat.Rat
}

func (t *tracer) begin(l layer) {
	t.depth[l]++
	t.stack = append(t.stack, frame{l: l, start: nanotime()})
}

// end closes the innermost span and returns its self time.
func (t *tracer) end() int64 {
	now := nanotime()
	top := len(t.stack) - 1
	f := t.stack[top]
	t.stack = t.stack[:top]
	d := now - f.start
	self := d - f.child
	t.self[f.l] += self
	t.calls[f.l]++
	t.depth[f.l]--
	if t.depth[f.l] == 0 {
		t.incl[f.l] += d
	}
	if top > 0 {
		t.stack[top-1].child += d
	}
	return self
}

// add folds another tracer's totals into t.
func (t *tracer) add(o *tracer) {
	for l := range t.self {
		t.self[l] += o.self[l]
		t.incl[l] += o.incl[l]
		t.calls[l] += o.calls[l]
		t.declares[l] += o.declares[l]
		t.declareNs[l] += o.declareNs[l]
	}
}

// ---- protocol wrappers ----

// tracedProto times every node callback as the algorithms layer. Fork
// clones node state through CloneState (or CloneStates when the inner
// protocol implements engine.BulkCloneProtocol), unwrapping first so the
// inner protocol only ever sees its own nodes.
type tracedProto struct {
	inner engine.Protocol
	t     *tracer
}

// tracedBulkProto is tracedProto for protocols that slab-clone.
type tracedBulkProto struct {
	*tracedProto
	bulk engine.BulkCloneProtocol
}

func wrapProtocol(p engine.Protocol, t *tracer) engine.Protocol {
	tp := &tracedProto{inner: p, t: t}
	if b, ok := p.(engine.BulkCloneProtocol); ok {
		return tracedBulkProto{tracedProto: tp, bulk: b}
	}
	return tp
}

func (p *tracedProto) Name() string { return p.inner.Name() }

func (p *tracedProto) NewNode(id int) engine.Node {
	return &tracedNode{inner: p.inner.NewNode(id), t: p.t}
}

func (p *tracedProto) CloneState(n engine.Node) engine.Node {
	tn := n.(*tracedNode)
	c := p.inner.CloneState(tn.inner)
	if c == nil {
		return nil
	}
	return &tracedNode{inner: c, t: p.t}
}

func (p tracedBulkProto) CloneStates(nodes []engine.Node) []engine.Node {
	inner := make([]engine.Node, len(nodes))
	for i, n := range nodes {
		inner[i] = n.(*tracedNode).inner
	}
	clones := p.bulk.CloneStates(inner)
	slab := make([]tracedNode, len(clones))
	out := make([]engine.Node, len(clones))
	for i, c := range clones {
		if c == nil {
			continue // the engine reports the nil clone
		}
		slab[i] = tracedNode{inner: c, t: p.t}
		out[i] = &slab[i]
	}
	return out
}

type tracedNode struct {
	inner engine.Node
	t     *tracer
}

func (n *tracedNode) sample(rt *engine.Runtime) {
	if t := n.t; t.samples != nil && len(t.samples) < t.sampleAt {
		t.samples = append(t.samples, hwSample{node: rt.ID(), hw: rt.HW()})
	}
}

func (n *tracedNode) Init(rt *engine.Runtime) {
	n.sample(rt)
	n.t.begin(lAlgorithms)
	n.inner.Init(rt)
	n.t.end()
}

func (n *tracedNode) OnTimer(rt *engine.Runtime, id int) {
	n.sample(rt)
	n.t.begin(lAlgorithms)
	n.inner.OnTimer(rt, id)
	n.t.end()
}

func (n *tracedNode) OnMessage(rt *engine.Runtime, from int, msg engine.Message) {
	n.sample(rt)
	n.t.begin(lAlgorithms)
	n.inner.OnMessage(rt, from, msg)
	n.t.end()
}

// ---- observer wrappers ----

// trackerObserver is what both online trackers implement.
type trackerObserver interface {
	engine.Observer
	engine.ClockObserver
	engine.HorizonObserver
}

// tracedTracker times a tracker's declaration and horizon callbacks in its
// layer, and forwards AdoptFixedLane so a tracker that mirrors its state in
// ticks keeps doing so. OnAction, OnSend and OnDeliver are forwarded
// untimed: both trackers implement them as no-ops, and timing them would
// charge the clock reads themselves to core.
type tracedTracker struct {
	inner trackerObserver
	l     layer
	t     *tracer
}

var (
	_ engine.ClockObserver    = (*tracedTracker)(nil)
	_ engine.HorizonObserver  = (*tracedTracker)(nil)
	_ engine.FixedLaneAdopter = (*tracedTracker)(nil)
)

func (w *tracedTracker) OnAction(a trace.Action)       { w.inner.OnAction(a) }
func (w *tracedTracker) OnSend(rec trace.MsgRecord)    { w.inner.OnSend(rec) }
func (w *tracedTracker) OnDeliver(rec trace.MsgRecord) { w.inner.OnDeliver(rec) }

func (w *tracedTracker) OnDeclare(d trace.Decl) {
	w.t.begin(w.l)
	w.inner.OnDeclare(d)
	w.t.declareNs[w.l] += w.t.end()
	w.t.declares[w.l]++
}

func (w *tracedTracker) OnHorizon(at rat.Rat) {
	w.t.begin(w.l)
	w.inner.OnHorizon(at)
	w.t.end()
}

func (w *tracedTracker) AdoptFixedLane(scale int64) {
	if a, ok := w.inner.(engine.FixedLaneAdopter); ok {
		a.AdoptFixedLane(scale)
	}
}

// ---- adversary wrappers ----

// tracedAdv times an adversary's decisions in its layer. Which optional
// interfaces the engine sees must not change, so the wrapper is built in
// one of three shapes:
//
//   - transparent (Unwrap): the inner chain neither drops nor observes the
//     run, or does so below a further wrapper; the engine walks through the
//     wrapper exactly as it walks through the inner chain.
//   - dropping (Unwrap + Drop): the inner chain has a fault layer; the
//     engine's drop hook stops at the wrapper, which times the decision and
//     forwards it to the inner chain's drop layer.
//   - observing (Observer, Drop when the chain drops, no Unwrap): the inner
//     adversary is itself the feedback target; the wrapper becomes the
//     target and times the feedback.
//
// DelayChecked, CloneAdversary and DelayDenom are always implemented,
// reproducing what the engine would do with the inner value: the plain
// Delay when it has no checked path, CloneAdversaryState's verdict, and a
// zero hint (which the engine treats as no hint).
type tracedAdv struct {
	inner engine.Adversary
	l     layer
	t     *tracer
	drop  engine.DropAdversary // the inner chain's drop layer, or nil
}

type tracedDropAdv struct{ *tracedAdv }

type tracedObsAdv struct {
	*tracedAdv
	obs engine.Observer
}

type tracedObsDropAdv struct{ tracedObsAdv }

var (
	_ engine.CheckedAdversary  = (*tracedAdv)(nil)
	_ engine.StatefulAdversary = (*tracedAdv)(nil)
	_ engine.DenomHinter       = (*tracedAdv)(nil)
	_ engine.AdversaryWrapper  = transparentAdv{}
	_ engine.AdversaryWrapper  = tracedDropAdv{}
	_ engine.DropAdversary     = tracedDropAdv{}
	_ engine.Observer          = tracedObsAdv{}
	_ engine.DropAdversary     = tracedObsDropAdv{}
)

type transparentAdv struct{ *tracedAdv }

func (a transparentAdv) Unwrap() engine.Adversary { return a.inner }
func (a tracedDropAdv) Unwrap() engine.Adversary  { return a.inner }

// wrapAdversary wraps adv so its decisions are charged to layer l. It
// refuses shapes it cannot reproduce exactly rather than change what the
// engine sees.
func wrapAdversary(adv engine.Adversary, l layer, t *tracer) (engine.Adversary, error) {
	base := &tracedAdv{inner: adv, l: l, t: t, drop: dropLayer(adv)}
	if _, isWrapper := adv.(engine.AdversaryWrapper); !isWrapper {
		_, o := adv.(engine.Observer)
		_, c := adv.(engine.ClockObserver)
		_, h := adv.(engine.HorizonObserver)
		switch {
		case c || h:
			return nil, fmt.Errorf("repobench: cannot trace %T: clock or horizon feedback is not forwarded", adv)
		case o && base.drop != nil:
			return tracedObsDropAdv{tracedObsAdv{tracedAdv: base, obs: adv.(engine.Observer)}}, nil
		case o:
			return tracedObsAdv{tracedAdv: base, obs: adv.(engine.Observer)}, nil
		}
	}
	if base.drop != nil {
		return tracedDropAdv{base}, nil
	}
	return transparentAdv{base}, nil
}

// rewrap gives a clone of the inner adversary the wrapper's shape.
func (a *tracedAdv) rewrap(inner engine.Adversary) engine.Adversary {
	w, err := wrapAdversary(inner, a.l, a.t)
	if err != nil {
		panic(err) // the clone has its original's type, which wrapped fine
	}
	return w
}

// dropLayer mirrors the engine's resolution of a chain's fault layer: the
// outermost DropAdversary reached through AdversaryWrapper.Unwrap.
func dropLayer(adv engine.Adversary) engine.DropAdversary {
	for adv != nil {
		if d, ok := adv.(engine.DropAdversary); ok {
			return d
		}
		w, ok := adv.(engine.AdversaryWrapper)
		if !ok {
			return nil
		}
		adv = w.Unwrap()
	}
	return nil
}

func (a *tracedAdv) Delay(from, to int, seq uint64, sendReal, bound rat.Rat) rat.Rat {
	a.t.begin(a.l)
	d := a.inner.Delay(from, to, seq, sendReal, bound)
	a.t.end()
	return d
}

func (a *tracedAdv) DelayChecked(from, to int, seq uint64, sendReal, bound rat.Rat) (rat.Rat, error) {
	a.t.begin(a.l)
	var d rat.Rat
	var err error
	if ca, ok := a.inner.(engine.CheckedAdversary); ok {
		d, err = ca.DelayChecked(from, to, seq, sendReal, bound)
	} else {
		d = a.inner.Delay(from, to, seq, sendReal, bound)
	}
	a.t.end()
	return d, err
}

func (a *tracedAdv) CloneAdversary() engine.Adversary {
	c, ok := engine.CloneAdversaryState(a.inner)
	if !ok {
		return nil
	}
	return a.rewrap(c)
}

func (a *tracedAdv) DelayDenom() int64 {
	if h, ok := a.inner.(engine.DenomHinter); ok {
		return h.DelayDenom()
	}
	return 0
}

func (a *tracedAdv) timedDrop(from, to int, seq uint64, sendReal rat.Rat) bool {
	a.t.begin(a.l)
	dropped := a.drop.Drop(from, to, seq, sendReal)
	a.t.end()
	return dropped
}

func (a tracedDropAdv) Drop(from, to int, seq uint64, sendReal rat.Rat) bool {
	return a.timedDrop(from, to, seq, sendReal)
}

func (a tracedObsDropAdv) Drop(from, to int, seq uint64, sendReal rat.Rat) bool {
	return a.timedDrop(from, to, seq, sendReal)
}

func (a tracedObsAdv) OnAction(act trace.Action) {
	a.t.begin(a.l)
	a.obs.OnAction(act)
	a.t.end()
}

func (a tracedObsAdv) OnSend(rec trace.MsgRecord) {
	a.t.begin(a.l)
	a.obs.OnSend(rec)
	a.t.end()
}

func (a tracedObsAdv) OnDeliver(rec trace.MsgRecord) {
	a.t.begin(a.l)
	a.obs.OnDeliver(rec)
	a.t.end()
}
