// Package search hunts worst-case executions: it drives the deterministic
// engine under candidate adversaries and maximizes a skew objective read
// from the online trackers, looking for the delay and drift choices that
// force the most skew out of a protocol.
//
// Fan & Lynch's lower bounds are adversary constructions — executions whose
// drift and delay choices are tuned to force skew. The simulator replays the
// paper's two special-cased constructions exactly (internal/lowerbound); this
// package asks the complementary empirical question: how much skew can an
// automated adversary force on an arbitrary protocol and topology, and how
// close does that come to the certified bounds?
//
// The search is replay-based: a DecisionLog observer captures every
// per-message delay decision of a run as a replayable script, and candidate
// mutations edit one decision (delay snapped to {0, bound/2, bound}), one
// node's whole-run rate (flipped within ±ρ), or one node's rate over a
// window (clock.ModifyWindow surgery), with a ScriptedAdversary tail
// handling decisions beyond the script.
//
// Evaluation is prefix-cached: two candidates sharing a decision-script
// prefix share the prefix execution, exactly the structure of the Fan &
// Lynch constructions (perturb a base execution at chosen points, keep the
// prefix indistinguishable). Each round groups the beam's delay mutants by
// parent, replays the shared parent prefix once on a trunk engine, forks the
// engine (Engine.Fork + tracker Clones) at each mutant's first diverging
// decision, and evaluates only the suffix. Windowed rate mutants fork the
// same trunk at their window start; whole-run rate mutants change hardware
// schedules from time zero, so they — and injected Seeds — are evaluated
// from scratch. The fork-based evaluation is byte-identical to full
// re-simulation (asserted by tests; DisablePrefixCache switches it off).
// Candidates are evaluated concurrently by a bounded worker pool and reduced
// by deterministic argmax with ties broken on candidate index, so the result
// is byte-identical regardless of worker count or GOMAXPROCS.
//
// Search is a loop over a Campaign, the same search exposed one generation
// at a time for callers that evaluate each generation in parts.
package search

import (
	"encoding/json"
	"fmt"

	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// Decision is one captured per-message delay choice: the message identity,
// when it was sent, the adversary's chosen delay, the bound d(from,to) the
// choice was made within, and the 1-based index of the dispatched engine
// event during which the send happened. Event is what lets the prefix-cached
// evaluator position a fork exactly before the event that realizes a mutated
// decision: replay Event−1 events, fork, and the mutant's whole divergence
// plays out in the fork.
type Decision struct {
	Key      trace.MsgKey
	SendReal rat.Rat
	Delay    rat.Rat
	Bound    rat.Rat
	Event    uint64
}

// DecisionLog is an engine observer that captures every per-message delay
// decision from the MsgRecord stream, in send order, and converts the run
// into a replayable engine.Script for engine.ScriptedAdversary (sorted by
// message key, built once per log and cached). Attach it with
// Engine.Observe before the first step to capture the complete run.
type DecisionLog struct {
	net       *network.Network
	decisions []Decision
	events    uint64        // dispatched events seen so far (== Engine.Steps())
	script    engine.Script // Script's cache; nil until built or after a new decision
}

// NewDecisionLog returns a log for runs over net (needed to recover each
// decision's delay bound).
func NewDecisionLog(net *network.Network) *DecisionLog {
	return &DecisionLog{net: net}
}

// Clone returns an independent copy of the log. Attach the clone to a forked
// engine to keep capturing a branched run's decisions: the clone carries the
// shared prefix (including the event counter, so Decision.Event stays
// aligned with Engine.Steps across the fork), and the original continues
// logging its own branch untouched.
func (l *DecisionLog) Clone() *DecisionLog {
	return &DecisionLog{
		net:       l.net,
		decisions: append([]Decision(nil), l.decisions...),
		events:    l.events,
	}
}

// OnAction implements the engine Observer interface: dispatched events
// (init, timer, recv — everything but the send actions emitted from inside
// them) advance the event counter stamped onto decisions.
func (l *DecisionLog) OnAction(a trace.Action) {
	if a.Kind != trace.KindSend {
		l.events++
	}
}

// OnSend implements the engine Observer interface: every send is one delay
// decision, captured at the moment the adversary fixed it.
func (l *DecisionLog) OnSend(rec trace.MsgRecord) {
	if rec.Dropped {
		// A dropped message carries no delay decision: the fault layer
		// removed it before the adversary priced it, so there is nothing
		// to replay or mutate.
		return
	}
	l.script = nil
	l.decisions = append(l.decisions, Decision{
		Key:      rec.Key,
		SendReal: rec.SendReal,
		Delay:    rec.Delay,
		Bound:    l.net.Dist(rec.Key.From, rec.Key.To),
		Event:    l.events,
	})
}

// OnDeliver implements the engine Observer interface (no-op).
func (l *DecisionLog) OnDeliver(trace.MsgRecord) {}

// Len returns the number of captured decisions.
func (l *DecisionLog) Len() int { return len(l.decisions) }

// Decisions returns the captured decisions in send order. The caller must
// not modify the returned slice.
func (l *DecisionLog) Decisions() []Decision { return l.decisions }

// Script returns the captured run as a replayable delay script. It is built
// on first use and cached until the log captures another decision, so every
// candidate and trunk replaying one log shares one Script.
func (l *DecisionLog) Script() engine.Script {
	if l.script == nil {
		l.script = mustScript(l.decisions)
	}
	return l.script
}

// ScriptPrefix converts the first k decisions into a script; decisions
// beyond the prefix are left to a tail adversary at replay time. k is
// clamped to [0, Len()].
func (l *DecisionLog) ScriptPrefix(k int) engine.Script {
	return mustScript(l.decisions[:min(max(k, 0), len(l.decisions))])
}

// scriptOf builds the script of a run of decisions; it fails when two of
// them price the same message.
func scriptOf(decs []Decision) (engine.Script, error) {
	entries := make([]engine.ScriptEntry, len(decs))
	for i, d := range decs {
		entries[i] = engine.ScriptEntry{Key: d.Key, Delay: d.Delay}
	}
	return engine.NewScript(entries)
}

// mustScript is scriptOf on a log's decisions, whose keys are unique: a live
// log's per-pair sequence numbers never repeat, and UnmarshalJSON rejects a
// log whose keys do.
func mustScript(decs []Decision) engine.Script {
	s, err := scriptOf(decs)
	if err != nil {
		panic(err)
	}
	return s
}

// Scripted wraps the captured script in a replaying adversary with the given
// tail for decisions beyond the script.
func (l *DecisionLog) Scripted(tail engine.Adversary) engine.ScriptedAdversary {
	return engine.ScriptedAdversary{Delays: l.Script(), Fallback: tail}
}

// String returns a short summary for debugging.
func (l *DecisionLog) String() string {
	return fmt.Sprintf("decisionlog(%d decisions)", len(l.decisions))
}

// decisionWire is one captured decision in JSON form. Every field is an
// exact rational (or integer), so a round-trip reproduces the decision bit
// for bit.
type decisionWire struct {
	From     int     `json:"from"`
	To       int     `json:"to"`
	Seq      uint64  `json:"seq"`
	SendReal rat.Rat `json:"send_real"`
	Delay    rat.Rat `json:"delay"`
	Bound    rat.Rat `json:"bound"`
	Event    uint64  `json:"event"`
}

// decisionLogWire is the JSON form of a DecisionLog: the decisions in send
// order plus the event counter, everything replay and mutation need. The
// network is deliberately not serialized — each decision carries its own
// delay bound — so a decoded log replays and enumerates mutations anywhere,
// but cannot observe further engine runs (it has no network to read bounds
// from; attach a fresh NewDecisionLog for that).
type decisionLogWire struct {
	Decisions []decisionWire `json:"decisions"`
	Events    uint64         `json:"events"`
}

// MarshalJSON encodes the log as a replayable script: decisions in send
// order with their exact rational times, delays, and bounds: a stable way
// to save a found adversary for later replay.
func (l *DecisionLog) MarshalJSON() ([]byte, error) {
	w := decisionLogWire{Events: l.events, Decisions: make([]decisionWire, len(l.decisions))}
	for i, d := range l.decisions {
		w.Decisions[i] = decisionWire{
			From:     d.Key.From,
			To:       d.Key.To,
			Seq:      d.Key.Seq,
			SendReal: d.SendReal,
			Delay:    d.Delay,
			Bound:    d.Bound,
			Event:    d.Event,
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a log serialized by MarshalJSON. The decoded log
// supports Script, ScriptPrefix, Scripted, Decisions, and Clone exactly as
// the original did; it is not attached to a network, so it must not be used
// as a live engine observer (see MarshalJSON). Input no run can produce is
// rejected: a negative or self-addressed endpoint pair, a delay outside
// [0, bound], an event index below its predecessor's, or two decisions for
// one message.
func (l *DecisionLog) UnmarshalJSON(data []byte) error {
	var w decisionLogWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	decs := make([]Decision, len(w.Decisions))
	for i, d := range w.Decisions {
		switch {
		case d.From < 0 || d.To < 0:
			return fmt.Errorf("search: decision %d: negative endpoint in %d→%d", i, d.From, d.To)
		case d.From == d.To:
			return fmt.Errorf("search: decision %d: message from node %d to itself", i, d.From)
		case d.Delay.Sign() < 0 || d.Delay.Greater(d.Bound):
			return fmt.Errorf("search: decision %d (%d→%d seq %d): delay %s outside [0, %s]", i, d.From, d.To, d.Seq, d.Delay, d.Bound)
		case i > 0 && d.Event < w.Decisions[i-1].Event:
			return fmt.Errorf("search: decision %d: event %d precedes decision %d's event %d", i, d.Event, i-1, w.Decisions[i-1].Event)
		}
		decs[i] = Decision{
			Key:      trace.MsgKey{From: d.From, To: d.To, Seq: d.Seq},
			SendReal: d.SendReal,
			Delay:    d.Delay,
			Bound:    d.Bound,
			Event:    d.Event,
		}
	}
	script, err := scriptOf(decs)
	if err != nil {
		return fmt.Errorf("search: decoded decision log: %w", err)
	}
	l.net, l.decisions, l.events, l.script = nil, decs, w.Events, script
	return nil
}
