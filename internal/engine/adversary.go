package engine

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"gcs/internal/rat"
	"gcs/internal/trace"
)

// CheckedAdversary is an optional Adversary extension for adversaries whose
// delay decision can fail (for example, a script with no entry for a message
// and no fallback). When the engine's adversary implements it, the engine
// calls DelayChecked instead of Delay and fails the run with the returned
// error — a precise diagnosis instead of a generic range violation or a
// panic deep inside the event loop.
type CheckedAdversary interface {
	Adversary
	// DelayChecked returns the delay for the message, or an error when the
	// adversary defines no decision for it.
	DelayChecked(from, to int, seq uint64, sendReal rat.Rat, bound rat.Rat) (rat.Rat, error)
}

// DropAdversary is an optional Adversary extension for fault models. Before
// asking the adversary to price a delay, the engine asks the chain's drop
// layer (resolved through AdversaryWrapper.Unwrap by bindAdversary) whether
// the message is lost: a dropped message consumes its per-pair sequence
// number and is recorded in the ledger with Dropped set, but is never
// assigned a delay and never delivered. The sender's Send action is still
// emitted — a fail-silent loss is invisible to the sender, matching the
// paper's indistinguishability arguments.
//
// Drop must be a pure function of its arguments (plus immutable
// configuration): engine forks and the prefix-cached search replay message
// sends live, so a drop decision that depended on hidden mutable state
// would diverge between a trunk and its fork.
type DropAdversary interface {
	Adversary
	// Drop reports whether the message from→to with per-pair sequence seq,
	// sent at real time sendReal, is lost.
	Drop(from, to int, seq uint64, sendReal rat.Rat) bool
}

// FractionAdversary assigns every message the delay frac·bound. frac must be
// in [0, 1]. The paper's constructions use frac = 1/2 ("message delay
// between k1 and k2 is |k1−k2|/2").
type FractionAdversary struct {
	Frac rat.Rat
}

var _ Adversary = FractionAdversary{}

// Delay implements Adversary.
func (a FractionAdversary) Delay(_, _ int, _ uint64, _ rat.Rat, bound rat.Rat) rat.Rat {
	return a.Frac.Mul(bound)
}

// Midpoint returns the frac=1/2 adversary used throughout the constructions.
func Midpoint() FractionAdversary { return FractionAdversary{Frac: rat.MustFrac(1, 2)} }

// ScriptedAdversary replays exact per-message delays from a script, falling
// back to the Fallback tail adversary for messages beyond the script. The
// Add Skew re-simulation uses it to realize the remapped receive times, and
// the worst-case search (internal/search) uses it to branch a run: a
// captured decision prefix replays exactly while decisions past the script
// end are delegated to the tail.
//
// Semantics past the script end are explicit: a message with no script entry
// is delegated to Fallback, and a nil Fallback is a scripting error —
// DelayChecked reports it, the engine fails the run with it, and a direct
// Delay call panics with the same message (it has no error channel).
//
// Delays must satisfy the Script invariant (sorted, unique keys); New and
// SetAdversary fail on a script that does not.
type ScriptedAdversary struct {
	Delays   Script
	Fallback Adversary
}

var (
	_ CheckedAdversary  = ScriptedAdversary{}
	_ StatefulAdversary = ScriptedAdversary{}
	_ AdversaryWrapper  = ScriptedAdversary{}
)

// Unwrap implements AdversaryWrapper: the script is bookkeeping over the
// Fallback tail, which owns observation state and fault configuration.
func (a ScriptedAdversary) Unwrap() Adversary { return a.Fallback }

// CloneAdversary implements StatefulAdversary transparently: the script is
// never mutated during replay, so the clone shares it, while a stateful
// Fallback tail is cloned so two branches replaying the same script never
// share tail state. When the Fallback is stateful but not cloneable the
// wrapper cannot be cloned either — CloneAdversary returns nil, which
// CloneAdversaryState and Engine.Fork report as "not cloneable".
func (a ScriptedAdversary) CloneAdversary() Adversary {
	if a.Fallback == nil {
		return a
	}
	tail, ok := CloneAdversaryState(a.Fallback)
	if !ok {
		return nil
	}
	return ScriptedAdversary{Delays: a.Delays, Fallback: tail}
}

// Delay implements Adversary. It panics on a message outside the script when
// no Fallback is set; inside an Engine the CheckedAdversary path turns that
// condition into a failed run instead.
func (a ScriptedAdversary) Delay(from, to int, seq uint64, sendReal rat.Rat, bound rat.Rat) rat.Rat {
	d, err := a.DelayChecked(from, to, seq, sendReal, bound)
	if err != nil {
		panic(err)
	}
	return d
}

// DelayChecked implements CheckedAdversary: it returns the scripted delay,
// delegates to the Fallback tail for messages beyond the script, and errors
// when the script is exhausted with no tail to fall back to.
func (a ScriptedAdversary) DelayChecked(from, to int, seq uint64, sendReal rat.Rat, bound rat.Rat) (rat.Rat, error) {
	if d, ok := a.Delays.Lookup(trace.MsgKey{From: from, To: to, Seq: seq}); ok {
		return d, nil
	}
	if a.Fallback == nil {
		return rat.Rat{}, fmt.Errorf("engine: scripted adversary has no delay for message %d→%d seq %d and no Fallback tail (script exhausted?)", from, to, seq)
	}
	return a.Fallback.Delay(from, to, seq, sendReal, bound), nil
}

// FuncAdversary adapts a function to the Adversary interface. The function
// must be deterministic in its arguments.
type FuncAdversary func(from, to int, seq uint64, sendReal rat.Rat, bound rat.Rat) rat.Rat

var _ Adversary = FuncAdversary(nil)

// Delay implements Adversary.
func (f FuncAdversary) Delay(from, to int, seq uint64, sendReal rat.Rat, bound rat.Rat) rat.Rat {
	return f(from, to, seq, sendReal, bound)
}

// HashAdversary assigns pseudo-random delays frac·bound with frac drawn
// deterministically from a hash of (seed, from, to, seq) — independent of
// event processing order, so runs are reproducible. Delays are quantized to
// Denom-ths of the bound to keep rational arithmetic small.
type HashAdversary struct {
	Seed  uint64
	Denom int64 // quantization; 0 means 16
}

var _ Adversary = HashAdversary{}

// Delay implements Adversary.
func (a HashAdversary) Delay(from, to int, seq uint64, _ rat.Rat, bound rat.Rat) rat.Rat {
	denom := a.Denom
	if denom <= 0 {
		denom = 16
	}
	h := fnv.New64a()
	write := func(v uint64) {
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	write(a.Seed)
	write(uint64(from))
	write(uint64(to))
	write(seq)
	num := int64(h.Sum64() % uint64(denom+1)) // in [0, denom]
	return rat.MustFrac(num, denom).Mul(bound)
}

// String returns a debugging label.
func (a HashAdversary) String() string { return "hash-" + strconv.FormatUint(a.Seed, 10) }
