package engine

import (
	"fmt"
	"slices"
	"sort"

	"gcs/internal/rat"
	"gcs/internal/trace"
)

// ScriptEntry is one scripted delay decision: a message and its delay.
type ScriptEntry struct {
	Key   trace.MsgKey
	Delay rat.Rat
}

// Script is a per-message delay script, the one form every scripted
// execution in this module takes: lower-bound re-simulations, search seeds,
// candidates and results. Entries are sorted by (From, To, Seq) and no key
// appears twice, so Lookup is a binary search, storage is one entry per
// scripted message whatever the sequence numbers, and two scripts are equal
// exactly when their entries are.
//
// Build a Script with NewScript (or DecisionLog.Script in internal/search)
// and derive edits with With. Any number of adversaries and candidates may
// share one Script, so callers must never write an entry in place. New and
// SetAdversary reject a ScriptedAdversary whose hand-built script is out of
// order.
type Script []ScriptEntry

// keyLess orders message keys by (From, To, Seq).
func keyLess(a, b trace.MsgKey) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	if a.To != b.To {
		return a.To < b.To
	}
	return a.Seq < b.Seq
}

// NewScript returns a sorted copy of entries as a Script. Two entries for
// one message are an error.
func NewScript(entries []ScriptEntry) (Script, error) {
	s := slices.Clone(Script(entries))
	sort.Slice(s, func(i, j int) bool { return keyLess(s[i].Key, s[j].Key) })
	for i := 1; i < len(s); i++ {
		if k := s[i].Key; k == s[i-1].Key {
			return nil, fmt.Errorf("engine: script has two delays (%s and %s) for message %d→%d seq %d",
				s[i-1].Delay, s[i].Delay, k.From, k.To, k.Seq)
		}
	}
	return s, nil
}

// search returns the index of key in s, or where it would be inserted. It
// runs on every scripted send, so it compares keys inline rather than
// through a comparison func.
func (s Script) search(key trace.MsgKey) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); keyLess(s[m].Key, key) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s) && s[lo].Key == key
}

// Lookup returns the scripted delay for key.
func (s Script) Lookup(key trace.MsgKey) (rat.Rat, bool) {
	if i, ok := s.search(key); ok {
		return s[i].Delay, true
	}
	return rat.Rat{}, false
}

// With returns a copy of s with key's entry replaced by delay. It panics
// when s has no entry for key.
func (s Script) With(key trace.MsgKey, delay rat.Rat) Script {
	i, ok := s.search(key)
	if !ok {
		panic(fmt.Sprintf("engine: Script.With: no entry for message %d→%d seq %d", key.From, key.To, key.Seq))
	}
	out := slices.Clone(s)
	out[i].Delay = delay
	return out
}

// Equal reports whether two entries have the same key and equal delays.
func (e ScriptEntry) Equal(o ScriptEntry) bool {
	return e.Key == o.Key && e.Delay.Equal(o.Delay)
}

// Equal reports whether two scripts hold the same keys with equal delays.
func (s Script) Equal(o Script) bool {
	return slices.EqualFunc(s, o, ScriptEntry.Equal)
}

// checkScripts verifies the Script order of every script along adv's
// wrapper chain: keys strictly increasing.
func checkScripts(adv Adversary) error {
	for adv != nil {
		var s Script
		switch a := adv.(type) {
		case ScriptedAdversary:
			s = a.Delays
		case *ScriptedAdversary:
			s = a.Delays
		}
		for i := 1; i < len(s); i++ {
			if a, b := s[i-1].Key, s[i].Key; !keyLess(a, b) {
				return fmt.Errorf("engine: script entries %d (%d→%d seq %d) and %d (%d→%d seq %d) are not in strictly increasing (From, To, Seq) order; build scripts with NewScript",
					i-1, a.From, a.To, a.Seq, i, b.From, b.To, b.Seq)
			}
		}
		w, ok := adv.(AdversaryWrapper)
		if !ok {
			return nil
		}
		adv = w.Unwrap()
	}
	return nil
}
