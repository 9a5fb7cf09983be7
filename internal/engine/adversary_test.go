package engine

import (
	"strings"
	"testing"

	"gcs/internal/rat"
	"gcs/internal/trace"
)

// TestHashAdversarySeedDeterminism: the delay is a pure function of
// (seed, from, to, seq) — two adversaries with the same seed agree
// everywhere, and a different seed produces a different delay somewhere.
func TestHashAdversarySeedDeterminism(t *testing.T) {
	a := HashAdversary{Seed: 42, Denom: 16}
	b := HashAdversary{Seed: 42, Denom: 16}
	other := HashAdversary{Seed: 43, Denom: 16}
	bound := rat.FromInt(3)
	differs := false
	for from := 0; from < 4; from++ {
		for to := 0; to < 4; to++ {
			if to == from {
				continue
			}
			for seq := uint64(0); seq < 16; seq++ {
				da := a.Delay(from, to, seq, rat.Rat{}, bound)
				db := b.Delay(from, to, seq, rat.FromInt(7), bound) // sendReal must not matter
				if !da.Equal(db) {
					t.Fatalf("same seed disagrees at %d→%d seq %d: %s vs %s", from, to, seq, da, db)
				}
				if !da.Equal(other.Delay(from, to, seq, rat.Rat{}, bound)) {
					differs = true
				}
			}
		}
	}
	if !differs {
		t.Fatal("seeds 42 and 43 produced identical delays on every probed message")
	}
}

// TestHashAdversaryDelayRange: for every probed input and quantization the
// delay lies in [0, bound] and is an exact multiple of bound/denom.
func TestHashAdversaryDelayRange(t *testing.T) {
	for _, denom := range []int64{0, 1, 8, 16, 64} {
		a := HashAdversary{Seed: 7, Denom: denom}
		eff := denom
		if eff <= 0 {
			eff = 16
		}
		for _, bound := range []rat.Rat{rat.FromInt(1), rat.FromInt(5), rat.MustFrac(3, 2)} {
			for seq := uint64(0); seq < 64; seq++ {
				d := a.Delay(0, 1, seq, rat.Rat{}, bound)
				if d.Sign() < 0 || d.Greater(bound) {
					t.Fatalf("denom=%d bound=%s seq=%d: delay %s outside [0, %s]", denom, bound, seq, d, bound)
				}
				// d = k/eff · bound for an integer k.
				steps := d.Div(bound).Mul(rat.FromInt(eff))
				if !steps.IsInt() {
					t.Fatalf("denom=%d bound=%s seq=%d: delay %s not quantized to %d-ths", denom, bound, seq, d, eff)
				}
			}
		}
	}
	if got := (HashAdversary{Seed: 9}).String(); got != "hash-9" {
		t.Fatalf("String() = %q", got)
	}
}

// TestScriptedAdversaryChecked: scripted keys replay, unscripted keys
// delegate to the tail, and a missing tail is an explicit error (and a
// panic on the unchecked path, which has no error channel).
func TestScriptedAdversaryChecked(t *testing.T) {
	key := trace.MsgKey{From: 0, To: 1, Seq: 2}
	bound := rat.FromInt(4)
	sa := ScriptedAdversary{
		Delays:   Script{{Key: key, Delay: rat.FromInt(3)}},
		Fallback: FractionAdversary{Frac: rat.MustFrac(1, 4)},
	}
	if d, err := sa.DelayChecked(0, 1, 2, rat.Rat{}, bound); err != nil || !d.Equal(rat.FromInt(3)) {
		t.Fatalf("scripted key: got %s, %v", d, err)
	}
	if d, err := sa.DelayChecked(1, 0, 0, rat.Rat{}, bound); err != nil || !d.Equal(rat.FromInt(1)) {
		t.Fatalf("tail key: got %s, %v (want bound/4)", d, err)
	}

	bare := ScriptedAdversary{Delays: Script{{Key: key, Delay: rat.FromInt(3)}}}
	if _, err := bare.DelayChecked(1, 0, 0, rat.Rat{}, bound); err == nil ||
		!strings.Contains(err.Error(), "no Fallback") {
		t.Fatalf("missing tail: got %v, want explicit no-Fallback error", err)
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("unchecked Delay past the script should panic, not nil-deref")
			}
		}()
		bare.Delay(1, 0, 0, rat.Rat{}, bound)
	}()
}

func TestHashAdversaryDeterministicAndBounded(t *testing.T) {
	adv := HashAdversary{Seed: 99}
	bound := ri(4)
	seen := map[string]bool{}
	for seq := uint64(0); seq < 50; seq++ {
		d1 := adv.Delay(0, 1, seq, ri(0), bound)
		d2 := adv.Delay(0, 1, seq, ri(7), bound) // send time must not matter
		if !d1.Equal(d2) {
			t.Fatal("hash adversary depends on send time")
		}
		if d1.Sign() < 0 || d1.Greater(bound) {
			t.Fatalf("delay %s out of bounds", d1)
		}
		seen[d1.String()] = true
	}
	if len(seen) < 3 {
		t.Errorf("hash adversary produced only %d distinct delays in 50 draws", len(seen))
	}
}

func TestFuncAdversary(t *testing.T) {
	adv := FuncAdversary(func(_, _ int, _ uint64, _ rat.Rat, bound rat.Rat) rat.Rat {
		return bound
	})
	if got := adv.Delay(0, 1, 0, ri(0), ri(3)); !got.Equal(ri(3)) {
		t.Errorf("FuncAdversary delay = %s", got)
	}
}

// TestUnsortedScriptRejected: a hand-built Script out of (From, To, Seq)
// order would make Lookup miss entries it holds, so New and SetAdversary
// refuse it, wrapped or bare, while NewScript sorts the same entries into a
// script both accept.
func TestUnsortedScriptRejected(t *testing.T) {
	entries := []ScriptEntry{
		{Key: trace.MsgKey{From: 1, To: 0, Seq: 0}, Delay: rf(1, 2)},
		{Key: trace.MsgKey{From: 0, To: 1, Seq: 0}, Delay: rf(1, 4)},
	}
	cfg := lineConfig(t, 2, pulseProtocol{}, ri(1))
	const want = "entries 0 (1→0 seq 0) and 1 (0→1 seq 0) are not in strictly increasing"
	for _, adv := range []Adversary{
		ScriptedAdversary{Delays: entries, Fallback: Midpoint()},
		&ScriptedAdversary{Delays: entries},
		ScriptedAdversary{Fallback: ScriptedAdversary{Delays: entries}},
	} {
		if _, err := New(cfg.Net, WithProtocol(cfg.Protocol), WithAdversary(adv)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("New(%T): got %v, want an order error", adv, err)
		}
		eng, err := New(cfg.Net, WithProtocol(cfg.Protocol))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.SetAdversary(adv); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("SetAdversary(%T): got %v, want an order error", adv, err)
		}
	}
	sorted, err := NewScript(entries)
	if err != nil {
		t.Fatal(err)
	}
	if sorted[0].Key != entries[1].Key || sorted[1].Key != entries[0].Key {
		t.Fatalf("NewScript did not sort: %v", sorted)
	}
	eng, err := New(cfg.Net, WithProtocol(cfg.Protocol), WithAdversary(ScriptedAdversary{Delays: sorted, Fallback: Midpoint()}))
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := sorted.Lookup(entries[0].Key); !ok || !d.Equal(rf(1, 2)) {
		t.Fatalf("Lookup(%v) = %s, %v", entries[0].Key, d, ok)
	}
	if err := eng.SetAdversary(ScriptedAdversary{Delays: sorted}); err != nil {
		t.Fatal(err)
	}
}
