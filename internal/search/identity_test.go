package search

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
)

// key is the reference dedupe identity: rates, the sorted script entries,
// and the full schedule override when one is present, as one canonical
// string. The hashed identity must accept and reject exactly what it does.
func key(c candidate) string {
	var b strings.Builder
	for i, r := range c.rates {
		fmt.Fprintf(&b, "r%d=%s;", i, r.Key())
	}
	script := c.script.materialize(nil)
	entries := make([]string, 0, len(script))
	for k, v := range script {
		entries = append(entries, fmt.Sprintf("%d>%d#%d=%s", k.From, k.To, k.Seq, v.Key()))
	}
	sort.Strings(entries)
	b.WriteString(strings.Join(entries, ";"))
	if scheds := schedOverride(c); scheds != nil {
		for i, s := range scheds {
			fmt.Fprintf(&b, ";S%d=", i)
			for _, seg := range s.Rates() {
				fmt.Fprintf(&b, "%s@%s,", seg.Rate.Key(), seg.At.Key())
			}
		}
	}
	return b.String()
}

// searchBenchOpts is the two-node d = 32 rate-window search the repository
// benchmark runs, under a HashAdversary base with the given seed.
func searchBenchOpts(tb testing.TB, seed uint64) Options {
	tb.Helper()
	d := rat.FromInt(32)
	net, err := network.TwoNode(d)
	if err != nil {
		tb.Fatal(err)
	}
	return Options{
		Net:            net,
		Protocol:       algorithms.Gradient(algorithms.DefaultGradientParams()),
		Duration:       rat.FromInt(2).Mul(d),
		Rho:            rat.MustFrac(1, 2),
		Base:           engine.HashAdversary{Seed: seed, Denom: 8},
		Rounds:         3,
		Beam:           2,
		DelayMutations: 8,
		MutateTail:     rat.MustFrac(1, 2),
		RateWindows:    4,
		Workers:        1,
	}
}

// identityConfigs are the searches the identity tests replay: the benchmark
// configuration over four adversary seeds, a seed carrying full schedules,
// delay-only mutation, and a nine-node torus.
func identityConfigs(t *testing.T) map[string]Options {
	t.Helper()
	cfgs := map[string]Options{}
	for seed := uint64(1); seed <= 4; seed++ {
		cfgs[fmt.Sprintf("two-node/seed=%d", seed)] = searchBenchOpts(t, seed)
	}

	plain := lineOpts(t, 4, 1)
	plain.RateWindows = 2
	prev, err := Search(plain)
	if err != nil {
		t.Fatal(err)
	}
	seeded := plain
	seeded.Seeds = []Seed{
		{Name: "previous-winner", Script: prev.Script, Schedules: prev.Schedules},
		{Name: "base-schedules", Script: prev.Script, Schedules: seeded.Schedules},
	}
	cfgs["seeded-schedules"] = seeded

	delays := searchBenchOpts(t, 1)
	delays.DisableRateMutations = true
	cfgs["delays-only"] = delays

	torus, err := network.Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfgs["torus-3x3"] = Options{
		Net:            torus,
		Protocol:       algorithms.MaxGossip(rat.FromInt(1)),
		Duration:       rat.FromInt(4).Mul(torus.Diameter().Add(rat.FromInt(2))),
		Rho:            rat.MustFrac(1, 4),
		Base:           engine.HashAdversary{Seed: 7, Denom: 4},
		Rounds:         2,
		Beam:           2,
		DelayMutations: 6,
		RateWindows:    2,
		Workers:        1,
	}
	return cfgs
}

// TestCandidateIdentityMatchesCanonicalKey drives campaigns to completion
// and replays every generation's enumeration against the canonical string
// key: each incremental hash equals the from-scratch one, each accept or
// reject of the hashed seen set equals the key's, and the campaign's pending
// generation is exactly the key-accepted mutants, in order, with contiguous
// IDs.
func TestCandidateIdentityMatchesCanonicalKey(t *testing.T) {
	for name, opt := range identityConfigs(t) {
		opt := opt
		t.Run(name, func(t *testing.T) {
			c, err := NewCampaign(opt)
			if err != nil {
				t.Fatal(err)
			}
			oracle := map[string]bool{}
			mirror := seenSet{}
			for _, cand := range c.pending {
				oracle[key(cand)] = true
				mirror.add(cand.hash, cand)
			}
			rejected := 0
			for gen := 0; !c.Done(); gen++ {
				prevRound, prevMut, nextID := c.round, c.mutRounds, c.nextID
				sr, err := c.EvaluateRange(0, c.NumPending())
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Absorb([]*ShardResult{sr}); err != nil {
					t.Fatal(err)
				}
				enumerated := c.round != prevRound || (c.pending == nil && prevMut < c.opt.Rounds)
				if !enumerated {
					continue
				}
				var want []string
				for _, parent := range c.beam {
					for _, m := range mutations(c.opt, parent) {
						if h := hashOf(m); m.hash != h {
							t.Fatalf("generation %d: incremental hash %#x, from scratch %#x", gen, m.hash, h)
						}
						k := key(m)
						fresh := !oracle[k]
						oracle[k] = true
						if got := mirror.add(m.hash, m); got != fresh {
							t.Fatalf("generation %d: hashed seen set accepts=%v, canonical key accepts=%v for %q", gen, got, fresh, k)
						}
						if fresh {
							want = append(want, k)
						} else {
							rejected++
						}
					}
				}
				if len(c.pending) != len(want) {
					t.Fatalf("generation %d: %d pending, canonical key accepts %d", gen, len(c.pending), len(want))
				}
				for i, p := range c.pending {
					if p.id != nextID+i {
						t.Fatalf("generation %d: pending[%d] has id %d, want %d", gen, i, p.id, nextID+i)
					}
					if k := key(p); k != want[i] {
						t.Fatalf("generation %d: pending[%d] is %q, canonical order has %q", gen, i, k, want[i])
					}
				}
			}
			if name == "two-node/seed=1" && rejected == 0 {
				t.Fatal("no duplicate mutant enumerated: the reject path went untested")
			}
		})
	}
}

// TestSeenSetForcedCollision files distinct candidates under one hash and
// checks that the exact comparison keeps them apart, and that equal content
// reached through two different parent logs is still recognized as equal.
func TestSeenSetForcedCollision(t *testing.T) {
	opt := searchBenchOpts(t, 1)
	if _, err := normalize(&opt); err != nil {
		t.Fatal(err)
	}
	n := opt.Net.N()
	base := candidate{rates: make([]rat.Rat, n)}
	evA := evaluate(opt, base, nil)
	evB := evaluate(opt, base, nil)
	if evA.err != nil || evB.err != nil {
		t.Fatal(evA.err, evB.err)
	}
	logA, logB := evA.log, evB.log
	if logA == logB || logA.Len() < 2 {
		t.Fatalf("want two distinct logs of at least 2 decisions, got %d", logA.Len())
	}
	decs := logA.Decisions()
	edit := func(log *DecisionLog, idx int, v rat.Rat) delayScript {
		return delayScript{log: log, edited: true, edit: idx, delay: v}
	}
	other := func(idx int) rat.Rat { // a delay differing from the realized one
		if decs[idx].Delay.IsZero() {
			return decs[idx].Bound
		}
		return rat.Rat{}
	}
	ratesWith := func(node int, r rat.Rat) []rat.Rat {
		out := make([]rat.Rat, n)
		out[node] = r
		return out
	}
	// Two logs holding logA's decisions reversed and truncated: the same
	// entries in another send order, and a strict subset of them.
	reversed := &DecisionLog{decisions: make([]Decision, len(decs))}
	for i, d := range decs {
		reversed.decisions[len(decs)-1-i] = d
	}
	truncated := &DecisionLog{decisions: decs[:len(decs)-1]}
	unitScheds := func() []*clock.Schedule {
		out := make([]*clock.Schedule, n)
		for i := range out {
			out[i] = clock.Constant(rat.FromInt(1))
		}
		return out
	}

	cases := []struct {
		name string
		a, b candidate
		same bool
	}{
		{"nil override vs equal-segment override",
			candidate{script: delayScript{log: logA}, rates: make([]rat.Rat, n)},
			candidate{script: delayScript{log: logA}, rates: make([]rat.Rat, n), scheds: unitScheds()},
			false},
		{"equal overrides built separately",
			candidate{script: delayScript{log: logA}, rates: make([]rat.Rat, n), scheds: unitScheds()},
			candidate{script: delayScript{log: logA}, rates: make([]rat.Rat, n), scheds: unitScheds()},
			true},
		{"rates differ in one node",
			candidate{script: delayScript{log: logA}, rates: ratesWith(1, rat.MustFrac(1, 2))},
			candidate{script: delayScript{log: logA}, rates: ratesWith(1, rat.MustFrac(3, 2))},
			false},
		{"same parent, different edited decision",
			candidate{script: edit(logA, 0, other(0)), rates: make([]rat.Rat, n)},
			candidate{script: edit(logA, 1, other(1)), rates: make([]rat.Rat, n)},
			false},
		{"same parent, same decision, different delay",
			candidate{script: edit(logA, 0, decs[0].Bound.Mul(rat.MustFrac(1, 2))), rates: make([]rat.Rat, n)},
			candidate{script: edit(logA, 0, other(0)), rates: make([]rat.Rat, n)},
			false},
		{"same parent, same edit",
			candidate{script: edit(logA, 1, other(1)), rates: make([]rat.Rat, n)},
			candidate{script: edit(logA, 1, other(1)), rates: make([]rat.Rat, n)},
			true},
		{"same content from two parent logs",
			candidate{script: delayScript{log: logA}, rates: make([]rat.Rat, n)},
			candidate{script: delayScript{log: logB}, rates: make([]rat.Rat, n)},
			true},
		{"same edit from two parent logs",
			candidate{script: edit(logA, 1, other(1)), rates: make([]rat.Rat, n)},
			candidate{script: edit(logB, 1, other(1)), rates: make([]rat.Rat, n)},
			true},
		{"edited log vs its explicit map",
			candidate{script: edit(logA, 0, other(0)), rates: make([]rat.Rat, n)},
			candidate{script: delayScript{delays: edit(logB, 0, other(0)).materialize(nil)}, rates: make([]rat.Rat, n)},
			true},
		{"same entries in another send order",
			candidate{script: edit(logA, 0, other(0)), rates: make([]rat.Rat, n)},
			candidate{script: edit(reversed, len(decs)-1, other(0)), rates: make([]rat.Rat, n)},
			true},
		{"one decision fewer",
			candidate{script: delayScript{log: logA}, rates: make([]rat.Rat, n)},
			candidate{script: delayScript{log: truncated}, rates: make([]rat.Rat, n)},
			false},
		{"edit vs unedited parent",
			candidate{script: delayScript{log: logA}, rates: make([]rat.Rat, n)},
			candidate{script: edit(logB, 0, other(0)), rates: make([]rat.Rat, n)},
			false},
	}
	for _, tc := range cases {
		seen := seenSet{}
		if !seen.add(0, tc.a) {
			t.Fatalf("%s: first candidate rejected by an empty set", tc.name)
		}
		if got := seen.add(0, tc.b); got == tc.same {
			t.Errorf("%s: second candidate accepted=%v, want %v", tc.name, got, !tc.same)
		}
		if want := key(tc.a) == key(tc.b); want != tc.same {
			t.Errorf("%s: canonical key says same=%v, case says %v", tc.name, want, tc.same)
		}
		if tc.same && hashOf(tc.a) != hashOf(tc.b) {
			t.Errorf("%s: equal identities hash %#x and %#x", tc.name, hashOf(tc.a), hashOf(tc.b))
		}
	}
}
