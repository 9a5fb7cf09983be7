package search

import (
	"fmt"
	"maps"
	"runtime"
	"sort"
	"strings"

	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/sim"
	"gcs/internal/trace"
)

// Objective selects the quantity the search maximizes.
type Objective int

// Objectives.
const (
	// ObjectiveGlobalSkew maximizes the worst |L_i − L_j| over all pairs.
	ObjectiveGlobalSkew Objective = iota
	// ObjectiveLocalSkew maximizes the worst |L_i − L_j| over distance-1
	// pairs.
	ObjectiveLocalSkew
	// ObjectiveGradientMargin maximizes max over pairs of
	// |L_i − L_j| − f(d(i,j)): positive values are gradient violations.
	ObjectiveGradientMargin
)

// String returns the objective's flag-style name.
func (o Objective) String() string {
	switch o {
	case ObjectiveGlobalSkew:
		return "global"
	case ObjectiveLocalSkew:
		return "local"
	case ObjectiveGradientMargin:
		return "margin"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// ParseObjective parses an objective name as used by the CLIs.
func ParseObjective(s string) (Objective, error) {
	switch strings.ToLower(s) {
	case "global":
		return ObjectiveGlobalSkew, nil
	case "local":
		return ObjectiveLocalSkew, nil
	case "margin":
		return ObjectiveGradientMargin, nil
	default:
		return 0, fmt.Errorf("search: unknown objective %q (want global | local | margin)", s)
	}
}

// Seed is an initial candidate injected into the search beam next to the
// unmutated base: a replayable delay script and, optionally, full hardware
// schedules. Seeds are how the certified lower-bound constructions enter the
// search (see internal/lowerbound AdversarySeed exporters): seeded with the
// Shift construction's β execution, the hunter starts at — not below — the
// proven bound, and mutates outward from there.
type Seed struct {
	// Name labels the seed in error messages.
	Name string
	// Script is the seed's delay script, replayed over the Base tail.
	Script map[trace.MsgKey]rat.Rat
	// Schedules, when non-nil, replaces the base hardware schedules for this
	// candidate (length must equal the node count). The constructions' rate
	// surgery (e.g. the Add Skew γ speed-up) arrives through this field.
	Schedules []*clock.Schedule
}

// Options configures a worst-case search.
type Options struct {
	Net      *network.Network
	Protocol sim.Protocol
	Duration rat.Rat
	Rho      rat.Rat // drift bound ρ; rate mutations stay within [1−ρ, 1+ρ]

	// Schedules are the base hardware schedules (default: all constant 1).
	// Rate mutations replace one node's schedule with a constant-rate one.
	Schedules []*clock.Schedule

	// Base seeds the search and serves as the tail adversary for decisions
	// beyond every candidate script. Default: Midpoint().
	//
	// A stateful Base (an adaptive adversary observing the run it schedules)
	// is supported when it implements engine.StatefulAdversary: every
	// evaluation then runs against an independent clone of its initial
	// state, and prefix-cached forks clone the trunk tail's state at the
	// fork point, so results stay byte-identical to full re-simulation. A
	// Base that observes the run without being cloneable cannot be forked
	// or replicated: the search degrades to serial full re-simulation
	// (DisablePrefixCache, Workers = 1) with the single Base instance
	// carried through every evaluation in candidate order — deterministic
	// in Options, but candidate values then depend on the evaluations
	// before them and Result.Script is not independently replayable
	// against a fresh adversary. Result.Notes says so; prefer a cloneable
	// Base.
	Base engine.Adversary

	// Seeds are additional initial candidates (certified constructions,
	// previous winners) evaluated alongside the base in round zero.
	Seeds []Seed

	Objective Objective
	// Gradient is the bound f for ObjectiveGradientMargin (required there,
	// ignored otherwise).
	Gradient core.GradientFunc

	// Rounds bounds the greedy rounds (each round composes one more mutation
	// on top of the beam). Default 4.
	Rounds int
	// Beam is the number of best candidates expanded each round. Default 2.
	Beam int
	// DelayMutations caps how many of a candidate's decisions are mutated
	// per round, sampled evenly across the decision log so late decisions
	// are reachable. Default 16.
	DelayMutations int
	// MutateTail, when nonzero (in (0, 1]), restricts delay-mutation
	// sampling to the final MutateTail fraction of each parent's decision
	// log. This is the shape of the paper's surgery — perturb the end of the
	// run, keep the prefix indistinguishable — and it is what makes
	// prefix-cached evaluation pay: the shared prefix grows with 1−MutateTail.
	// Zero (the default) samples the whole log.
	MutateTail rat.Rat
	// RateWindows, when > 0, adds windowed rate-schedule mutations to the
	// move set: the run is split into RateWindows equal real-time windows,
	// and each candidate applies clock.ModifyWindow to one node over one
	// window, pinning its rate to 1−ρ or 1+ρ there (the Bounded Increase
	// lemma's surgery shape). Zero disables them. Requires Rho > 0: with
	// ρ = 0 both pins collapse to rate 1 and the move set would silently be
	// empty, so normalize rejects the combination. Window mutants share the
	// parent's execution prefix: the mutated schedule agrees with the
	// parent's before the window starts, so evaluation forks the shared
	// trunk there and swaps the schedule in (Engine.SwapSchedule) instead of
	// re-simulating from time zero.
	RateWindows int
	// Workers bounds the evaluation pool. Default GOMAXPROCS.
	Workers int
	// DisableRateMutations restricts the search to delay choices only
	// (whole-run flips and windowed surgery alike).
	DisableRateMutations bool
	// DisablePrefixCache evaluates every candidate from scratch instead of
	// forking shared script prefixes. Results are byte-identical either way;
	// the flag exists for benchmarking and for the equivalence tests.
	DisablePrefixCache bool

	// Metrics, when non-nil, receives campaign-level accounting (generations
	// merged, candidates evaluated, engine steps, prefix-cache savings) as
	// evaluated generations are absorbed. EngineMetrics, when non-nil,
	// instruments every engine this search constructs (trunks, forks,
	// from-scratch evaluations) so its step counters advance live during
	// evaluation, not just at merge time. Neither affects the search outcome
	// in any way.
	Metrics       *Metrics
	EngineMetrics *engine.Metrics

	// serialEval forces in-order, single-threaded from-scratch evaluation.
	// normalize sets it when Base is stateful but not cloneable: the one
	// shared Base instance must then see candidate runs one at a time, in a
	// deterministic order.
	serialEval bool
}

// Result is the outcome of a search: the best adversary found, as a
// replayable script plus rate overrides, with the objective values that
// certify it. Identical Options produce identical Results regardless of
// Workers or GOMAXPROCS.
type Result struct {
	Objective Objective
	// Baseline is the objective value of the unmutated base candidate.
	Baseline rat.Rat
	// Best is the searched worst-case objective value (≥ Baseline).
	Best rat.Rat
	// BestCandidate is the winning candidate's global discovery index (0 =
	// the unmutated base). Candidate indices are assigned in enumeration
	// order, so this — like every other field except EngineSteps — is
	// identical however the evaluation was scheduled or partitioned.
	BestCandidate int
	// Witness is the pair and time attaining Best (skew objectives) or the
	// pair with the worst margin (margin objective).
	Witness core.PairSkew
	// Script is the complete realized decision log of the best run: replay
	// it with ReplayAdversary (or engine.ScriptedAdversary + the base tail)
	// to reproduce the execution exactly.
	Script map[trace.MsgKey]rat.Rat
	// Rates holds per-node constant-rate overrides; a zero Rat means the
	// node keeps its base schedule. When the winner carries windowed surgery
	// or seed schedules that no constant rate describes, the corresponding
	// entries are zero and Schedules is authoritative.
	Rates []rat.Rat
	// Schedules are the effective hardware schedules of the best run (base
	// schedules, constant-rate overrides, windowed surgery, and seed
	// schedules all applied). Replaying Script under Schedules reproduces
	// the winning execution exactly.
	Schedules []*clock.Schedule
	// Rounds is the number of mutation rounds executed, Evaluated the total
	// number of candidate simulations.
	Rounds    int
	Evaluated int
	// EngineSteps counts the engine events actually dispatched across the
	// whole search — shared prefixes once, plus the trunk replays that
	// position the forks. CandidateSteps counts what the same evaluations
	// would have dispatched re-simulated from scratch (the sum of every
	// candidate's full execution length); the ratio CandidateSteps /
	// EngineSteps is the prefix-cache speedup.
	EngineSteps    uint64
	CandidateSteps uint64
	// Notes records evaluation-strategy degradations the search applied —
	// currently the serial from-scratch fallback for a stateful,
	// non-cloneable Base — so a caller (or a log reader) can see why a run
	// evaluated slower than configured.
	Notes []string
}

// StepsPerCandidate returns the engine events dispatched per evaluated
// candidate, and ResimPerCandidate what from-scratch re-simulation would
// have dispatched; SavedFraction is 1 − Steps/Resim, the prefix-cache
// saving. The CLIs and E13 report exactly these.
func (r *Result) StepsPerCandidate() float64 {
	return float64(r.EngineSteps) / float64(r.Evaluated)
}

// ResimPerCandidate returns the from-scratch engine events per candidate.
func (r *Result) ResimPerCandidate() float64 {
	return float64(r.CandidateSteps) / float64(r.Evaluated)
}

// SavedFraction returns the fraction of engine events prefix caching saved.
func (r *Result) SavedFraction() float64 {
	return 1 - float64(r.EngineSteps)/float64(r.CandidateSteps)
}

// ReplayAdversary returns the adversary reproducing the best execution found
// (the full realized script over the base tail).
func (r *Result) ReplayAdversary(base engine.Adversary) engine.ScriptedAdversary {
	return engine.ScriptedAdversary{Delays: r.Script, Fallback: base}
}

// ReplaySchedules returns the hardware schedules of the best execution:
// base schedules with the searched constant-rate overrides applied. When the
// winner carries windowed or seeded schedules, use the Schedules field
// instead — it is always exact.
func (r *Result) ReplaySchedules(base []*clock.Schedule) []*clock.Schedule {
	out := make([]*clock.Schedule, len(base))
	for i := range base {
		if i < len(r.Rates) && !r.Rates[i].IsZero() {
			out[i] = clock.Constant(r.Rates[i])
		} else {
			out[i] = base[i]
		}
	}
	return out
}

// candidate is one point of the search space: a delay script layered over
// the base tail adversary, plus per-node constant-rate overrides (zero Rat =
// base schedule) and, for seeds and windowed mutants, a full schedule
// override. id is the global discovery index, the deterministic tie-breaker;
// hash is the identity hash the campaign dedupes on (see identity).
type candidate struct {
	id     int
	hash   uint64
	script delayScript
	rates  []rat.Rat
	scheds []*clock.Schedule // non-nil: full base-schedule override

	// Prefix lineage, set on delay and window mutants: the parent's realized
	// decision log plus the divergence point. A delay mutant diverges at its
	// first changed decision (divIdx into the parent log, divEvent its
	// dispatch-event index). A nil parent (whole-run rate mutants, seeds,
	// the base) evaluates from scratch.
	parent   *DecisionLog
	divIdx   int
	divEvent uint64

	// Rate-window lineage: the mutant equals its parent except node
	// swapNode's schedule is swapSched, which agrees with the parent's on
	// [0, divTime). scheds stays the PARENT's schedule set — the shared
	// trunk runs under it — and the fork swaps swapSched in at the first
	// event at/after divTime (Engine.SwapSchedule re-derives queued timer
	// times from their hardware targets). schedOverride materializes the
	// candidate's own set for from-scratch evaluation, identities, and the
	// beam entries of evaluated candidates.
	swapNode  int
	swapSched *clock.Schedule
	divTime   rat.Rat
}

// delayScript is a candidate's delay script, held lazily. The base and the
// seeds carry an explicit map; a mutant carries the realized decision log it
// was enumerated from plus at most one replaced delay. No map is built until
// the candidate is evaluated, so a mutant rejected as a duplicate costs none.
type delayScript struct {
	delays map[trace.MsgKey]rat.Rat // the explicit script when log is nil
	log    *DecisionLog             // non-nil: log's realized decisions...
	edited bool                     // ...with decision edit's delay...
	edit   int
	delay  rat.Rat // ...replaced by delay
}

// materialize returns the script as a ScriptedAdversary map. realized is
// log.Script() when the caller already holds it, shared read-only, or nil:
// an unedited script returns it as is, an edited one a private copy.
func (s delayScript) materialize(realized map[trace.MsgKey]rat.Rat) map[trace.MsgKey]rat.Rat {
	if s.log == nil {
		return s.delays
	}
	if realized == nil {
		realized = s.log.Script()
	} else if s.edited {
		realized = maps.Clone(realized)
	}
	if s.edited {
		realized[s.log.decisions[s.edit].Key] = s.delay
	}
	return realized
}

// at returns the script's delay for decision i of its log.
func (s delayScript) at(i int) rat.Rat {
	if s.edited && s.edit == i {
		return s.delay
	}
	return s.log.decisions[i].Delay
}

// equal reports whether two scripts hold the same entries. A log's message
// keys are unique (per-pair sequence numbers), so scripts over one log can
// differ only at their edits, and scripts over two logs that sent the same
// messages in the same order compare position by position; neither builds a
// map. Any other pair is materialized and compared entry by entry.
func (s delayScript) equal(o delayScript) bool {
	if s.log != nil && o.log != nil {
		if s.log == o.log {
			return (!s.edited || s.delay.Equal(o.at(s.edit))) &&
				(!o.edited || o.delay.Equal(s.at(o.edit)))
		}
		a, b := s.log.decisions, o.log.decisions
		if len(a) != len(b) {
			return false
		}
		i := 0
		for i < len(a) && a[i].Key == b[i].Key {
			i++
		}
		if i == len(a) {
			for i := range a {
				if !s.at(i).Equal(o.at(i)) {
					return false
				}
			}
			return true
		}
	}
	a, b := s.materialize(nil), o.materialize(nil)
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

// identity is what deduplication compares: a candidate's script content,
// its rates by position, and its schedule override, where no override is
// distinct from an override equal to the base schedules. It holds the script
// lazily and never a materialized map.
type identity struct {
	script delayScript
	rates  []rat.Rat
	scheds []*clock.Schedule
}

// equal compares two identities exactly. A present override has one
// schedule per node, so the length check also keeps it apart from none.
func (a identity) equal(b identity) bool {
	if len(a.rates) != len(b.rates) || len(a.scheds) != len(b.scheds) {
		return false
	}
	for i := range a.rates {
		if !a.rates[i].Equal(b.rates[i]) {
			return false
		}
	}
	for i := range a.scheds {
		if a.scheds[i] != b.scheds[i] && !schedEqual(a.scheds[i], b.scheds[i]) {
			return false
		}
	}
	return a.script.equal(b.script)
}

// seenSet is a campaign's dedupe set: every candidate identity enumerated so
// far, filed under its identity hash. The hash only narrows the search; two
// identities are the same candidate only when they compare equal.
type seenSet map[uint64][]identity

// add files c under hash h and reports whether it is new, that is, whether
// no equal identity is filed under h yet.
func (s seenSet) add(h uint64, c candidate) bool {
	id := identity{script: c.script, rates: c.rates, scheds: schedOverride(c)}
	for _, o := range s[h] {
		if o.equal(id) {
			return false
		}
	}
	s[h] = append(s[h], id)
	return true
}

// Identity hashing. A script hashes to the wrapping sum of its entries'
// hashes: the sum needs no canonical entry order, and a one-decision edit
// updates it in O(1) by subtracting the old entry and adding the new one.
// Rates and schedules hash by position. Equal identities hash equal because
// every input is canonical: a Rat through its lowest-terms Num/Den (Key when
// they overflow int64), a schedule through its rate segments.

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// fold extends hash h by v, order-sensitively.
func fold(h, v uint64) uint64 { return mix64(h*0x9e3779b97f4a7c15 ^ v) }

func ratHash(r rat.Rat) uint64 {
	n, okN := r.Num()
	d, okD := r.Den()
	if okN && okD {
		return fold(uint64(n), uint64(d))
	}
	h := uint64(0xcbf29ce484222325) // FNV-1a over the canonical string
	for _, c := range []byte(r.Key()) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}

func entryHash(k trace.MsgKey, v rat.Rat) uint64 {
	return fold(fold(fold(uint64(k.From), uint64(k.To)), k.Seq), ratHash(v))
}

// scriptHash sums a script's entry hashes.
func scriptHash(s delayScript) uint64 {
	var sum uint64
	if s.log == nil {
		for k, v := range s.delays {
			sum += entryHash(k, v)
		}
		return sum
	}
	for _, d := range s.log.decisions {
		sum += entryHash(d.Key, d.Delay)
	}
	if s.edited {
		d := s.log.decisions[s.edit]
		sum += entryHash(d.Key, s.delay) - entryHash(d.Key, d.Delay)
	}
	return sum
}

// clocksHash hashes the clock half of an identity: rates and the schedule
// override. No override folds in length 0, apart from any present one.
func clocksHash(rates []rat.Rat, scheds []*clock.Schedule) uint64 {
	h := uint64(len(rates))
	for _, r := range rates {
		h = fold(h, ratHash(r))
	}
	h = fold(h, uint64(len(scheds)))
	for _, s := range scheds {
		segs := s.Rates()
		h = fold(h, uint64(len(segs)))
		for _, seg := range segs {
			h = fold(fold(h, ratHash(seg.Rate)), ratHash(seg.At))
		}
	}
	return h
}

// hashOf computes a candidate's identity hash from scratch, in O(script).
// mutations derives the same value incrementally from the parent's sum.
func hashOf(c candidate) uint64 {
	return fold(scriptHash(c.script), clocksHash(c.rates, schedOverride(c)))
}

// evaluation is a candidate's simulated outcome.
type evaluation struct {
	cand    candidate
	value   rat.Rat
	witness core.PairSkew
	log     *DecisionLog
	steps   uint64 // full execution length (prefix + suffix)
	cost    uint64 // events this evaluation actually dispatched (suffix only when forked)
	err     error
}

// Search hunts a skew-maximizing execution for opt.Protocol on opt.Net. See
// the package comment for the algorithm; the result is deterministic in
// Options alone.
//
// Search drives a Campaign, evaluating each generation as one range on the
// worker pool; the merge is argmax with ties broken on candidate index, so
// any other partition of the generations yields the byte-identical Result
// (EngineSteps excepted — see the Campaign doc).
func Search(opt Options) (*Result, error) {
	c, err := NewCampaign(opt)
	if err != nil {
		return nil, err
	}
	for !c.Done() {
		sr, err := c.EvaluateRange(0, c.NumPending())
		if err != nil {
			return nil, err
		}
		if err := c.Absorb([]*ShardResult{sr}); err != nil {
			return nil, err
		}
	}
	return c.Result()
}

// fullSteps sums the full execution lengths of a batch.
func fullSteps(evals []evaluation) uint64 {
	var total uint64
	for _, ev := range evals {
		total += ev.steps
	}
	return total
}

// normalize validates opt, fills defaults, and returns notes describing any
// evaluation-strategy degradation it had to apply.
func normalize(opt *Options) ([]string, error) {
	if opt.Net == nil {
		return nil, fmt.Errorf("search: nil network")
	}
	if opt.Protocol == nil {
		return nil, fmt.Errorf("search: nil protocol")
	}
	if opt.Duration.Sign() <= 0 {
		return nil, fmt.Errorf("search: non-positive duration %s", opt.Duration)
	}
	if opt.Objective == ObjectiveGradientMargin && opt.Gradient == nil {
		return nil, fmt.Errorf("search: ObjectiveGradientMargin needs a Gradient func")
	}
	n := opt.Net.N()
	if opt.Schedules == nil {
		opt.Schedules = make([]*clock.Schedule, n)
		for i := range opt.Schedules {
			opt.Schedules[i] = clock.Constant(rat.FromInt(1))
		}
	}
	if len(opt.Schedules) != n {
		return nil, fmt.Errorf("search: %d schedules for %d nodes", len(opt.Schedules), n)
	}
	for _, s := range opt.Seeds {
		if s.Schedules != nil && len(s.Schedules) != n {
			return nil, fmt.Errorf("search: seed %q has %d schedules for %d nodes", s.Name, len(s.Schedules), n)
		}
	}
	if opt.MutateTail.Sign() < 0 || opt.MutateTail.Greater(rat.FromInt(1)) {
		return nil, fmt.Errorf("search: MutateTail %s outside [0, 1]", opt.MutateTail)
	}
	if opt.RateWindows < 0 {
		return nil, fmt.Errorf("search: negative RateWindows %d", opt.RateWindows)
	}
	if opt.RateWindows > 0 && !opt.DisableRateMutations && opt.Rho.Sign() <= 0 {
		return nil, fmt.Errorf("search: RateWindows %d with drift bound ρ=%s: windowed rate surgery pins rates to 1−ρ and 1+ρ, which under ρ <= 0 never changes a schedule, so the windows would silently produce no mutants; set Rho > 0, or RateWindows = 0 to disable windowed surgery", opt.RateWindows, opt.Rho)
	}
	if opt.Base == nil {
		opt.Base = engine.Midpoint()
	}
	if opt.Rounds <= 0 {
		opt.Rounds = 4
	}
	if opt.Beam <= 0 {
		opt.Beam = 2
	}
	if opt.DelayMutations <= 0 {
		opt.DelayMutations = 16
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	var notes []string
	if _, ok := engine.CloneAdversaryState(opt.Base); !ok {
		// The one Base instance cannot be forked or replicated: evaluating
		// candidates concurrently would race on its state, and forking a
		// trunk would silently share it across branches. Degrade to serial
		// full re-simulation. This is deterministic in Options but weaker
		// than the cloneable path: the shared instance's state carries from
		// one candidate run into the next, so candidate values depend on
		// evaluation order and the winning script does not replay
		// independently — which the note states outright.
		opt.DisablePrefixCache = true
		opt.Workers = 1
		opt.serialEval = true
		notes = append(notes, fmt.Sprintf(
			"base adversary %T is stateful but not cloneable (observes the run without implementing engine.StatefulAdversary): prefix caching and parallel evaluation disabled; candidates re-simulated serially with the one shared adversary instance, whose state carries across evaluations in candidate order — deterministic, but Script/Best are not independently replayable; implement CloneAdversary for exact semantics", opt.Base))
	}
	return notes, nil
}

// baseTail returns the tail adversary one evaluation should run against: an
// independent clone of the Base's initial state when the Base is stateful,
// the Base itself when stateless. On the serial fallback path (stateful,
// not cloneable) the shared instance is returned — evaluations are then
// strictly sequential.
func baseTail(opt Options) engine.Adversary {
	if tail, ok := engine.CloneAdversaryState(opt.Base); ok {
		return tail
	}
	return opt.Base
}

// effectiveScheds materializes the hardware schedules a candidate runs
// under: its full override (seeds, windowed mutants — with the window
// mutant's swapped-in schedule applied) or the base schedules, with
// constant-rate overrides applied on top.
func effectiveScheds(opt Options, cand candidate) []*clock.Schedule {
	return applyRates(opt, schedOverride(cand), cand.rates)
}

// trunkScheds materializes the schedules the shared trunk runs under:
// effectiveScheds without the rate-window swap. The trunk replays the
// parent's execution, and a window mutant's parent ran the un-swapped set;
// for every other candidate the two are identical.
func trunkScheds(opt Options, cand candidate) []*clock.Schedule {
	return applyRates(opt, cand.scheds, cand.rates)
}

// applyRates lays per-node constant-rate overrides over a schedule override
// (or the base schedules when override is nil).
func applyRates(opt Options, override []*clock.Schedule, rates []rat.Rat) []*clock.Schedule {
	base := opt.Schedules
	if override != nil {
		base = override
	}
	out := make([]*clock.Schedule, len(base))
	for i, s := range base {
		if i < len(rates) && !rates[i].IsZero() {
			out[i] = clock.Constant(rates[i])
		} else {
			out[i] = s
		}
	}
	return out
}

// schedOverride returns the candidate's own full schedule override — its
// scheds with the rate-window swap applied — or nil when it has neither.
// This is the schedule half of the candidate's identity, the beam entry's
// schedules once it is evaluated, and what a from-scratch evaluation runs
// under.
func schedOverride(c candidate) []*clock.Schedule {
	if c.swapSched == nil {
		return c.scheds
	}
	out := append([]*clock.Schedule(nil), c.scheds...)
	out[c.swapNode] = c.swapSched
	return out
}

// delaySnaps are the candidate delay fractions of the bound: the extremes
// and the midpoint the constructions use.
var delaySnaps = []rat.Rat{{}, rat.MustFrac(1, 2), rat.FromInt(1)}

// mutations enumerates the deterministic single-step edits of a parent
// candidate: per-node whole-run rate flips within ±ρ, windowed rate surgery
// (when enabled), then per-decision delay snaps over an even sample of the
// parent's realized decision log (optionally restricted to its tail). Delay
// mutants and window mutants carry prefix lineage (a window mutant's
// schedule agrees with its parent's before the window, so everything before
// it is shared execution); whole-run rate flips change clocks from time zero
// and evaluate from scratch.
//
// Each mutant carries its identity hash. The parent's script sum costs one
// pass over its decision log; a delay mutant's sum is that sum with one entry
// swapped, and rate and window mutants keep the parent's script unchanged.
func mutations(opt Options, parent evaluation) []candidate {
	var out []candidate

	realized := delayScript{log: parent.log}
	sum := scriptHash(realized)
	if !opt.DisableRateMutations {
		one := rat.FromInt(1)
		rateChoices := []rat.Rat{one.Sub(opt.Rho), one, one.Add(opt.Rho)}
		for node := 0; node < opt.Net.N(); node++ {
			cur := effectiveRate(opt, parent.cand, node)
			for _, r := range rateChoices {
				if r.Sign() <= 0 || (cur != nil && cur.Equal(r)) {
					continue
				}
				rates := append([]rat.Rat(nil), parent.cand.rates...)
				rates[node] = r
				out = append(out, candidate{
					hash:   fold(sum, clocksHash(rates, parent.cand.scheds)),
					script: realized,
					rates:  rates,
					scheds: parent.cand.scheds,
				})
			}
		}
		out = append(out, windowMutations(opt, parent, realized, sum)...)
	}

	clocks := clocksHash(parent.cand.rates, parent.cand.scheds)
	decs := parent.log.Decisions()
	for _, idx := range sampleTail(len(decs), opt.DelayMutations, opt.MutateTail) {
		d := decs[idx]
		for _, frac := range delaySnaps {
			v := frac.Mul(d.Bound)
			if v.Equal(d.Delay) {
				continue
			}
			out = append(out, candidate{
				hash:   fold(sum-entryHash(d.Key, d.Delay)+entryHash(d.Key, v), clocks),
				script: delayScript{log: parent.log, edited: true, edit: idx, delay: v},
				rates:  parent.cand.rates,
				scheds: parent.cand.scheds,
				parent: parent.log,
				divIdx: idx, divEvent: d.Event,
			})
		}
	}
	return out
}

// windowMutations enumerates the windowed rate surgery: one node's rate
// pinned to 1−ρ or 1+ρ over one of RateWindows equal slices of the run,
// original schedule elsewhere — the Bounded Increase lemma's ModifyWindow
// surgery as a search move. The resulting schedules rarely stay constant, so
// these candidates drop their constant-rate bookkeeping and carry the full
// (parent) schedule set plus the swap. Because ModifyWindow leaves [0, from)
// untouched, the mutant shares the parent's execution prefix up to the
// window start: the candidate carries prefix lineage and the trunk
// scheduler forks it there, swapping the schedule into the fork.
func windowMutations(opt Options, parent evaluation, realized delayScript, sum uint64) []candidate {
	if opt.RateWindows <= 0 || opt.Rho.Sign() <= 0 {
		return nil
	}
	parentScheds := effectiveScheds(opt, parent.cand)
	one := rat.FromInt(1)
	pins := []rat.Rat{one.Sub(opt.Rho), one.Add(opt.Rho)}
	w := int64(opt.RateWindows)
	var out []candidate
	for node := 0; node < opt.Net.N(); node++ {
		for win := int64(0); win < w; win++ {
			from := opt.Duration.Mul(rat.MustFrac(win, w))
			to := opt.Duration.Mul(rat.MustFrac(win+1, w))
			for _, r := range pins {
				if r.Sign() <= 0 {
					continue
				}
				pinned := r
				ns, err := parentScheds[node].ModifyWindow(from, to, func(rat.Rat) rat.Rat { return pinned })
				if err != nil || schedEqual(ns, parentScheds[node]) {
					continue
				}
				m := candidate{
					script:    realized,
					rates:     make([]rat.Rat, opt.Net.N()),
					scheds:    parentScheds,
					parent:    parent.log,
					swapNode:  node,
					swapSched: ns,
					divTime:   from,
				}
				m.hash = fold(sum, clocksHash(m.rates, schedOverride(m)))
				out = append(out, m)
			}
		}
	}
	return out
}

// schedEqual reports whether two schedules have identical rate segments.
func schedEqual(a, b *clock.Schedule) bool {
	ra, rb := a.Rates(), b.Rates()
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if !ra[i].At.Equal(rb[i].At) || !ra[i].Rate.Equal(rb[i].Rate) {
			return false
		}
	}
	return true
}

// effectiveRate returns the constant rate node runs at under cand, or nil
// when its effective schedule is not constant (then every flip is a real
// change).
func effectiveRate(opt Options, cand candidate, node int) *rat.Rat {
	if !cand.rates[node].IsZero() {
		r := cand.rates[node]
		return &r
	}
	base := opt.Schedules
	if s := schedOverride(cand); s != nil {
		base = s
	}
	segs := base[node].Rates()
	if len(segs) == 1 {
		r := segs[0].Rate
		return &r
	}
	return nil
}

// sampleTail samples up to k indices from the final `tail` fraction of
// [0, n): the whole range when tail is zero (or one), matching sampleIndices
// exactly in that case.
func sampleTail(n, k int, tail rat.Rat) []int {
	if tail.Sign() <= 0 || tail.GreaterEq(rat.FromInt(1)) {
		return sampleIndices(n, k)
	}
	span := int(tail.Mul(rat.FromInt(int64(n))).Floor())
	if span < 1 {
		span = 1
	}
	if span > n {
		span = n
	}
	start := n - span
	idxs := sampleIndices(span, k)
	for i := range idxs {
		idxs[i] += start
	}
	return idxs
}

// sampleIndices returns up to k indices spread evenly across [0, n), always
// including the first and last when possible, in increasing order.
func sampleIndices(n, k int) []int {
	if n <= 0 || k <= 0 {
		return nil
	}
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if k == 1 {
		return []int{0}
	}
	out := make([]int, 0, k)
	last := -1
	for i := 0; i < k; i++ {
		idx := i * (n - 1) / (k - 1)
		if idx != last {
			out = append(out, idx)
			last = idx
		}
	}
	return out
}

// objectiveValue reads the configured objective off a flushed tracker.
func objectiveValue(opt Options, skew *core.SkewTracker) (rat.Rat, core.PairSkew) {
	switch opt.Objective {
	case ObjectiveLocalSkew:
		l := skew.Local()
		return l.Skew, l
	case ObjectiveGradientMargin:
		var worst core.PairSkew
		var margin rat.Rat
		first := true
		opt.Net.Pairs(func(i, j int) {
			p := skew.Pair(i, j)
			p.Allowed = opt.Gradient(p.Dist)
			m := p.Skew.Sub(p.Allowed)
			if first || m.Greater(margin) {
				margin, worst, first = m, p, false
			}
		})
		return margin, worst
	default:
		g := skew.Global()
		return g.Skew, g
	}
}

// reduce sorts the pool by (value desc, discovery id asc) and keeps the top
// `beam` entries. The id tie-break makes the selection — and therefore the
// whole search — independent of evaluation timing.
func reduce(pool []evaluation, beam int) []evaluation {
	sort.Slice(pool, func(a, b int) bool {
		if c := pool[a].value.Cmp(pool[b].value); c != 0 {
			return c > 0
		}
		return pool[a].cand.id < pool[b].cand.id
	})
	if len(pool) > beam {
		pool = pool[:beam]
	}
	return pool
}
