// Campaign: the search as a resumable generation loop.
//
// Search runs plan → execute → merge each round: enumerate the beam's
// mutations (plan), evaluate every candidate (execute), reduce by argmax
// with ties broken on candidate index (merge). A Campaign makes those steps
// separately drivable: the caller evaluates any partition of the pending
// generation into contiguous ranges with EvaluateRange and hands the results
// back through Absorb, in any order. Absorb pools every evaluation and
// reduces once under a strict total order (value descending, candidate index
// ascending), so the merged outcome is byte-identical to Search for any
// partition and any arrival order; only the EngineSteps measurement varies (a
// parent prefix shared across ranges replays once per range instead of once
// overall).
package search

import (
	"fmt"

	"gcs/internal/rat"
)

// ShardResult is the outcome of evaluating one contiguous range of the
// pending generation: every candidate's evaluation, in range order, plus the
// engine events the range actually dispatched (trunk replays included, so
// the count depends on how the generation was partitioned).
type ShardResult struct {
	evals      []evaluation
	dispatched uint64
}

// Campaign is a worst-case search driven generation by generation.
// NewCampaign validates options and stages the initial generation (base +
// seeds); the caller then loops: evaluate the pending generation in any
// partition with EvaluateRange, Absorb the results, and read the merged
// outcome off Result once Done. Search is exactly this loop with one range
// per generation.
type Campaign struct {
	opt Options

	// pending holds the generation awaiting evaluation. Its candidate IDs
	// are contiguous: pending[i].id == pending[0].id + i.
	pending []candidate
	round   int // 0 = initial generation (base + seeds)

	beam      []evaluation
	best      evaluation
	baseline  rat.Rat
	seen      seenSet
	nextID    int
	mutRounds int // mutation generations enumerated (≤ opt.Rounds)
	rounds    int // mutation generations evaluated (Result.Rounds)
	evaluated int

	engineSteps    uint64
	candidateSteps uint64

	done bool
}

// NewCampaign validates opt, fills defaults, and stages the initial
// generation: the unmutated base (candidate 0) plus every seed.
func NewCampaign(opt Options) (*Campaign, error) {
	if err := normalize(&opt); err != nil {
		return nil, err
	}
	n := opt.Net.N()
	initial := []candidate{{id: 0, rates: make([]rat.Rat, n)}}
	for _, s := range opt.Seeds {
		initial = append(initial, candidate{
			id:     len(initial),
			script: s.Script,
			rates:  make([]rat.Rat, n),
			scheds: s.Schedules,
		})
	}
	seen := make(seenSet, len(initial))
	for i := range initial {
		initial[i].hash = hashOf(initial[i])
		seen.add(initial[i].hash, initial[i])
	}
	return &Campaign{
		opt:     opt,
		pending: initial,
		seen:    seen,
		nextID:  len(initial),
	}, nil
}

// Done reports whether the campaign has converged (or failed): no pending
// generation remains and Result is readable.
func (c *Campaign) Done() bool { return c.done }

// NumPending returns the number of candidates awaiting evaluation.
func (c *Campaign) NumPending() int { return len(c.pending) }

// EvaluateRange evaluates the contiguous pending-candidate range [lo, hi).
// Each evaluation keeps only what a beam entry needs: the candidate's ID,
// rates and materialized schedule override (its window swap applied), so
// the script and prefix lineage are released as soon as the range is done.
func (c *Campaign) EvaluateRange(lo, hi int) (*ShardResult, error) {
	if lo < 0 || hi < lo || hi > len(c.pending) {
		return nil, fmt.Errorf("search: shard range [%d, %d) outside pending generation of %d", lo, hi, len(c.pending))
	}
	evals, dispatched := evalAll(c.opt, c.pending[lo:hi])
	for i := range evals {
		cand := evals[i].cand
		evals[i].cand = candidate{id: cand.id, rates: cand.rates, scheds: schedOverride(cand)}
	}
	return &ShardResult{evals: evals, dispatched: dispatched}, nil
}

// Absorb merges the pending generation's results — any partition, any
// order — and advances the campaign: round zero fixes the baseline, every
// round re-reduces the beam, and the greedy fixpoint or round budget ends
// the campaign. The results must evaluate every pending candidate exactly
// once; otherwise Absorb fails and leaves the campaign untouched. A
// candidate evaluation failure surfaces as the same error Search returns.
func (c *Campaign) Absorb(results []*ShardResult) error {
	if c.done {
		return fmt.Errorf("search: campaign already finished")
	}
	if err := c.checkCoverage(results); err != nil {
		return err
	}
	pool := append([]evaluation(nil), c.beam...)
	var failed *evaluation // the lowest-ID evaluation failure
	for _, sr := range results {
		full := fullSteps(sr.evals)
		c.engineSteps += sr.dispatched
		c.candidateSteps += full
		c.opt.Metrics.absorbShard(sr.dispatched, full)
		for i, ev := range sr.evals {
			if ev.err == nil {
				pool = append(pool, ev)
			} else if failed == nil || ev.cand.id < failed.cand.id {
				failed = &sr.evals[i]
			}
		}
	}
	c.evaluated += len(c.pending)
	if m := c.opt.Metrics; m != nil {
		m.Generations.Inc()
		m.Candidates.Add(uint64(len(c.pending)))
	}

	if failed != nil {
		c.done = true
		return c.evalError(failed.cand.id, failed.err)
	}

	// Copy the beam out of the pool so the rest of the generation's
	// evaluations (and their decision logs) can be collected.
	c.beam = append([]evaluation(nil), reduce(pool, c.opt.Beam)...)
	if c.round == 0 {
		for _, ev := range pool {
			if ev.cand.id == 0 {
				c.baseline = ev.value
				break
			}
		}
		c.best = c.beam[0]
		c.advance()
		return nil
	}

	c.rounds++
	if !c.beam[0].value.Greater(c.best.value) {
		c.done = true // no round improvement: greedy fixpoint
		return nil
	}
	c.best = c.beam[0]
	c.advance()
	return nil
}

// checkCoverage requires results to hold exactly one evaluation of every
// pending candidate and nothing else.
func (c *Campaign) checkCoverage(results []*ShardResult) error {
	first := c.pending[0].id
	seen := make([]bool, len(c.pending))
	covered := 0
	for _, sr := range results {
		for _, ev := range sr.evals {
			i := ev.cand.id - first
			if i < 0 || i >= len(seen) {
				return fmt.Errorf("search: shard results carry candidate %d, outside the pending generation", ev.cand.id)
			}
			if seen[i] {
				return fmt.Errorf("search: shard results evaluate candidate %d more than once", ev.cand.id)
			}
			seen[i] = true
			covered++
		}
	}
	if covered != len(seen) {
		return fmt.Errorf("search: shard results cover %d of %d pending candidates", covered, len(seen))
	}
	return nil
}

// evalError maps an evaluation failure onto Search's error shape: base run,
// seed, or candidate.
func (c *Campaign) evalError(id int, cause error) error {
	if c.round == 0 {
		if id == 0 {
			return fmt.Errorf("search: base run: %w", cause)
		}
		return fmt.Errorf("search: seed %q: %w", c.opt.Seeds[id-1].Name, cause)
	}
	return fmt.Errorf("search: candidate %d: %w", id, cause)
}

// advance enumerates the next mutation generation off the merged beam, or
// finishes the campaign when the round budget is spent or no unseen mutation
// remains.
func (c *Campaign) advance() {
	if c.mutRounds >= c.opt.Rounds {
		c.pending = nil
		c.done = true
		return
	}
	var cands []candidate
	for _, parent := range c.beam {
		for _, m := range mutations(c.opt, parent) {
			if !c.seen.add(m.hash, m) {
				continue
			}
			m.id = c.nextID
			c.nextID++
			cands = append(cands, m)
		}
	}
	if len(cands) == 0 {
		c.pending = nil
		c.done = true
		return
	}
	c.mutRounds++
	c.round++
	c.pending = cands
}

// Result returns the merged outcome once the campaign is Done. The Result is
// byte-identical to Search in every field except EngineSteps, which counts
// what this campaign's partition actually dispatched.
func (c *Campaign) Result() (*Result, error) {
	if !c.done {
		return nil, fmt.Errorf("search: campaign not finished (round %d pending)", c.round)
	}
	if c.best.log == nil {
		return nil, fmt.Errorf("search: campaign finished without a best candidate")
	}
	return &Result{
		Objective:      c.opt.Objective,
		Baseline:       c.baseline,
		Best:           c.best.value,
		BestCandidate:  c.best.cand.id,
		Witness:        c.best.witness,
		Script:         c.best.log.Script(),
		Rates:          c.best.cand.rates,
		Schedules:      effectiveScheds(c.opt, c.best.cand),
		Rounds:         c.rounds,
		Evaluated:      c.evaluated,
		EngineSteps:    c.engineSteps,
		CandidateSteps: c.candidateSteps,
	}, nil
}
