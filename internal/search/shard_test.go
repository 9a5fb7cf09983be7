package search

import (
	"runtime"
	"strings"
	"testing"
)

// runSharded executes opt as a partitioned campaign: every generation is
// split into `shards` contiguous ranges — empty ranges included — evaluated
// independently via EvaluateRange, and merged with one Absorb, with the
// results handed over in reverse order.
func runSharded(t *testing.T, opt Options, shards int) *Result {
	t.Helper()
	c, err := NewCampaign(opt)
	if err != nil {
		t.Fatal(err)
	}
	for !c.Done() {
		n := c.NumPending()
		results := make([]*ShardResult, 0, shards)
		for s := shards - 1; s >= 0; s-- {
			lo, hi := s*n/shards, (s+1)*n/shards
			sr, err := c.EvaluateRange(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, sr)
		}
		if err := c.Absorb(results); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// shardCounts is the required invariance matrix: a single shard, a small
// split, a shard count exceeding most generations (forcing empty shards),
// and one past the worker-pool width.
func shardCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0) + 1}
}

// TestShardLayoutInvariance: Search over any partition of the candidate pool
// merges to the byte-identical single-pool result. Absorb pools every
// evaluation and reduces once, so the merge loses nothing — whatever the
// layout, including empty shards.
func TestShardLayoutInvariance(t *testing.T) {
	opt := lineOpts(t, 4, 0)
	single, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts() {
		sharded := runSharded(t, lineOpts(t, 4, 0), shards)
		resultsEqual(t, single, sharded)
	}
}

// TestShardLayoutInvarianceWithRateWindows: windowed rate surgery carries
// full schedule overrides into the beam; every partition must enumerate the
// same mutations from them.
func TestShardLayoutInvarianceWithRateWindows(t *testing.T) {
	mk := func() Options {
		opt := lineOpts(t, 3, 0)
		opt.RateWindows = 2
		opt.Rounds = 2
		return opt
	}
	single, err := Search(mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts() {
		sharded := runSharded(t, mk(), shards)
		resultsEqual(t, single, sharded)
	}
}

// TestShardLayoutInvarianceStatefulBase: an adaptive (stateful, cloneable)
// Base is fork- and shard-safe — every shard evaluates against independent
// clones of the initial state, so any layout reproduces the single-pool
// bytes.
func TestShardLayoutInvarianceStatefulBase(t *testing.T) {
	mk := func() Options {
		opt := lineOpts(t, 4, 0)
		opt.Base = adaptiveBase(t, opt.Net, opt.Duration)
		return opt
	}
	single, err := Search(mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts() {
		sharded := runSharded(t, mk(), shards)
		resultsEqual(t, single, sharded)
	}
}

// TestShardCandidateStepsInvariant: CandidateSteps (the from-scratch cost of
// every evaluation) must not depend on the shard layout; EngineSteps may —
// each shard replays its own trunk prefixes — and for any split beyond one
// shard of one pool it strictly exceeds the single-pool dispatch count on a
// prefix-heavy workload.
func TestShardCandidateStepsInvariant(t *testing.T) {
	opt := lineOpts(t, 4, 0)
	single, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts() {
		sharded := runSharded(t, lineOpts(t, 4, 0), shards)
		if sharded.CandidateSteps != single.CandidateSteps {
			t.Fatalf("shards=%d: CandidateSteps %d, single-pool %d",
				shards, sharded.CandidateSteps, single.CandidateSteps)
		}
	}
}

// TestNonCloneableBaseRejectedByCampaign: NewCampaign refuses a stateful,
// non-cloneable Base with the same error as Search, before staging any
// generation.
func TestNonCloneableBaseRejectedByCampaign(t *testing.T) {
	opt := lineOpts(t, 3, 0)
	opt.Base = &pollingAdversary{}
	c, err := NewCampaign(opt)
	if err == nil || !strings.Contains(err.Error(), "not cloneable") {
		t.Fatalf("want a not-cloneable error, got campaign %v, error %v", c, err)
	}
}

// TestAbsorbRejectsIncompleteCoverage: shard results must evaluate every
// pending candidate exactly once; a missing range or a range handed over
// twice is a caller bug, not a silent hole in the pool.
func TestAbsorbRejectsIncompleteCoverage(t *testing.T) {
	opt := lineOpts(t, 3, 0)
	c, err := NewCampaign(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Round 0 is the lone base candidate; absorb it to reach a mutation
	// generation with a real pool.
	sr, err := c.EvaluateRange(0, c.NumPending())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Absorb([]*ShardResult{sr}); err != nil {
		t.Fatal(err)
	}
	n := c.NumPending()
	if n < 2 {
		t.Fatalf("mutation generation has %d candidates, want >= 2", n)
	}
	partial, err := c.EvaluateRange(0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Absorb([]*ShardResult{partial}); err == nil {
		t.Fatal("Absorb accepted partial coverage")
	}
	// Overlapping ranges whose sizes add up to the pool: a prefix is
	// evaluated twice and the tail never.
	head, err := c.EvaluateRange(0, n/2)
	if err != nil {
		t.Fatal(err)
	}
	overlap, err := c.EvaluateRange(0, n-n/2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Absorb([]*ShardResult{head, overlap}); err == nil {
		t.Fatal("Absorb accepted overlapping shards")
	}
	// Full coverage after the rejected absorbs still works: the campaign
	// state must be untouched by the failed merges.
	for !c.Done() {
		full, err := c.EvaluateRange(0, c.NumPending())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Absorb([]*ShardResult{full}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, want, res)
}
