// Package perf is the machinery behind the CI perf-regression gate and the
// benchmark history.
//
// Exact-metric snapshots (BENCH_*.json experiment tables) are deterministic
// and diff-checked in CI, but they cannot see a throughput regression: a
// change that doubles ns/step still produces identical tables. ParseBench +
// Gate implement the gate (cmd/perfgate): parse two `go test -bench` outputs
// (merge base vs head), aggregate each gated benchmark by median across
// -count repetitions, and flag any benchmark whose ns/op or allocs/op
// regressed past its threshold. History and Trend keep the per-commit
// medians in the github-action-benchmark data.js format and flag a slow
// drift that no single pairwise comparison crosses.
package perf

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Gate is the perf-regression policy: per-unit relative thresholds applied
// to the median of each benchmark's repetitions. A zero threshold disables
// that unit's gate.
type Gate struct {
	// MaxNsRegress is the tolerated relative ns/op increase (0.30 = +30%).
	MaxNsRegress float64
	// MaxAllocsRegress is the tolerated relative allocs/op increase
	// (0.20 = +20%).
	MaxAllocsRegress float64
}

// Delta is one gated (benchmark, unit) comparison. Ratio is head/base − 1;
// a base median of zero with a nonzero head reports +Inf (any growth from
// zero is a regression).
type Delta struct {
	Bench    string
	Unit     string
	Base     float64
	Head     float64
	Ratio    float64
	Exceeded bool
}

// Compare gates head against base: for every benchmark present in both runs
// the medians of ns/op and allocs/op
// are compared against the thresholds. Benchmarks present on only one side
// are skipped — a brand-new benchmark has no baseline to regress from, and a
// deleted one has nothing to protect.
func (g Gate) Compare(base, head map[string][]BenchLine) []Delta {
	names := make([]string, 0, len(head))
	for name := range head {
		if _, ok := base[name]; !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)

	var out []Delta
	for _, name := range names {
		for _, gate := range []struct {
			unit      string
			threshold float64
		}{
			{"ns/op", g.MaxNsRegress},
			{"allocs/op", g.MaxAllocsRegress},
		} {
			if gate.threshold <= 0 {
				continue
			}
			b, bok := medianOf(base[name], gate.unit)
			h, hok := medianOf(head[name], gate.unit)
			if !bok || !hok {
				continue
			}
			d := Delta{Bench: name, Unit: gate.unit, Base: b, Head: h}
			switch {
			case b == 0 && h == 0:
				d.Ratio = 0
			case b == 0:
				d.Ratio = math.Inf(1)
			default:
				d.Ratio = h/b - 1
			}
			d.Exceeded = d.Ratio > gate.threshold
			out = append(out, d)
		}
	}
	return out
}

// medianOf returns the median of unit across a benchmark's repetitions,
// reporting false when no repetition carries the unit.
func medianOf(lines []BenchLine, unit string) (float64, bool) {
	vals := make([]float64, 0, len(lines))
	for _, l := range lines {
		if v, ok := l.Values[unit]; ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, false
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2], true
	}
	return (vals[n/2-1] + vals[n/2]) / 2, true
}

// Render formats deltas as an aligned report, flagging exceeded gates.
func Render(deltas []Delta) string {
	if len(deltas) == 0 {
		return "perf gate: no gated benchmarks present in both runs\n"
	}
	var b strings.Builder
	for _, d := range deltas {
		flag := "ok"
		if d.Exceeded {
			flag = "REGRESSION"
		}
		ratio := fmt.Sprintf("%+.1f%%", d.Ratio*100)
		if math.IsInf(d.Ratio, 1) {
			ratio = "+Inf"
		}
		fmt.Fprintf(&b, "%-12s %-44s %-10s %14.1f → %14.1f  (%s)\n",
			flag, d.Bench, d.Unit, d.Base, d.Head, ratio)
	}
	return b.String()
}

// Failures filters deltas down to exceeded gates.
func Failures(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Exceeded {
			out = append(out, d)
		}
	}
	return out
}
