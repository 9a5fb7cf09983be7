package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// The bench-history file is the github-action-benchmark data.js format: a
// JavaScript assignment whose right-hand side is a JSON document holding one
// measurement entry per gated commit. CI appends the perf measurements of
// every main-branch commit (cmd/perfgate -append), turning the PR-time perf
// gate's point comparisons into a browsable trend curve under dev/bench/.

// historyPrefix is the assignment wrapper around the JSON payload.
const historyPrefix = "window.BENCHMARK_DATA = "

// HistorySeries is the default entry series name.
const HistorySeries = "Go Benchmark"

// HistoryCommit identifies the commit an entry measures.
type HistoryCommit struct {
	ID        string `json:"id"`
	Message   string `json:"message"`
	Timestamp string `json:"timestamp"`
	URL       string `json:"url"`
}

// HistoryBench is one benchmark figure of an entry.
type HistoryBench struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Extra string  `json:"extra,omitempty"`
}

// HistoryEntry is one commit's measurements.
type HistoryEntry struct {
	Commit  HistoryCommit  `json:"commit"`
	Date    int64          `json:"date"` // unix milliseconds
	Tool    string         `json:"tool"`
	Benches []HistoryBench `json:"benches"`
}

// History is the whole data.js document.
type History struct {
	LastUpdate int64                     `json:"lastUpdate"` // unix milliseconds
	RepoURL    string                    `json:"repoUrl"`
	Entries    map[string][]HistoryEntry `json:"entries"`
}

// ParseHistory reads a data.js document. Empty (or all-whitespace) input
// yields a fresh history, so the first CI append bootstraps the file.
func ParseHistory(data []byte) (*History, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return &History{Entries: map[string][]HistoryEntry{}}, nil
	}
	trimmed = bytes.TrimPrefix(trimmed, []byte(historyPrefix))
	var h History
	if err := json.Unmarshal(trimmed, &h); err != nil {
		return nil, fmt.Errorf("perf: parse bench history: %w", err)
	}
	if h.Entries == nil {
		h.Entries = map[string][]HistoryEntry{}
	}
	return &h, nil
}

// Append adds one entry to a series and advances LastUpdate.
func (h *History) Append(series string, e HistoryEntry) {
	h.Entries[series] = append(h.Entries[series], e)
	if e.Date > h.LastUpdate {
		h.LastUpdate = e.Date
	}
}

// Render renders the history back into the data.js assignment form.
func (h *History) Render() ([]byte, error) {
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(append([]byte(historyPrefix), data...), '\n'), nil
}

// EntryFromBench condenses parsed `go test -bench` output into one history
// entry: per benchmark, the median ns/op and allocs/op across its -count
// repetitions — the same aggregation the perf gate applies, so the curve
// and the gate agree on every point.
func EntryFromBench(lines map[string][]BenchLine, commit HistoryCommit, date int64) HistoryEntry {
	names := make([]string, 0, len(lines))
	for name := range lines {
		names = append(names, name)
	}
	sort.Strings(names)
	e := HistoryEntry{Commit: commit, Date: date, Tool: "go"}
	for _, name := range names {
		reps := lines[name]
		extra := fmt.Sprintf("%d reps", len(reps))
		if ns, ok := medianOf(reps, "ns/op"); ok {
			e.Benches = append(e.Benches, HistoryBench{Name: name, Value: ns, Unit: "ns/op", Extra: extra})
		}
		if allocs, ok := medianOf(reps, "allocs/op"); ok {
			e.Benches = append(e.Benches, HistoryBench{Name: name + " - allocs", Value: allocs, Unit: "allocs/op", Extra: extra})
		}
	}
	return e
}
