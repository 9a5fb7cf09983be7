package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gcs/internal/perf"
)

const baseOut = `goos: linux
BenchmarkEngineStream/dur=32-8  3  100000 ns/op  1000 allocs/op
BenchmarkEngineStream/dur=32-8  3  102000 ns/op  1000 allocs/op
BenchmarkEngineStream/dur=32-8  3   98000 ns/op  1000 allocs/op
BenchmarkSearchPrefixCached-8   2  500000 ns/op  2000 allocs/op
BenchmarkOther-8                9  100 ns/op     10 allocs/op
PASS
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGatePasses(t *testing.T) {
	head := strings.ReplaceAll(baseOut, "500000 ns/op", "600000 ns/op") // +20% < 30%
	err := run(writeTemp(t, "base.txt", baseOut), writeTemp(t, "head.txt", head),
		0.30, 0.20, os.Stdout)
	if err != nil {
		t.Fatalf("gate must pass within thresholds: %v", err)
	}
}

func TestGateFailsOnNsRegression(t *testing.T) {
	head := strings.ReplaceAll(baseOut, "500000 ns/op", "700000 ns/op") // +40% > 30%
	err := run(writeTemp(t, "base.txt", baseOut), writeTemp(t, "head.txt", head),
		0.30, 0.20, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("want gate failure, got %v", err)
	}
}

func TestGateFailsOnAllocRegression(t *testing.T) {
	head := strings.ReplaceAll(baseOut, "2000 allocs/op", "2500 allocs/op") // +25% > 20%
	err := run(writeTemp(t, "base.txt", baseOut), writeTemp(t, "head.txt", head),
		0.30, 0.20, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("want gate failure, got %v", err)
	}
}

// TestGateFailsOnSkewTrackerDeclareRegression: every benchmark in both
// inputs is gated, so a 5× slower SkewTrackerDeclare/n=16 fails the run and
// gets its own report row.
func TestGateFailsOnSkewTrackerDeclareRegression(t *testing.T) {
	base := baseOut + "BenchmarkSkewTrackerDeclare/n=16-8  9  2500 ns/op  0 allocs/op\n"
	head := strings.ReplaceAll(base, "2500 ns/op", "12500 ns/op")
	out, err := os.CreateTemp(t.TempDir(), "report")
	if err != nil {
		t.Fatal(err)
	}
	err = run(writeTemp(t, "base.txt", base), writeTemp(t, "head.txt", head), 0.30, 0.20, out)
	if err == nil || !strings.Contains(err.Error(), "1 perf gate(s) exceeded") {
		t.Fatalf("want one exceeded gate, got %v", err)
	}
	report, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "BenchmarkSkewTrackerDeclare/n=16") {
		t.Fatalf("report has no SkewTrackerDeclare row:\n%s", report)
	}
}

func TestGateRejectsEmptyIntersection(t *testing.T) {
	err := run(writeTemp(t, "base.txt", "PASS\n"), writeTemp(t, "head.txt", baseOut),
		0.30, 0.20, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "no gated benchmarks") {
		t.Fatalf("empty intersection must be an error, got %v", err)
	}
}

func TestAppendBootstrapsAndExtendsHistory(t *testing.T) {
	head := writeTemp(t, "head.txt", baseOut)
	history := filepath.Join(t.TempDir(), "bench", "data.js")
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

	// First append bootstraps a fresh data.js under a fresh directory.
	err := runAppend(head, history, "abc123", "first commit",
		"https://example.com/owner/repo", now, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(history)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "window.BENCHMARK_DATA = ") {
		t.Fatalf("history missing data.js assignment prefix: %q", raw[:40])
	}
	h, err := perf.ParseHistory(raw)
	if err != nil {
		t.Fatal(err)
	}
	entries := h.Entries[perf.HistorySeries]
	if len(entries) != 1 {
		t.Fatalf("bootstrap wrote %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Commit.ID != "abc123" || e.Commit.URL != "https://example.com/owner/repo/commit/abc123" {
		t.Fatalf("bad commit record: %+v", e.Commit)
	}
	if e.Date != now.UnixMilli() || h.LastUpdate != now.UnixMilli() {
		t.Fatalf("bad dates: entry %d, lastUpdate %d", e.Date, h.LastUpdate)
	}
	// Every benchmark of the input (ns + allocs each), median of the three
	// EngineStream repetitions.
	if len(e.Benches) != 6 {
		t.Fatalf("recorded %d figures, want 6: %+v", len(e.Benches), e.Benches)
	}
	for _, b := range e.Benches {
		if strings.HasPrefix(b.Name, "BenchmarkEngineStream") && b.Unit == "ns/op" && b.Value != 100000 {
			t.Fatalf("EngineStream median = %v, want 100000", b.Value)
		}
	}

	// Second append extends, preserving the first entry.
	later := now.Add(time.Hour)
	err = runAppend(head, history, "def456", "second commit", "", later, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(history)
	if err != nil {
		t.Fatal(err)
	}
	if h, err = perf.ParseHistory(raw); err != nil {
		t.Fatal(err)
	}
	entries = h.Entries[perf.HistorySeries]
	if len(entries) != 2 || entries[0].Commit.ID != "abc123" || entries[1].Commit.ID != "def456" {
		t.Fatalf("append did not extend history: %+v", entries)
	}
	if h.RepoURL != "https://example.com/owner/repo" {
		t.Fatalf("append without -repo-url dropped the recorded URL: %q", h.RepoURL)
	}
	if h.LastUpdate != later.UnixMilli() {
		t.Fatalf("lastUpdate not advanced: %d", h.LastUpdate)
	}
}

func TestAppendRejectsEmptyMatch(t *testing.T) {
	head := writeTemp(t, "head.txt", "PASS\n")
	history := filepath.Join(t.TempDir(), "data.js")
	err := runAppend(head, history, "abc", "", "", time.Now(), os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "nothing to record") {
		t.Fatalf("want nothing-to-record error, got %v", err)
	}
	if _, statErr := os.Stat(history); !os.IsNotExist(statErr) {
		t.Fatal("failed append must not write the history file")
	}
}
