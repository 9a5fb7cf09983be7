package search

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// captureLog runs the gradient protocol on a small line under the midpoint
// adversary and returns the realized decision log — a deterministic run, so
// its serialized form is golden-file stable.
func captureLog(t *testing.T) *DecisionLog {
	t.Helper()
	net, err := network.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	scheds := []*clock.Schedule{
		clock.Constant(ri(1)),
		clock.Constant(rf(9, 8)),
		clock.Constant(rf(7, 8)),
	}
	log := NewDecisionLog(net)
	eng, err := engine.New(net,
		engine.WithProtocol(algorithms.Gradient(algorithms.DefaultGradientParams())),
		engine.WithAdversary(engine.Midpoint()),
		engine.WithSchedules(scheds),
		engine.WithRho(rf(1, 4)),
		engine.WithObservers(log),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(ri(6)); err != nil {
		t.Fatal(err)
	}
	if log.Len() == 0 {
		t.Fatal("run captured no decisions")
	}
	return log
}

// TestDecisionLogJSONRoundTrip: the serialized form must reproduce every
// decision — and the derived script — bit for bit.
func TestDecisionLogJSONRoundTrip(t *testing.T) {
	log := captureLog(t)
	data, err := json.Marshal(log)
	if err != nil {
		t.Fatal(err)
	}
	back := new(DecisionLog)
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != log.Len() {
		t.Fatalf("decoded %d decisions, want %d", back.Len(), log.Len())
	}
	for i, d := range log.Decisions() {
		b := back.Decisions()[i]
		if b.Key != d.Key || !b.SendReal.Equal(d.SendReal) || !b.Delay.Equal(d.Delay) ||
			!b.Bound.Equal(d.Bound) || b.Event != d.Event {
			t.Fatalf("decision %d differs: %+v vs %+v", i, b, d)
		}
	}
	if script, backScript := log.Script(), back.Script(); !backScript.Equal(script) {
		t.Fatalf("decoded script differs:\n%v\nvs\n%v", backScript, script)
	}
	// The round-trip is idempotent: re-encoding the decoded log yields the
	// same bytes.
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("re-encoded log differs:\n%s\nvs\n%s", again, data)
	}
}

// TestDecisionLogGolden pins the serialized form against a committed golden
// file: the format is a compatibility surface (saved adversaries), so
// accidental format drift must fail loudly. Regenerate with `go test ./internal/search -run Golden -update`.
func TestDecisionLogGolden(t *testing.T) {
	log := captureLog(t)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(log); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "decisionlog.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("serialized DecisionLog drifted from golden file %s:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
	// The golden bytes themselves decode into a replayable log.
	back := new(DecisionLog)
	if err := json.Unmarshal(want, back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != log.Len() {
		t.Fatalf("golden decodes to %d decisions, want %d", back.Len(), log.Len())
	}
	if adv := back.Scripted(engine.Midpoint()); len(adv.Delays) != len(log.Script()) {
		t.Fatalf("decoded log scripts %d delays, want %d", len(adv.Delays), len(log.Script()))
	}
}

// TestDecisionLogUnmarshalRejectsMalformed: a decoded log must be one some
// run could have produced. Each row breaks one property of the valid base
// and must fail with an error naming it; the base itself decodes.
func TestDecisionLogUnmarshalRejectsMalformed(t *testing.T) {
	const (
		first = `{"from":0,"to":1,"seq":0,"send_real":"0","delay":"1/2","bound":"1","event":1}`
		valid = `{"from":1,"to":0,"seq":0,"send_real":"1","delay":"1","bound":"1","event":2}`
	)
	decode := func(second string) error {
		return json.Unmarshal([]byte(`{"decisions":[`+first+`,`+second+`],"events":3}`), new(DecisionLog))
	}
	if err := decode(valid); err != nil {
		t.Fatalf("valid log rejected: %v", err)
	}
	for _, tc := range []struct{ name, second, want string }{
		{"duplicate key", `{"from":0,"to":1,"seq":0,"send_real":"1","delay":"1","bound":"1","event":2}`, "two delays (1/2 and 1) for message 0→1 seq 0"},
		{"negative from", `{"from":-1,"to":0,"seq":0,"send_real":"1","delay":"1","bound":"1","event":2}`, "decision 1: negative endpoint in -1→0"},
		{"negative to", `{"from":1,"to":-2,"seq":0,"send_real":"1","delay":"1","bound":"1","event":2}`, "decision 1: negative endpoint in 1→-2"},
		{"self message", `{"from":1,"to":1,"seq":0,"send_real":"1","delay":"1","bound":"1","event":2}`, "decision 1: message from node 1 to itself"},
		{"negative delay", `{"from":1,"to":0,"seq":0,"send_real":"1","delay":"-1/4","bound":"1","event":2}`, "delay -1/4 outside [0, 1]"},
		{"delay beyond bound", `{"from":1,"to":0,"seq":0,"send_real":"1","delay":"3/2","bound":"1","event":2}`, "delay 3/2 outside [0, 1]"},
		{"decreasing event", `{"from":1,"to":0,"seq":0,"send_real":"1","delay":"1","bound":"1","event":0}`, "decision 1: event 0 precedes decision 0's event 1"},
	} {
		if err := decode(tc.second); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestDecisionLogScriptCache: Script is built once and shared until the log
// captures another decision, which the next Script then includes.
func TestDecisionLogScriptCache(t *testing.T) {
	net, err := network.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	log := mustLog(t, net, []trace.MsgRecord{{Key: trace.MsgKey{From: 1, To: 2, Seq: 0}, Delay: rf(1, 2)}})
	first := log.Script()
	if again := log.Script(); len(first) != 1 || &again[0] != &first[0] {
		t.Fatalf("Script rebuilt or wrong before a new decision: %v", first)
	}
	log.OnSend(trace.MsgRecord{Key: trace.MsgKey{From: 0, To: 1, Seq: 0}, Delay: ri(1)})
	want, err := engine.NewScript([]engine.ScriptEntry{
		{Key: trace.MsgKey{From: 1, To: 2, Seq: 0}, Delay: rf(1, 2)},
		{Key: trace.MsgKey{From: 0, To: 1, Seq: 0}, Delay: ri(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := log.Script(); !got.Equal(want) || len(first) != 1 {
		t.Fatalf("after a new decision Script = %v, want %v (first %v)", got, want, first)
	}
}
