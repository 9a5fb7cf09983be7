package core

import (
	"fmt"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// declRecorder records every logical-clock declaration of a run.
type declRecorder struct{ decls []trace.Decl }

func (r *declRecorder) OnAction(trace.Action)     {}
func (r *declRecorder) OnSend(trace.MsgRecord)    {}
func (r *declRecorder) OnDeliver(trace.MsgRecord) {}
func (r *declRecorder) OnDeclare(d trace.Decl)    { r.decls = append(r.decls, d) }

// declStream is a recorded MaxGossip run on an n-node drifting line (the
// E12 stream shape): the declarations in dispatch order, the engine's tick
// scale, and the horizon.
type declStream struct {
	net    *network.Network
	scheds []*clock.Schedule
	decls  []trace.Decl
	scale  int64
	dur    rat.Rat
}

func recordDeclStream(tb testing.TB, n int, dur int64) declStream {
	tb.Helper()
	net, err := network.Line(n)
	if err != nil {
		tb.Fatal(err)
	}
	scheds, err := clock.Diverse(n, rat.FromInt(1), rat.MustFrac(5, 4), 4, 7)
	if err != nil {
		tb.Fatal(err)
	}
	rec := &declRecorder{}
	eng, err := engine.New(net,
		engine.WithProtocol(algorithms.MaxGossip(rat.FromInt(1))),
		engine.WithAdversary(engine.HashAdversary{Seed: 7, Denom: 8}),
		engine.WithSchedules(scheds),
		engine.WithRho(rat.MustFrac(1, 2)),
		engine.WithObservers(rec),
	)
	if err != nil {
		tb.Fatal(err)
	}
	if err := eng.RunUntil(rat.FromInt(dur)); err != nil {
		tb.Fatal(err)
	}
	return declStream{net: net, scheds: scheds, decls: rec.decls, scale: eng.FixedScale(), dur: rat.FromInt(dur)}
}

// replay feeds the stream into a fresh tracker on the stream's lane and
// closes it out at the horizon.
func (s declStream) replay(tb testing.TB) *SkewTracker {
	st, err := NewSkewTracker(s.net, s.scheds)
	if err != nil {
		tb.Fatal(err)
	}
	st.AdoptFixedLane(s.scale)
	for _, d := range s.decls {
		st.OnDeclare(d)
	}
	st.Flush(s.dur)
	if err := st.Err(); err != nil {
		tb.Fatal(err)
	}
	return st
}

var benchSink *SkewTracker

// BenchmarkSkewTrackerDeclare is the tracker's layer benchmark: it replays a
// recorded declaration stream of a drifting line into a fresh tracker (rate
// breaks and the final flush included) and reports the cost per
// declaration, isolated from the engine and the protocol.
func BenchmarkSkewTrackerDeclare(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := recordDeclStream(b, n, 32)
			if s.scale == 0 {
				b.Fatal("stream not on the fixed lane")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = s.replay(b)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s.decls)), "ns/declare")
			b.ReportMetric(float64(len(s.decls)), "declares/op")
		})
	}
}

// TestSkewTrackerDeclareAllocs is the tracker's allocation budget: on a
// warmed 64-node tick-lane tracker, a declaration — its left-limit sweep,
// the deferred right-limit sweeps and rate breaks it triggers — allocates
// nothing.
func TestSkewTrackerDeclareAllocs(t *testing.T) {
	s := recordDeclStream(t, 64, 32)
	if s.scale == 0 {
		t.Fatal("stream not on the fixed lane")
	}
	st, err := NewSkewTracker(s.net, s.scheds)
	if err != nil {
		t.Fatal(err)
	}
	st.AdoptFixedLane(s.scale)
	half := len(s.decls) / 2
	for _, d := range s.decls[:half] {
		st.OnDeclare(d)
	}
	next := half
	allocs := testing.AllocsPerRun(len(s.decls)-half-1, func() {
		st.OnDeclare(s.decls[next])
		next++
	})
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("OnDeclare allocates %v per declaration on a warmed tick-lane tracker, want 0", allocs)
	}
}
