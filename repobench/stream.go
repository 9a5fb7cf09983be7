package main

import (
	"fmt"
	"time"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/obs"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// stream: the E12 streaming run. A job streams one generated input (a
// clock.Diverse schedule set and a HashAdversary{Denom: 8} seed) through
// MaxGossip and then Gradient on a drifting line, with a SkewTracker and a
// ValidityTracker attached and no trace retained. The two protocols run in
// one job so every job does the same mix of work: timed separately their
// times form two clusters, and a median taken between clusters jumps with
// the parity of the job count.

const streamPool = 8

type streamJob struct {
	seed   uint64
	scheds []*clock.Schedule
	adv    engine.HashAdversary
	want   [2]string // per protocol, from the set-up run
}

type streamOut struct {
	events uint64
	global core.PairSkew
	local  core.PairSkew
}

func (o streamOut) String() string {
	return fmt.Sprintf("events=%d global=%s(%d,%d@%s) local=%s(%d,%d@%s)", o.events,
		o.global.Skew, o.global.I, o.global.J, o.global.At,
		o.local.Skew, o.local.I, o.local.J, o.local.At)
}

type streamInst struct {
	net    *network.Network
	rho    rat.Rat
	dur    rat.Rat
	protos [2]engine.Protocol
	jobs   []streamJob
}

func setupStream(seed uint64, tiny bool) (instance, error) {
	n, dur := 129, int64(32)
	if tiny {
		n, dur = 9, 8
	}
	net, err := network.Line(n)
	if err != nil {
		return nil, err
	}
	s := &streamInst{
		net: net,
		rho: rat.MustFrac(1, 2),
		dur: rat.FromInt(dur),
		protos: [2]engine.Protocol{
			algorithms.MaxGossip(rat.FromInt(1)),
			algorithms.Gradient(algorithms.DefaultGradientParams()),
		},
	}
	hi := rat.FromInt(1).Add(s.rho.Div(rat.FromInt(2)))
	for k := 0; k < streamPool; k++ {
		js := jobSeed(seed, k)
		scheds, err := clock.Diverse(n, rat.FromInt(1), hi, 4, js)
		if err != nil {
			return nil, err
		}
		s.jobs = append(s.jobs, streamJob{seed: js, scheds: scheds, adv: engine.HashAdversary{Seed: js, Denom: 8}})
	}
	// Expected outputs. Job 0 of each protocol is recorded and checked
	// against the post-hoc checkers, which share no code with the online
	// trackers; every job's streamed result then becomes its expectation.
	for p := range s.protos {
		if err := s.oracle(&s.jobs[0], p); err != nil {
			return nil, err
		}
	}
	for k := range s.jobs {
		j := &s.jobs[k]
		for p, proto := range s.protos {
			out, err := s.stream(j, proto, j.adv, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("stream job %d %s: %w", k, proto.Name(), err)
			}
			j.want[p] = out.String()
		}
	}
	return s, nil
}

func (s *streamInst) pool() int { return len(s.jobs) }

// stream runs one protocol over job j. With t non-nil the trackers and the
// protocol are wrapped and the run is charged to t's layers.
func (s *streamInst) stream(j *streamJob, proto engine.Protocol, adv engine.Adversary, t *tracer, met *engine.Metrics) (streamOut, error) {
	if t != nil {
		t.begin(lCoreSkew)
	}
	skew, err := core.NewSkewTracker(s.net, j.scheds)
	if t != nil {
		t.end()
	}
	if err != nil {
		return streamOut{}, err
	}
	valid := core.NewValidityTracker(j.scheds)
	var skewObs, validObs engine.Observer = skew, valid
	if t != nil {
		skewObs = &tracedTracker{inner: skew, l: lCoreSkew, t: t}
		validObs = &tracedTracker{inner: valid, l: lCoreValidity, t: t}
		proto = wrapProtocol(proto, t)
		t.begin(lEngine)
	}
	eng, err := engine.New(s.net,
		engine.WithProtocol(proto),
		engine.WithAdversary(adv),
		engine.WithSchedules(j.scheds),
		engine.WithRho(s.rho),
		engine.WithObservers(skewObs, validObs),
		engine.WithMetrics(met),
	)
	if err == nil {
		err = eng.RunUntil(s.dur)
	}
	if t != nil {
		t.end()
	}
	if err != nil {
		return streamOut{}, err
	}
	if err := skew.Err(); err != nil {
		return streamOut{}, fmt.Errorf("skew tracker: %w", err)
	}
	if err := valid.Err(); err != nil {
		return streamOut{}, fmt.Errorf("validity: %w", err)
	}
	return streamOut{events: eng.Steps(), global: skew.Global(), local: skew.Local()}, nil
}

// oracle records job j under protocol p and checks the online trackers
// against the post-hoc checkers over the recorded execution.
func (s *streamInst) oracle(j *streamJob, p int) error {
	skew, err := core.NewSkewTracker(s.net, j.scheds)
	if err != nil {
		return err
	}
	valid := core.NewValidityTracker(j.scheds)
	rec := trace.NewRecorder(s.net.N())
	eng, err := engine.New(s.net,
		engine.WithProtocol(s.protos[p]),
		engine.WithAdversary(j.adv),
		engine.WithSchedules(j.scheds),
		engine.WithRho(s.rho),
		engine.WithObservers(skew, valid, rec),
	)
	if err != nil {
		return err
	}
	if err := eng.RunUntil(s.dur); err != nil {
		return err
	}
	exec, err := eng.Execution(rec)
	if err != nil {
		return err
	}
	name := s.protos[p].Name()
	if g, on := core.GlobalSkew(exec).Skew.String(), skew.Global().Skew.String(); g != on {
		return fmt.Errorf("stream %s: online global skew %s, post-hoc %s", name, on, g)
	}
	if l, on := core.LocalSkew(exec).Skew.String(), skew.Local().Skew.String(); l != on {
		return fmt.Errorf("stream %s: online local skew %s, post-hoc %s", name, on, l)
	}
	if (core.CheckValidity(exec) == nil) != (valid.Err() == nil) {
		return fmt.Errorf("stream %s: online validity %v, post-hoc %v", name, valid.Err(), core.CheckValidity(exec))
	}
	return nil
}

func (s *streamInst) check(j *streamJob, p int, got streamOut) error {
	if g := got.String(); g != j.want[p] {
		return fmt.Errorf("stream %s seed %d: got %s, want %s", s.protos[p].Name(), j.seed, g, j.want[p])
	}
	return nil
}

func (s *streamInst) run(i int) (jobTime, error) {
	j := &s.jobs[i]
	var got [2]streamOut
	var errs [2]error
	start := now()
	for p, proto := range s.protos {
		got[p], errs[p] = s.stream(j, proto, j.adv, nil, nil)
	}
	d := start.elapsed()
	for p := range s.protos {
		if errs[p] != nil {
			return d, errs[p]
		}
		if err := s.check(j, p, got[p]); err != nil {
			return d, err
		}
	}
	return d, nil
}

func (s *streamInst) traced(i int, t *tracer) (pairRun, error) {
	j := &s.jobs[i]
	var pr pairRun
	plainMet := engine.NewMetrics(obs.NewRegistry())
	tracedMet := engine.NewMetrics(obs.NewRegistry())

	rs := readRuntime()
	start := now()
	var plain [2]streamOut
	var errs [2]error
	for p, proto := range s.protos {
		plain[p], errs[p] = s.stream(j, proto, j.adv, nil, plainMet)
	}
	pr.plain = start.elapsed().wall
	pr.rt = readRuntime().sub(rs)

	t.begin(lBench)
	var got [2]streamOut
	var terrs [2]error
	for p, proto := range s.protos {
		adv, err := wrapAdversary(j.adv, lAdversary, t)
		if err != nil {
			t.end()
			return pr, err
		}
		got[p], terrs[p] = s.stream(j, proto, adv, t, tracedMet)
	}
	t.end()
	pr.traced = time.Duration(t.incl[lBench])

	for p := range s.protos {
		if errs[p] != nil {
			return pr, errs[p]
		}
		if terrs[p] != nil {
			return pr, fmt.Errorf("traced: %w", terrs[p])
		}
		if err := s.check(j, p, plain[p]); err != nil {
			return pr, err
		}
		if err := s.check(j, p, got[p]); err != nil {
			return pr, fmt.Errorf("traced: %w", err)
		}
	}
	pr.eng = readEngine(tracedMet)
	if plainEng := readEngine(plainMet); plainEng != pr.eng {
		return pr, fmt.Errorf("traced engine counters %+v differ from untraced %+v", pr.eng, plainEng)
	}
	return pr, nil
}

func (s *streamInst) clockScene(i int) (scene, error) {
	j := &s.jobs[i]
	eng, err := engine.New(s.net,
		engine.WithProtocol(s.protos[0]),
		engine.WithAdversary(j.adv),
		engine.WithSchedules(j.scheds),
		engine.WithRho(s.rho),
	)
	if err != nil {
		return scene{}, err
	}
	return scene{scheds: j.scheds, scale: eng.FixedScale()}, nil
}
