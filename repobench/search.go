package main

import (
	"fmt"
	"time"

	"gcs/internal/algorithms"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/obs"
	"gcs/internal/rat"
	"gcs/internal/search"
)

// search: the E13 -long style prefix-cached beam search on a two-node
// network, Gradient under a per-job HashAdversary{Denom: 8} base, with
// windowed rate surgery. A job is one search.Search.

const searchPool = 16

// searchWant is what a search job must reproduce.
type searchWant struct {
	best          string
	bestCandidate int
	evaluated     int
}

// searchGolden holds results recorded with this benchmark at seed 1, keyed
// by the job's HashAdversary seed: a second, fixed expectation next to the
// one set-up computes, so a change that moves both the same way still
// fails at the default seed.
var searchGolden = map[uint64]searchWant{
	0xe4bacea5c4b9b499: {"73/3", 133, 186},
	0x057291b366a5f0bc: {"64/3", 123, 185},
	0x344d52ed413b72b9: {"31", 166, 188},
	0x2af0dc369d7ec21b: {"39/2", 164, 184},
	0xa5093c62ce24d250: {"28", 140, 181},
	0x7dcc28bdfa614c32: {"83/3", 140, 150},
	0x4c22de4fe15a2d1a: {"88/3", 128, 148},
	0x96ce907dcfa2cc0c: {"21", 126, 183},
	0x2ea22d131c154c0d: {"70/3", 141, 155},
	0xeabed64fd12f4cd2: {"28", 179, 187},
	0xe89d687f24e27aec: {"77/3", 143, 188},
	0xddc849129dc9c4b5: {"79/3", 46, 188},
	0x40707d5fa1d85d4b: {"83/3", 45, 186},
	0xfbb18213088bb834: {"39/2", 133, 188},
	0x5e3cc2c0e9919d17: {"19", 163, 194},
	0x8ea1b8cae79d9599: {"79/3", 172, 182},
}

type searchJob struct {
	seed uint64
	base engine.HashAdversary
	want string // searchOut.String() from set-up
}

type searchOut struct {
	searchWant
	baseline                    string
	engineSteps, candidateSteps uint64
	scriptLen                   int
}

func (o searchOut) String() string {
	return fmt.Sprintf("best=%s cand=%d evaluated=%d baseline=%s steps=%d/%d script=%d",
		o.best, o.bestCandidate, o.evaluated, o.baseline, o.engineSteps, o.candidateSteps, o.scriptLen)
}

type searchInst struct {
	opt    search.Options // without Base
	jobs   []searchJob
	golden map[uint64]searchWant
}

func setupSearch(seed uint64, tiny bool) (instance, error) {
	d := int64(32)
	if tiny {
		d = 4
	}
	dd := rat.FromInt(d)
	net, err := network.TwoNode(dd)
	if err != nil {
		return nil, err
	}
	s := &searchInst{
		opt: search.Options{
			Net:            net,
			Protocol:       algorithms.Gradient(algorithms.DefaultGradientParams()),
			Duration:       rat.FromInt(2).Mul(dd),
			Rho:            rat.MustFrac(1, 2),
			Rounds:         3,
			Beam:           2,
			DelayMutations: 8,
			MutateTail:     rat.MustFrac(1, 2),
			RateWindows:    4,
			Workers:        1,
		},
		golden: searchGolden,
	}
	if tiny {
		s.golden = nil
	}
	for k := 0; k < searchPool; k++ {
		js := jobSeed(seed, k)
		j := searchJob{seed: js, base: engine.HashAdversary{Seed: js, Denom: 8}}
		opt := s.opt
		opt.Base = j.base
		res, err := search.Search(opt)
		if err != nil {
			return nil, fmt.Errorf("search job %d: %w", k, err)
		}
		out := summarize(res)
		j.want = out.String()
		if err := s.checkResult(&j, res, out); err != nil {
			return nil, err
		}
		s.jobs = append(s.jobs, j)
	}
	return s, nil
}

func (s *searchInst) pool() int { return len(s.jobs) }

func summarize(res *search.Result) searchOut {
	return searchOut{
		searchWant:     searchWant{best: res.Best.String(), bestCandidate: res.BestCandidate, evaluated: res.Evaluated},
		baseline:       res.Baseline.String(),
		engineSteps:    res.EngineSteps,
		candidateSteps: res.CandidateSteps,
		scriptLen:      len(res.Script),
	}
}

// checkResult replays the winning script under the winning schedules in a
// fresh engine and requires the replay to reach Best exactly, then compares
// the result with the recorded golden values for the job's seed.
func (s *searchInst) checkResult(j *searchJob, res *search.Result, out searchOut) error {
	skew, err := core.NewSkewTracker(s.opt.Net, res.Schedules)
	if err != nil {
		return err
	}
	eng, err := engine.New(s.opt.Net,
		engine.WithProtocol(s.opt.Protocol),
		engine.WithAdversary(res.ReplayAdversary(j.base)),
		engine.WithSchedules(res.Schedules),
		engine.WithRho(s.opt.Rho),
		engine.WithObservers(skew),
	)
	if err != nil {
		return err
	}
	if err := eng.RunUntil(s.opt.Duration); err != nil {
		return fmt.Errorf("search seed %d replay: %w", j.seed, err)
	}
	if err := skew.Err(); err != nil {
		return fmt.Errorf("search seed %d replay: %w", j.seed, err)
	}
	if got := skew.Global().Skew; !got.Equal(res.Best) {
		return fmt.Errorf("search seed %d: replay reaches %s, search reported %s", j.seed, got, res.Best)
	}
	if g, ok := s.golden[j.seed]; ok && g != out.searchWant {
		return fmt.Errorf("search seed %d: got %+v, recorded %+v", j.seed, out.searchWant, g)
	}
	return nil
}

func (s *searchInst) check(j *searchJob, res *search.Result) error {
	out := summarize(res)
	if got := out.String(); got != j.want {
		return fmt.Errorf("search seed %d: got %s, want %s", j.seed, got, j.want)
	}
	return s.checkResult(j, res, out)
}

func (s *searchInst) run(i int) (jobTime, error) {
	j := &s.jobs[i]
	opt := s.opt
	opt.Base = j.base
	start := now()
	res, err := search.Search(opt)
	d := start.elapsed()
	if err != nil {
		return d, err
	}
	return d, s.check(j, res)
}

// campaign drives a search through the public calls search.Search makes,
// charging each to its layer.
func campaign(opt search.Options, t *tracer) (*search.Result, error) {
	t.begin(lSearchOther)
	c, err := search.NewCampaign(opt)
	t.end()
	if err != nil {
		return nil, err
	}
	for !c.Done() {
		t.begin(lSearchEvaluate)
		sr, err := c.EvaluateRange(0, c.NumPending())
		t.end()
		if err != nil {
			return nil, err
		}
		t.begin(lSearchAbsorb)
		err = c.Absorb([]*search.ShardResult{sr})
		t.end()
		if err != nil {
			return nil, err
		}
	}
	t.begin(lSearchOther)
	defer t.end()
	return c.Result()
}

// instrumented returns opt with fresh engine and search counters attached.
func instrumented(opt search.Options) (search.Options, *engine.Metrics, *search.Metrics) {
	em := engine.NewMetrics(obs.NewRegistry())
	sm := search.NewMetrics(obs.NewRegistry())
	opt.EngineMetrics, opt.Metrics = em, sm
	return opt, em, sm
}

func (s *searchInst) traced(i int, t *tracer) (pairRun, error) {
	j := &s.jobs[i]
	var pr pairRun

	opt, plainEng, plainSrch := instrumented(s.opt)
	opt.Base = j.base
	rs := readRuntime()
	start := now()
	plain, err := search.Search(opt)
	pr.plain = start.elapsed().wall
	pr.rt = readRuntime().sub(rs)
	if err != nil {
		return pr, err
	}
	if err := s.check(j, plain); err != nil {
		return pr, err
	}

	topt, tracedEng, tracedSrch := instrumented(s.opt)
	topt.Protocol = wrapProtocol(s.opt.Protocol, t)
	if topt.Base, err = wrapAdversary(j.base, lAdversary, t); err != nil {
		return pr, err
	}
	t.begin(lBench)
	res, err := campaign(topt, t)
	t.end()
	pr.traced = time.Duration(t.incl[lBench])
	if err != nil {
		return pr, fmt.Errorf("traced: %w", err)
	}
	if err := s.check(j, res); err != nil {
		return pr, fmt.Errorf("traced: %w", err)
	}
	pr.eng, pr.srch = readEngine(tracedEng), readSearch(tracedSrch)
	if e := readEngine(plainEng); e != pr.eng {
		return pr, fmt.Errorf("traced engine counters %+v differ from untraced %+v", pr.eng, e)
	}
	if sc := readSearch(plainSrch); sc != pr.srch {
		return pr, fmt.Errorf("traced search counters %+v differ from untraced %+v", pr.srch, sc)
	}
	return pr, nil
}

func (s *searchInst) clockScene(i int) (scene, error) {
	j := &s.jobs[i]
	eng, err := engine.New(s.opt.Net,
		engine.WithProtocol(s.opt.Protocol),
		engine.WithAdversary(engine.ScriptedAdversary{Fallback: j.base}),
		engine.WithRho(s.opt.Rho),
	)
	if err != nil {
		return scene{}, err
	}
	return scene{scheds: eng.Schedules(), scale: eng.FixedScale()}, nil
}
