package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/redteam"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// maxPresentations caps one campaign, as in the Red Team exercise.
const maxPresentations = 24

// Presentations until the patch holds, per defect: the hand-written
// expectation each campaign is checked against. Defects not listed take
// the default.
var (
	livePresentations   = map[string]int{"269095": 6, "295854": 5, "311710": 10, "320182": 6}
	replayPresentations = map[string]int{"311710": 4}
)

const (
	liveDefault   = 4
	replayDefault = 2
)

func exploitByID(id string) (redteam.Exploit, error) {
	for _, ex := range redteam.AllExploits() {
		if ex.Bugzilla == id {
			return ex, nil
		}
	}
	return redteam.Exploit{}, fmt.Errorf("unknown exploit %s", id)
}

// attack is one generated attack: a defect, the variant drawn for it,
// and the input presented.
type attack struct {
	ex      redteam.Exploit
	variant int
	input   []byte
}

// campaigns runs Table 1 campaigns: every repairable defect once per
// sweep, in a seeded order with seeded variants, each on a fresh
// instance, until the first presentation survives.
type campaigns struct {
	seed     uint64
	replay   bool
	reg      *obs.Registry
	app      *webapp.App
	base     *redteam.Setup // default learning corpus
	expanded *redteam.Setup // the expanded corpus 325403 needs
	sweeps   []attack       // one round
}

func newCampaigns(seed uint64, reg *obs.Registry, replay bool) workload {
	return &campaigns{seed: seed, reg: reg, replay: replay}
}

// sweepsPerRound is the most variants any defect has: a round of that
// many sweeps presents every variant of every defect equally often.
const sweepsPerRound = 3

// drawRound draws one round of sweeps. Each sweep presents every
// repairable defect once, in a seeded order; each defect's variants are
// dealt to the sweeps in a seeded order, so the round's mix of
// (defect, variant) pairs is the same for every seed.
func drawRound(seed uint64, app *webapp.App) []attack {
	r := rand.New(rand.NewPCG(seed, 2))
	var exs []redteam.Exploit
	for _, ex := range redteam.AllExploits() {
		if ex.Repairable {
			exs = append(exs, ex)
		}
	}
	deal := make([][]int, len(exs))
	for i, ex := range exs {
		for len(deal[i]) < sweepsPerRound {
			deal[i] = append(deal[i], r.Perm(ex.Variants)...)
		}
	}
	var round []attack
	for s := 0; s < sweepsPerRound; s++ {
		for _, k := range r.Perm(len(exs)) {
			ex, v := exs[k], deal[k][s]
			round = append(round, attack{ex: ex, variant: v, input: redteam.AttackInput(app, ex, v)})
		}
	}
	return round
}

func (c *campaigns) setup(rec *recorder) error {
	var err error
	rec.timed("webapp.Build", func() { c.app, err = webapp.Build() })
	if err != nil {
		return err
	}
	db, err := learn(rec, c.app, redteam.LearningCorpus())
	if err != nil {
		return err
	}
	c.base = &redteam.Setup{App: c.app, DB: db}
	if db, err = learn(rec, c.app, redteam.ExpandedCorpus()); err != nil {
		return err
	}
	c.expanded = &redteam.Setup{App: c.app, DB: db}
	c.sweeps = drawRound(c.seed, c.app)
	return nil
}

// config builds the instance one campaign runs on, with the values the
// redteam Setup helpers use, plus the stage tracer when tracing.
func (c *campaigns) config(a attack, tr *obs.Tracer) core.Config {
	s := c.base
	if a.ex.NeedsExpandedCorpus {
		s = c.expanded
	}
	conf := core.Config{
		Image:          s.App.Image,
		Invariants:     s.DB,
		StackScope:     a.ex.NeedsStackScope,
		MemoryFirewall: true,
		HeapGuard:      true,
		ShadowStack:    true,
		FaultGuard:     true,
		HangGuard:      true,
		Obs:            tr,
	}
	if c.replay {
		conf.Replay = &core.ReplayConfig{Workers: runtime.NumCPU()}
	}
	return conf
}

func (c *campaigns) expected(id string) int {
	if c.replay {
		if n, ok := replayPresentations[id]; ok {
			return n
		}
		return replayDefault
	}
	if n, ok := livePresentations[id]; ok {
		return n
	}
	return liveDefault
}

func (c *campaigns) round(m *meter) error {
	for _, a := range c.sweeps {
		var err error
		m.op("campaign", func() (time.Duration, string, error) {
			m.collect()
			var cv *core.ClearView
			m.rec.timed("core.New", func() { cv, err = core.New(c.config(a, m.tr)) })
			if err != nil {
				return 0, "", err
			}
			presentations := 0
			var steps, hooks uint64
			start := time.Now()
			for i := 1; i <= maxPresentations && presentations == 0; i++ {
				var res vm.RunResult
				t := time.Now()
				m.rec.timed("core.Execute", func() { res = cv.Execute(a.input) })
				m.add("executes", 1)
				m.add("execute_ns", float64(time.Since(t)))
				steps += res.Steps
				hooks += res.HookRuns
				if res.Outcome == vm.OutcomeExit && res.ExitCode == 0 {
					presentations = i
				}
			}
			protect := time.Since(start)
			replayRuns := c.addCases(m, cv)
			m.add("presentations", float64(presentations))
			sig := fmt.Sprintf("%s/%d presentations=%d replay=%d steps=%d hooks=%d",
				a.ex.Bugzilla, a.variant, presentations, replayRuns, steps, hooks)
			if want := c.expected(a.ex.Bugzilla); presentations != want {
				return protect, sig, fmt.Errorf("%s variant %d: patched after %d presentations, want %d",
					a.ex.Bugzilla, a.variant, presentations, want)
			}
			return protect, sig, nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// addCases accumulates the per-layer accounting of every failure case
// the campaign opened and returns its offline replay count.
func (c *campaigns) addCases(m *meter, cv *core.ClearView) int {
	replayRuns := 0
	for _, fc := range cv.Cases() {
		mt := fc.Metrics
		m.add("correlate.candidates", float64(mt.CandidateCount))
		m.add("correlate.checks", float64(mt.CheckExecs))
		m.add("correlate.violations", float64(mt.CheckViolations))
		m.add("correlate.check_run_ns", float64(mt.CheckRunTime))
		m.add("correlate.build_checks_ns", float64(mt.BuildChecks))
		m.add("repair.repairs", float64(mt.RepairCount))
		m.add("repair.build_ns", float64(mt.BuildRepairs))
		m.add("evaluate.unsuccessful", float64(mt.Unsuccessful))
		m.add("evaluate.repair_run_ns", float64(mt.RepairRunTime))
		m.add("replay.runs", float64(mt.ReplayRuns))
		m.add("replay.discards", float64(mt.ReplayDiscards))
		m.add("replay.time_ns", float64(mt.ReplayTime))
		if mt.ReplayRuns > 0 {
			m.add("replay.farmed", float64(mt.RepairCount))
		}
		if fc.State == core.StatePatched {
			m.add("evaluate.adopted", 1)
		}
		if fc.Evaluator != nil {
			for _, e := range fc.Evaluator.Entries() {
				if e.Successes+e.Failures > 0 {
					m.add("evaluate.tried", 1)
				}
			}
		}
		replayRuns += mt.ReplayRuns
	}
	return replayRuns
}

func (c *campaigns) finish(m *meter, s *sheet) {
	s.add("campaigns_per_s", m.opsPerSecond(), "1/s")
	s.add("protect_p50_ms", m.latency(0.50), "ms")
	s.add("protect_p90_ms", m.latency(0.90), "ms")
	s.add("presentations_mean", m.perOp("presentations"), "count")
	if m.tr == nil {
		return
	}
	addExecuteLayers(m, s)
	perOpMs := func(key string) float64 { return m.perOp(key) / 1e6 }
	s.add("correlate.candidates", m.perOp("correlate.candidates"), "count")
	s.add("correlate.checks", m.perOp("correlate.checks"), "count")
	s.add("correlate.violations", m.perOp("correlate.violations"), "count")
	s.add("correlate.check_run_ms", perOpMs("correlate.check_run_ns"), "ms")
	s.add("correlate.build_checks_us", perOpMs("correlate.build_checks_ns")*1e3, "us")
	s.add("correlate.self_ms", m.stageMsPerOp("correlate"), "ms")
	s.add("repair.repairs", m.perOp("repair.repairs"), "count")
	s.add("repair.build_us", perOpMs("repair.build_ns")*1e3, "us")
	s.add("evaluate.unsuccessful", m.perOp("evaluate.unsuccessful"), "count")
	s.add("evaluate.useful_ratio", m.ratio("evaluate.adopted", "evaluate.tried"), "ratio")
	s.add("evaluate.repair_run_ms", perOpMs("evaluate.repair_run_ns"), "ms")
	s.add("replay.runs", m.perOp("replay.runs"), "count")
	s.add("replay.discards", m.perOp("replay.discards"), "count")
	survivors := 0.0
	if f := m.acc["replay.farmed"]; f > 0 {
		survivors = (f - m.acc["replay.discards"]) / f
	}
	s.add("replay.survivor_ratio", survivors, "ratio")
	s.add("replay.time_ms", perOpMs("replay.time_ns"), "ms")
	s.add("replay.farm_ms", m.stageMsPerOp("farm"), "ms")
	s.add("replay.vet_ms", m.stageMsPerOp("vet"), "ms")
	s.add("replay.record_seal_ms", m.stageMsPerOp("record.seal"), "ms")
}

// probe runs the machine layer on the sweep's attack inputs, and the
// monitors' cost on the legitimate pages that follow every attack.
func (c *campaigns) probe(rec *recorder, s *sheet) error {
	inputs := make([][]byte, len(c.sweeps))
	for i, a := range c.sweeps {
		inputs[i] = a.input
	}
	return probeMachine(rec, s, c.app, inputs, followOnPages())
}

// followOnPages is the legitimate input that follows every attack page.
func followOnPages() [][]byte {
	eval := redteam.EvaluationPages()
	return [][]byte{redteam.Input(eval[0], eval[1])}
}
