package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/daikon"
	"repro/internal/obs"
	"repro/internal/redteam"
	"repro/internal/replay"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// autoimmuneDefects are the defects the pages fixture is patched against
// before any page is served: every repairable defect a scope-2 instance
// built on the default learning corpus can patch.
var autoimmuneDefects = []string{"269095", "285595", "290162", "295854", "296134", "311710", "312278", "320182"}

// sessionMix is the exact number of sessions of 1, 2, 3 and 4 pages in
// one round: 456 pages, eight times each of the 57 evaluation pages. The
// median session is a two-page one and the top percentile falls among
// the four-page ones, whatever the seed.
var sessionMix = [4]int{60, 80, 40, 29}

// pages serves legitimate browsing sessions on an instance that set-up
// already patched: Table 2's traffic on a deployed ClearView.
type pages struct {
	seed     uint64
	reg      *obs.Registry
	sessions [][]byte
	want     [][]byte // bare output of each session, the oracle
	app      *webapp.App
	cv       *core.ClearView // untraced instance
	cvTraced *core.ClearView // same instance with the stage tracer on
}

func newPages(seed uint64, reg *obs.Registry) workload { return &pages{seed: seed, reg: reg} }

// drawSessions builds one round of sessions from the seed. Pages come
// from successive seeded permutations of the evaluation pages, so every
// page is served equally often in every round.
func drawSessions(seed uint64, eval [][]byte) [][]byte {
	r := rand.New(rand.NewPCG(seed, 1))
	var lengths []int
	for k, n := range sessionMix {
		for i := 0; i < n; i++ {
			lengths = append(lengths, k+1)
		}
	}
	r.Shuffle(len(lengths), func(i, j int) { lengths[i], lengths[j] = lengths[j], lengths[i] })
	var perm []int
	next := func() []byte {
		if len(perm) == 0 {
			perm = r.Perm(len(eval))
		}
		p := perm[0]
		perm = perm[1:]
		return eval[p]
	}
	sessions := make([][]byte, len(lengths))
	for i, n := range lengths {
		parts := make([][]byte, n)
		for j := range parts {
			parts[j] = next()
		}
		sessions[i] = redteam.Input(parts...)
	}
	return sessions
}

func (p *pages) setup(rec *recorder) error {
	var err error
	rec.timed("webapp.Build", func() { p.app, err = webapp.Build() })
	if err != nil {
		return err
	}
	db, err := learn(rec, p.app, redteam.LearningCorpus())
	if err != nil {
		return err
	}
	setup := &redteam.Setup{App: p.app, DB: db}
	p.cv, err = patchedInstance(rec, "patch", setup)
	if err != nil {
		return err
	}
	if p.reg != nil {
		setup.Obs = obs.NewTracer(p.reg)
		if p.cvTraced, err = patchedInstance(rec, "patch.traced", setup); err != nil {
			return err
		}
	}
	p.sessions = drawSessions(p.seed, redteam.EvaluationPages())
	p.want = make([][]byte, len(p.sessions))
	done := rec.start("reference")
	defer done()
	for i, in := range p.sessions {
		res, _, err := runBare(p.app, in, vm.TraceDisabled)
		if err != nil {
			return err
		}
		if res.Outcome != vm.OutcomeExit || res.ExitCode != 0 {
			return fmt.Errorf("session %d fails on the bare application: %v", i, res.Outcome)
		}
		p.want[i] = res.Output
	}
	return nil
}

// learn runs the learning phase on one corpus.
func learn(rec *recorder, app *webapp.App, corpus []byte) (*daikon.DB, error) {
	done := rec.start("core.Learn")
	defer done()
	db, _, err := core.Learn(app.Image, core.LearnConfig{Inputs: [][]byte{corpus}})
	return db, err
}

// patchedInstance builds a scope-2 instance and patches it against
// every autoimmune defect.
func patchedInstance(rec *recorder, span string, s *redteam.Setup) (*core.ClearView, error) {
	done := rec.start(span)
	defer done()
	cv, err := s.ClearView(2)
	if err != nil {
		return nil, err
	}
	for _, id := range autoimmuneDefects {
		ex, err := exploitByID(id)
		if err != nil {
			return nil, err
		}
		if res := redteam.RunSingleVariant(cv, s.App, ex, 24); !res.Patched {
			return nil, fmt.Errorf("set-up could not patch %s", id)
		}
	}
	return cv, nil
}

func (p *pages) round(m *meter) error {
	cv := p.cv
	if m.tr != nil {
		cv = p.cvTraced
	}
	for i, in := range p.sessions {
		m.op("session", func() (time.Duration, string, error) {
			var res vm.RunResult
			start := time.Now()
			m.rec.timed("core.Execute", func() { res = cv.Execute(in) })
			lat := time.Since(start)
			m.add("executes", 1)
			m.add("execute_ns", float64(lat))
			sig := fmt.Sprintf("steps=%d hooks=%d", res.Steps, res.HookRuns)
			switch {
			case res.Outcome != vm.OutcomeExit || res.ExitCode != 0:
				return lat, sig, fmt.Errorf("session %d: outcome %v exit %d", i, res.Outcome, res.ExitCode)
			case !bytes.Equal(res.Output, p.want[i]):
				return lat, sig, fmt.Errorf("session %d: output differs from the bare application", i)
			}
			return lat, sig, nil
		})
	}
	return nil
}

func (p *pages) finish(m *meter, s *sheet) {
	s.add("req_per_s", m.opsPerSecond(), "1/s")
	s.add("req_p50_ms", m.latency(0.50), "ms")
	s.add("req_p99_ms", m.latency(0.99), "ms")
	if m.tr != nil {
		addExecuteLayers(m, s)
	}
}

// probe times the machine layer directly on one round's sessions: vm.New
// and VM.Run with every monitor, and a bare Run for the monitors' cost.
func (p *pages) probe(rec *recorder, s *sheet) error {
	return probeMachine(rec, s, p.app, p.sessions, p.sessions)
}

// runBare runs input on the application with no monitor and returns the
// result and the time VM.Run took.
func runBare(app *webapp.App, input []byte, threshold int) (vm.RunResult, time.Duration, error) {
	machine, err := vm.New(vm.Config{Image: app.Image, Input: input, TraceThreshold: threshold})
	if err != nil {
		return vm.RunResult{}, 0, err
	}
	start := time.Now()
	res := machine.Run()
	return res, time.Since(start), nil
}

// benignRuns is how many monitored and bare runs the monitors' cost is
// measured over.
const benignRuns = 50

// probeMachine times vm.New and VM.Run under every monitor on inputs,
// and the monitored against the bare Run on benignRuns of the benign
// inputs, cycling through them.
func probeMachine(rec *recorder, s *sheet, app *webapp.App, inputs, benign [][]byte) error {
	var newT, runT time.Duration
	var steps, hooks uint64
	for _, in := range inputs {
		res, tNew, tRun, err := runMonitored(rec, app, in)
		if err != nil {
			return err
		}
		newT += tNew
		runT += tRun
		steps += res.Steps
		hooks += res.HookRuns
	}
	n := float64(len(inputs))
	s.add("vm.new_us", us(newT)/n, "us")
	s.add("vm.run_us", us(runT)/n, "us")
	s.add("vm.steps", float64(steps)/n, "count")
	s.add("vm.mips", float64(steps)/us(runT), "MIPS")
	s.add("monitor.hook_runs", float64(hooks)/n, "count")

	var mon, bare time.Duration
	for runs := 0; runs < benignRuns; runs++ {
		in := benign[runs%len(benign)]
		res, _, tRun, err := runMonitored(rec, app, in)
		if err != nil {
			return err
		}
		if res.Outcome != vm.OutcomeExit {
			return fmt.Errorf("benign probe input fails under the monitors: %v", res.Outcome)
		}
		mon += tRun
		done := rec.start("vm.bare")
		res, tBare, err := runBare(app, in, 0)
		done()
		bare += tBare
		if err != nil {
			return err
		}
		if res.Outcome != vm.OutcomeExit {
			return fmt.Errorf("benign probe input fails on the bare application: %v", res.Outcome)
		}
	}
	s.add("monitor.overhead_x", float64(mon)/float64(bare), "x")
	return nil
}

// runMonitored builds and runs one machine under every monitor, timing
// vm.New and VM.Run separately.
func runMonitored(rec *recorder, app *webapp.App, input []byte) (vm.RunResult, time.Duration, time.Duration, error) {
	plugins, shadow, hang := replay.AllMonitors().Plugins()
	start := time.Now()
	done := rec.start("vm.New")
	machine, err := vm.New(vm.Config{Image: app.Image, Input: input, Plugins: plugins})
	if err == nil {
		if shadow != nil {
			shadow.Install(machine)
		}
		if hang != nil {
			hang.Install(machine)
		}
	}
	done()
	tNew := time.Since(start)
	if err != nil {
		return vm.RunResult{}, 0, 0, err
	}
	start = time.Now()
	done = rec.start("vm.Run")
	res := machine.Run()
	done()
	return res, tNew, time.Since(start), nil
}

// addExecuteLayers reports the core layer from the timed core.Execute
// calls and the program's node.execute stage.
func addExecuteLayers(m *meter, s *sheet) {
	n := m.acc["executes"]
	exec := m.acc["execute_ns"]
	s.add("core.execute_us", exec/1e3/n, "us")
	s.add("core.pipeline_us", (exec-float64(m.stage("node.execute").WallNs))/1e3/n, "us")
}
