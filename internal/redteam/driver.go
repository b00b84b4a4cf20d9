package redteam

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/daikon"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// Setup bundles a protected application ready for attack: the built app,
// the learned invariant database, and a ClearView factory.
type Setup struct {
	App *webapp.App
	DB  *daikon.DB

	// Obs, when set, is threaded into every ClearView the setup builds,
	// tracing each instance's pipeline stages into one shared registry.
	Obs *obs.Tracer
}

// NewSetup builds the application and learns the invariant database.
// expandedCorpus selects the §4.3.2 extended learning suite.
func NewSetup(expandedCorpus bool) (*Setup, error) {
	app, err := webapp.Build()
	if err != nil {
		return nil, err
	}
	corpus := LearningCorpus()
	if expandedCorpus {
		corpus = ExpandedCorpus()
	}
	db, _, err := core.Learn(app.Image, core.LearnConfig{Inputs: [][]byte{corpus}})
	if err != nil {
		return nil, err
	}
	return &Setup{App: app, DB: db}, nil
}

// ClearView builds a protected instance with the extended Red Team
// monitor configuration: the paper's three detectors (Memory Firewall +
// Heap Guard + Shadow Stack, §4.2.2) plus the arithmetic-fault and hang
// detectors the new failure classes need.
func (s *Setup) ClearView(stackScope int) (*core.ClearView, error) {
	return core.New(s.config(stackScope))
}

// ReplayClearView builds a protected instance like ClearView but with the
// record/replay fast path enabled: failing presentations are recorded and
// candidate repairs are judged against the recording on a parallel farm,
// so a deterministic exploit converges in two presentations instead of
// 4+. workers 0 uses all CPUs.
func (s *Setup) ReplayClearView(stackScope, workers int) (*core.ClearView, error) {
	conf := s.config(stackScope)
	conf.Replay = &core.ReplayConfig{Workers: workers}
	return core.New(conf)
}

// config is the Red Team instance configuration ClearView and
// ReplayClearView share.
func (s *Setup) config(stackScope int) core.Config {
	return core.Config{
		Image:          s.App.Image,
		Invariants:     s.DB,
		StackScope:     stackScope,
		MemoryFirewall: true,
		HeapGuard:      true,
		ShadowStack:    true,
		FaultGuard:     true,
		HangGuard:      true,
		Obs:            s.Obs,
	}
}

// RecordAttack captures one failing presentation of an exploit as a
// deterministic recording under the Red Team monitors — the artifact a
// community node would ship to the manager for offline patch evaluation.
func RecordAttack(s *Setup, ex Exploit, variant int) (*replay.Recording, vm.RunResult, error) {
	input := AttackInput(s.App, ex, variant)
	return replay.Record("redteam/"+ex.Bugzilla, s.App.Image, input, nil, replay.Options{})
}

// subsequentPages are the benign pages appended after each attack page:
// a presentation succeeds only if the application survives the attack AND
// continues to process subsequent inputs (§4.3.1).
func subsequentPages() []byte {
	eval := EvaluationPages()
	return Input(eval[0], eval[1])
}

// AttackInput assembles one presentation's input: the attack page followed
// by legitimate follow-on pages.
func AttackInput(app *webapp.App, ex Exploit, variant int) []byte {
	return Input(append([][]byte{ex.Build(app, variant)}, subsequentPages())...)
}

// AttackResult summarizes a single-exploit attack campaign.
type AttackResult struct {
	Bugzilla      string
	Blocked       bool // every pre-patch presentation was monitor-detected
	Patched       bool // a presentation survived under an adopted patch
	Presentations int  // presentations until the first surviving one
	Unsuccessful  int  // crashed or failing repair-evaluation runs
}

// RunSingleVariant presents the exploit repeatedly (§4.3.1) until the
// application survives or maxPresentations is exhausted. Each presentation
// waits for all ClearView actions from the previous one (our Execute is
// synchronous, so this is implicit).
func RunSingleVariant(cv *core.ClearView, app *webapp.App, ex Exploit, maxPresentations int) AttackResult {
	res := AttackResult{Bugzilla: ex.Bugzilla, Blocked: true}
	for i := 1; i <= maxPresentations; i++ {
		out := cv.Execute(AttackInput(app, ex, 0))
		switch {
		case out.Outcome == vm.OutcomeExit && out.ExitCode == 0:
			res.Patched = true
			res.Presentations = i
			res.Unsuccessful = countUnsuccessful(cv)
			return res
		case out.Outcome == vm.OutcomeCrash,
			out.Outcome == vm.OutcomeExit: // abnormal exit (nonzero status)
			// Crashes and abnormal exits only happen while a candidate
			// repair is being evaluated; the evaluator discards the
			// repair.
			res.Unsuccessful++
		default:
			// Monitor detected and terminated: blocked.
		}
	}
	res.Presentations = maxPresentations
	res.Unsuccessful = countUnsuccessful(cv)
	return res
}

// RunMultiVariant interleaves exploit variants (§4.3.4): the same defect
// attacked through different exploit bytes must yield the same patch after
// the same number of presentations.
func RunMultiVariant(cv *core.ClearView, app *webapp.App, ex Exploit, maxPresentations int) AttackResult {
	res := AttackResult{Bugzilla: ex.Bugzilla, Blocked: true}
	for i := 1; i <= maxPresentations; i++ {
		variant := (i - 1) % ex.Variants
		out := cv.Execute(AttackInput(app, ex, variant))
		if out.Outcome == vm.OutcomeExit && out.ExitCode == 0 {
			res.Patched = true
			res.Presentations = i
			return res
		}
	}
	res.Presentations = maxPresentations
	return res
}

// RunSimultaneous interleaves presentations of several exploits targeting
// different defects (§4.3.5). ClearView keys every action on the failure
// location, so the campaigns must not interfere: each exploit is patched
// after the same cumulative number of its own presentations.
func RunSimultaneous(cv *core.ClearView, app *webapp.App, exs []Exploit, maxRounds int) map[string]AttackResult {
	results := make(map[string]AttackResult, len(exs))
	counts := make(map[string]int, len(exs))
	patched := make(map[string]bool, len(exs))
	for round := 0; round < maxRounds; round++ {
		for _, ex := range exs {
			if patched[ex.Bugzilla] {
				continue
			}
			counts[ex.Bugzilla]++
			out := cv.Execute(AttackInput(app, ex, 0))
			if out.Outcome == vm.OutcomeExit && out.ExitCode == 0 {
				patched[ex.Bugzilla] = true
				results[ex.Bugzilla] = AttackResult{
					Bugzilla: ex.Bugzilla, Blocked: true, Patched: true,
					Presentations: counts[ex.Bugzilla],
				}
			}
		}
	}
	for _, ex := range exs {
		if !patched[ex.Bugzilla] {
			results[ex.Bugzilla] = AttackResult{
				Bugzilla: ex.Bugzilla, Presentations: counts[ex.Bugzilla],
			}
		}
	}
	return results
}

func countUnsuccessful(cv *core.ClearView) int {
	n := 0
	for _, fc := range cv.Cases() {
		n += fc.Metrics.Unsuccessful
	}
	return n
}

// Autoimmune verifies §4.3.6: with all adopted patches in place, every
// evaluation page must render bit-identically to the unprotected
// application. Returns the indices of pages that differ.
func Autoimmune(cv *core.ClearView, app *webapp.App) ([]int, error) {
	var diffs []int
	for i, page := range EvaluationPages() {
		protected := cv.Execute(page)
		if protected.Outcome != vm.OutcomeExit {
			diffs = append(diffs, i)
			continue
		}
		bare, err := vm.New(vm.Config{Image: app.Image, Input: page})
		if err != nil {
			return nil, err
		}
		want := bare.Run()
		if want.Outcome != vm.OutcomeExit {
			return nil, fmt.Errorf("evaluation page %d fails on the bare application: %v", i, want.Outcome)
		}
		if !bytes.Equal(protected.Output, want.Output) {
			diffs = append(diffs, i)
		}
	}
	return diffs, nil
}

// FalsePositives verifies §4.3.7: legitimate pages must never trigger the
// patch generation mechanism. Returns the number of patches generated (0
// on success) and the number of failure cases opened.
func FalsePositives(cv *core.ClearView) (patches, cases int) {
	for _, page := range EvaluationPages() {
		cv.Execute(page)
	}
	return cv.PatchesGenerated, len(cv.Cases())
}
