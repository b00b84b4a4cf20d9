// Package correlate implements correlated invariant identification (§2.4):
// given a failure location (and, when the Shadow Stack is enabled, the call
// stack), it selects candidate invariants from the learned database, builds
// patches that check them, and classifies each invariant's correlation with
// the failure from the per-run check tallies those patches produce.
package correlate

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cfg"
	"repro/internal/daikon"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Candidate is one invariant selected for checking against a failure.
type Candidate struct {
	Inv   *daikon.Invariant
	Proc  *cfg.Proc
	Frame uint32 // the frame instruction: failure PC (depth 0) or call site
	Depth int    // 0 = procedure containing the failure; 1 = its caller; ...
}

// Config controls candidate selection.
type Config struct {
	// StackScope is how many procedures on the call stack *that have
	// candidate invariants* to include, walking outward from the failure
	// procedure. The Red Team exercise ran with 1 ("only the lowest
	// procedure on the stack with invariants" — §4.3.2); widening it to 2
	// is the reconfiguration that fixed exploit 285595.
	StackScope int
	// DisableSameBlockRestriction lifts the §2.4.1 optimization that
	// admits two-variable invariants only from the frame instruction's
	// basic block (ablation knob: the restriction "substantially reduces
	// both the invariant checking overhead and the number of candidate
	// repairs").
	DisableSameBlockRestriction bool
}

// DefaultStackScope is the paper's Red Team configuration.
const DefaultStackScope = 1

// SelectCandidates returns the candidate correlated invariants for a
// failure at failPC with the given shadow-stack snapshot (return sites,
// innermost first; may be nil when the Shadow Stack is disabled).
//
// Per §2.4.1: at each frame, any invariant at a predominator of the frame
// instruction in the frame's procedure is a candidate, except that an
// invariant relating two variables must be checked inside the frame
// instruction's own basic block (the optimization that bounds checking
// overhead and repair count).
func SelectCandidates(db *daikon.DB, cfgdb *cfg.DB, failPC uint32, stack []uint32, conf Config) []Candidate {
	scope := conf.StackScope
	if scope <= 0 {
		scope = DefaultStackScope
	}
	frames := []uint32{failPC}
	for _, ret := range stack {
		frames = append(frames, ret-isa.InstSize) // the call site
	}

	var out []Candidate
	procsWithCandidates := 0
	for depth, frame := range frames {
		if procsWithCandidates >= scope {
			break
		}
		proc := cfgdb.ProcAt(frame)
		if proc == nil {
			continue
		}
		frameBlock := proc.BlockOf(frame)
		var frameCands []Candidate
		seen := map[string]bool{}
		for _, pred := range proc.Predominators(frame) {
			for _, inv := range db.At(pred) {
				if seen[inv.ID()] {
					continue
				}
				if inv.NumVars() == 2 && !conf.DisableSameBlockRestriction {
					// Two-variable invariants only from the frame
					// instruction's basic block.
					if frameBlock == nil || !frameBlock.Contains(inv.PC()) || inv.PC() > frame {
						continue
					}
				}
				seen[inv.ID()] = true
				frameCands = append(frameCands, Candidate{
					Inv: inv, Proc: proc, Frame: frame, Depth: depth,
				})
			}
		}
		if len(frameCands) > 0 {
			procsWithCandidates++
			out = append(out, frameCands...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Depth != out[j].Depth {
			return out[i].Depth < out[j].Depth
		}
		return out[i].Inv.ID() < out[j].Inv.ID()
	})
	return out
}

// Observation is one invariant's check tally for one run (§2.4.2): which
// invariant, for which failure campaign, how many times its checking
// patch ran, how many of those checks found it violated, and whether the
// last check did. These are the only facts §2.4.3's classification needs
// from a run.
type Observation struct {
	InvID        string
	FailureID    string
	Checks       uint64
	Violations   uint64
	LastViolated bool
}

// CheckSet is a deployed set of invariant-checking patches for one failure.
// The caller splits the checks into runs: StartRun begins a fresh tally,
// EndRun finalizes it with whether the monitored failure recurred in that
// run.
type CheckSet struct {
	FailureID string
	Cands     []Candidate
	Patches   []*vm.Patch

	// The current run's tally per distinct invariant, by dense index in
	// candidate order (candidates sharing an invariant share its index);
	// touched lists the indices checked so far this run.
	tallies []Observation
	touched []int
	// staged holds each two-variable invariant's pending first-operand
	// value, by index.
	staged []stagedVal

	runs []RunLog

	// Totals for the Table 3 "(violated/total checks)" accounting.
	TotalChecks     uint64
	TotalViolations uint64
}

type stagedVal struct {
	val   uint32
	valid bool
}

// RunLog is the per-run record used for classification: one tally per
// invariant checked in the run.
type RunLog struct {
	Detected bool // the campaign's failure was detected in this run
	Obs      []Observation
}

// BuildCheckSet compiles checking patches for the candidates (§2.4.2).
// Patch IDs are prefixed with the failure ID so that concurrent campaigns
// for different failures never collide.
func BuildCheckSet(failureID string, cands []Candidate) *CheckSet {
	cs := &CheckSet{FailureID: failureID, Cands: cands}
	index := make(map[string]int, len(cands))
	for _, c := range cands {
		id := c.Inv.ID()
		i, ok := index[id]
		if !ok {
			i = len(cs.tallies)
			index[id] = i
			cs.tallies = append(cs.tallies, Observation{InvID: id, FailureID: failureID})
		}
		switch c.Inv.NumVars() {
		case 1:
			cs.Patches = append(cs.Patches, cs.oneVarPatch(c.Inv, i))
		case 2:
			cs.Patches = append(cs.Patches, cs.twoVarPatches(c.Inv, i)...)
		}
	}
	cs.staged = make([]stagedVal, len(cs.tallies))
	return cs
}

func (cs *CheckSet) record(i int, satisfied bool) {
	t := &cs.tallies[i]
	if t.Checks == 0 {
		cs.touched = append(cs.touched, i)
	}
	t.Checks++
	t.LastViolated = !satisfied
	cs.TotalChecks++
	if !satisfied {
		t.Violations++
		cs.TotalViolations++
	}
}

func (cs *CheckSet) patchID(role string, i int) string {
	return fmt.Sprintf("%s/%s/%s", cs.FailureID, role, cs.tallies[i].InvID)
}

func (cs *CheckSet) oneVarPatch(inv *daikon.Invariant, i int) *vm.Patch {
	slot := int(inv.Var.Slot)
	return &vm.Patch{
		ID:   cs.patchID("check", i),
		Addr: inv.Var.PC,
		Prio: vm.PrioCheck,
		Hook: func(ctx *vm.Ctx) error {
			val, err := ctx.EvalSlot(slot)
			if err != nil {
				return nil // the instruction is about to fault; no observation
			}
			cs.record(i, inv.Holds(val, 0))
			return nil
		},
	}
}

// twoVarPatches builds the auxiliary patch that stages the first variable's
// value and the checking patch at the second instruction (§2.4.2). When
// both variables belong to one instruction a single patch suffices.
func (cs *CheckSet) twoVarPatches(inv *daikon.Invariant, i int) []*vm.Patch {
	if inv.Var.PC == inv.Var2.PC {
		slot1, slot2 := int(inv.Var.Slot), int(inv.Var2.Slot)
		return []*vm.Patch{{
			ID:   cs.patchID("check", i),
			Addr: inv.PC(),
			Prio: vm.PrioCheck,
			Hook: func(ctx *vm.Ctx) error {
				v1, err1 := ctx.EvalSlot(slot1)
				v2, err2 := ctx.EvalSlot(slot2)
				if err1 != nil || err2 != nil {
					return nil
				}
				cs.record(i, inv.Holds(v1, v2))
				return nil
			},
		}}
	}
	early, late := inv.Var, inv.Var2
	swapped := late.PC < early.PC
	if swapped {
		early, late = late, early
	}
	earlySlot, lateSlot := int(early.Slot), int(late.Slot)
	stage := &vm.Patch{
		ID:   cs.patchID("stage", i),
		Addr: early.PC,
		Prio: vm.PrioCheck,
		Hook: func(ctx *vm.Ctx) error {
			val, err := ctx.EvalSlot(earlySlot)
			cs.staged[i] = stagedVal{val: val, valid: err == nil}
			return nil
		},
	}
	check := &vm.Patch{
		ID:   cs.patchID("check", i),
		Addr: late.PC,
		Prio: vm.PrioCheck,
		Hook: func(ctx *vm.Ctx) error {
			st := cs.staged[i]
			if !st.valid {
				return nil
			}
			lateVal, err := ctx.EvalSlot(lateSlot)
			if err != nil {
				return nil
			}
			v1, v2 := st.val, lateVal
			if swapped {
				v1, v2 = v2, v1
			}
			cs.record(i, inv.Holds(v1, v2))
			return nil
		},
	}
	return []*vm.Patch{stage, check}
}

// StartRun begins a fresh tally for one execution.
func (cs *CheckSet) StartRun() {
	cs.clearRun()
	clear(cs.staged)
}

func (cs *CheckSet) clearRun() {
	for _, i := range cs.touched {
		t := &cs.tallies[i]
		t.Checks, t.Violations, t.LastViolated = 0, 0, false
	}
	cs.touched = cs.touched[:0]
}

// DrainRun returns and clears the current run's tallies, one per checked
// invariant in candidate order, without classifying them locally.
// Community nodes use this to send the run's checks to the central
// manager, which performs the classification (§3.2: the patches "generate
// a stream of invariant check observations that are sent back to the
// centralized ClearView manager").
func (cs *CheckSet) DrainRun() []Observation {
	var out []Observation
	if len(cs.touched) > 0 {
		slices.Sort(cs.touched)
		out = make([]Observation, len(cs.touched))
		for k, i := range cs.touched {
			out[k] = cs.tallies[i]
		}
	}
	cs.clearRun()
	return out
}

// EndRun finalizes the current run's tallies, recording whether the
// campaign's failure was detected during the run.
func (cs *CheckSet) EndRun(detected bool) {
	cs.runs = append(cs.runs, RunLog{Detected: detected, Obs: cs.DrainRun()})
}

// DetectedRuns returns how many recorded runs ended in the campaign's
// failure.
func (cs *CheckSet) DetectedRuns() int {
	n := 0
	for _, r := range cs.runs {
		if r.Detected {
			n++
		}
	}
	return n
}

// Runs returns the recorded run logs.
func (cs *CheckSet) Runs() []RunLog { return cs.runs }

// Correlation is the classification of §2.4.3.
type Correlation uint8

const (
	// NotCorrelated: always satisfied.
	NotCorrelated Correlation = iota
	// SlightlyCorrelated: violated at least once in at least one
	// failure-detecting run.
	SlightlyCorrelated
	// ModeratelyCorrelated: violated at the last check in every
	// failure-detecting run, with at least one additional violation in
	// some failure-detecting run.
	ModeratelyCorrelated
	// HighlyCorrelated: in every failure-detecting run, violated at the
	// last check and satisfied at every other check.
	HighlyCorrelated
)

func (c Correlation) String() string {
	switch c {
	case HighlyCorrelated:
		return "highly"
	case ModeratelyCorrelated:
		return "moderately"
	case SlightlyCorrelated:
		return "slightly"
	}
	return "not"
}

// Classify computes each invariant's correlation with the failure from the
// recorded run logs (§2.4.3). Only runs in which the failure was detected
// participate; an invariant that was never checked in some failing run
// cannot be highly or moderately correlated. Repeated tallies for one
// invariant within a run merge: their counts add and the last one's
// LastViolated stands, so one tally per check classifies exactly as one
// tally per run.
func Classify(runs []RunLog) map[string]Correlation {
	type verdict struct {
		lastViolatedRuns int  // failing runs whose last check violated it
		extra, any       bool // a violation before the last check; any violation
	}
	verdicts := map[string]*verdict{}
	failingRuns := 0
	for _, r := range runs {
		if !r.Detected {
			continue
		}
		failingRuns++
		merged := map[string]Observation{}
		for _, o := range r.Obs {
			if o.Checks == 0 {
				continue // a tally of no checks observes nothing
			}
			m := merged[o.InvID]
			m.Violations += o.Violations
			m.LastViolated = o.LastViolated
			merged[o.InvID] = m
		}
		for id, m := range merged {
			v := verdicts[id]
			if v == nil {
				v = &verdict{}
				verdicts[id] = v
			}
			last := uint64(0)
			if m.LastViolated {
				v.lastViolatedRuns++
				last = 1
			}
			v.extra = v.extra || m.Violations > last
			v.any = v.any || m.Violations > 0
		}
	}
	out := make(map[string]Correlation, len(verdicts))
	for id, v := range verdicts {
		switch {
		case v.lastViolatedRuns == failingRuns && !v.extra:
			out[id] = HighlyCorrelated
		case v.lastViolatedRuns == failingRuns:
			out[id] = ModeratelyCorrelated
		case v.any:
			out[id] = SlightlyCorrelated
		default:
			out[id] = NotCorrelated
		}
	}
	return out
}

// SelectForRepair applies §2.5's gating: if any invariant is highly
// correlated, repairs are generated only for highly correlated invariants;
// otherwise only for moderately correlated ones. The returned candidates
// preserve selection order.
func SelectForRepair(cands []Candidate, corr map[string]Correlation) []Candidate {
	pick := func(level Correlation) []Candidate {
		var out []Candidate
		for _, c := range cands {
			if corr[c.Inv.ID()] == level {
				out = append(out, c)
			}
		}
		return out
	}
	if high := pick(HighlyCorrelated); len(high) > 0 {
		return high
	}
	return pick(ModeratelyCorrelated)
}

// SelectAllCorrelated returns candidates for every correlated invariant
// (highly, moderately, and slightly) with no tier gating — the ablation
// baseline for the §2.5 gating policy.
func SelectAllCorrelated(cands []Candidate, corr map[string]Correlation) []Candidate {
	var out []Candidate
	for _, c := range cands {
		if corr[c.Inv.ID()] >= SlightlyCorrelated {
			out = append(out, c)
		}
	}
	return out
}
