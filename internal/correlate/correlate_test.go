package correlate

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/daikon"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/vm"
)

func v(pc uint32, slot uint8) daikon.VarID { return daikon.VarID{PC: pc, Slot: slot} }

// obs is one check as a tally: Classify merges a run's repeated tallies,
// so a sequence of these is the per-check stream it classifies.
func obs(id string, sat bool) Observation {
	o := Observation{InvID: id, FailureID: "f", Checks: 1, LastViolated: !sat}
	if !sat {
		o.Violations = 1
	}
	return o
}

func TestClassifyHighly(t *testing.T) {
	runs := []RunLog{
		{Detected: true, Obs: []Observation{obs("i", true), obs("i", true), obs("i", false)}},
		{Detected: true, Obs: []Observation{obs("i", true), obs("i", false)}},
	}
	if got := Classify(runs)["i"]; got != HighlyCorrelated {
		t.Errorf("got %v, want highly", got)
	}
}

func TestClassifyModerately(t *testing.T) {
	runs := []RunLog{
		{Detected: true, Obs: []Observation{obs("i", false), obs("i", false)}},
		{Detected: true, Obs: []Observation{obs("i", true), obs("i", false)}},
	}
	if got := Classify(runs)["i"]; got != ModeratelyCorrelated {
		t.Errorf("got %v, want moderately", got)
	}
}

func TestClassifySlightly(t *testing.T) {
	// Violated mid-run once, but satisfied at the last check of one
	// failing run: only slightly correlated.
	runs := []RunLog{
		{Detected: true, Obs: []Observation{obs("i", false), obs("i", true)}},
		{Detected: true, Obs: []Observation{obs("i", true), obs("i", false)}},
	}
	if got := Classify(runs)["i"]; got != SlightlyCorrelated {
		t.Errorf("got %v, want slightly", got)
	}
}

func TestClassifyNot(t *testing.T) {
	runs := []RunLog{
		{Detected: true, Obs: []Observation{obs("i", true), obs("i", true)}},
		{Detected: true, Obs: []Observation{obs("i", true)}},
	}
	if got := Classify(runs)["i"]; got != NotCorrelated {
		t.Errorf("got %v, want not", got)
	}
}

func TestClassifyUncheckedInOneFailingRun(t *testing.T) {
	// Checked and violated-last in run 1, never executed in failing run 2:
	// cannot be highly or moderately correlated.
	runs := []RunLog{
		{Detected: true, Obs: []Observation{obs("i", false)}},
		{Detected: true, Obs: nil},
	}
	if got := Classify(runs)["i"]; got != SlightlyCorrelated {
		t.Errorf("got %v, want slightly", got)
	}
}

func TestClassifyIgnoresNormalRuns(t *testing.T) {
	// Violations in non-detecting runs do not affect the classification.
	runs := []RunLog{
		{Detected: false, Obs: []Observation{obs("i", false)}},
		{Detected: true, Obs: []Observation{obs("i", true), obs("i", false)}},
	}
	if got := Classify(runs)["i"]; got != HighlyCorrelated {
		t.Errorf("got %v, want highly", got)
	}
}

func TestSelectForRepairGating(t *testing.T) {
	mk := func(pc uint32) Candidate {
		return Candidate{Inv: &daikon.Invariant{Kind: daikon.KindLowerBound, Var: v(pc, 0)}}
	}
	c1, c2, c3 := mk(0x100), mk(0x108), mk(0x110)
	cands := []Candidate{c1, c2, c3}
	corr := map[string]Correlation{
		c1.Inv.ID(): HighlyCorrelated,
		c2.Inv.ID(): ModeratelyCorrelated,
		c3.Inv.ID(): SlightlyCorrelated,
	}
	got := SelectForRepair(cands, corr)
	if len(got) != 1 || got[0].Inv != c1.Inv {
		t.Fatalf("with a highly correlated invariant, only it is selected; got %v", got)
	}
	// Without any highly correlated invariant, moderately wins.
	corr[c1.Inv.ID()] = NotCorrelated
	got = SelectForRepair(cands, corr)
	if len(got) != 1 || got[0].Inv != c2.Inv {
		t.Fatalf("moderately gating wrong: %v", got)
	}
	// Slightly correlated invariants never produce repairs.
	corr[c2.Inv.ID()] = NotCorrelated
	if got = SelectForRepair(cands, corr); len(got) != 0 {
		t.Fatalf("slightly correlated produced repairs: %v", got)
	}
}

// buildProgram assembles a caller/callee pair for candidate selection.
func buildProgram(t *testing.T) (*image.Image, map[string]uint32, *cfg.DB) {
	t.Helper()
	a := asm.New(0x1000)
	a.Label("main")
	a.MovRI(isa.EDX, 7)
	a.Label("callsite")
	a.Call("leaf")
	a.MovRI(isa.EAX, 0)
	a.Sys(isa.SysExit)
	a.Label("leaf")
	a.MovRR(isa.ECX, isa.EDX)
	a.Label("failhere")
	a.Ret()
	code, labels, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	img := &image.Image{Base: 0x1000, Entry: labels["main"], Code: code}
	db := cfg.NewDB(img)
	db.NoteBlockExec(labels["main"])
	db.NoteBlockExec(labels["leaf"])
	return img, labels, db
}

func TestSelectCandidatesScopesToLowestProc(t *testing.T) {
	_, labels, cfgdb := buildProgram(t)
	inv := daikon.NewDB()
	leafInv := &daikon.Invariant{Kind: daikon.KindLowerBound, Var: v(labels["leaf"], 0), Bound: 1}
	mainInv := &daikon.Invariant{Kind: daikon.KindLowerBound, Var: v(labels["main"], 0), Bound: 1}
	inv.Add(leafInv)
	inv.Add(mainInv)

	stack := []uint32{labels["callsite"] + isa.InstSize}
	got := SelectCandidates(inv, cfgdb, labels["failhere"], stack, Config{StackScope: 1})
	if len(got) != 1 || got[0].Inv != leafInv || got[0].Depth != 0 {
		t.Fatalf("scope 1 candidates = %+v", got)
	}

	got = SelectCandidates(inv, cfgdb, labels["failhere"], stack, Config{StackScope: 2})
	if len(got) != 2 {
		t.Fatalf("scope 2 candidates = %+v", got)
	}
	if got[1].Inv != mainInv || got[1].Depth != 1 {
		t.Errorf("caller candidate = %+v", got[1])
	}
}

func TestSelectCandidatesSkipsEmptyProcs(t *testing.T) {
	// "The lowest procedure on the stack WITH invariants": a leaf with no
	// invariants does not consume the scope budget.
	_, labels, cfgdb := buildProgram(t)
	inv := daikon.NewDB()
	mainInv := &daikon.Invariant{Kind: daikon.KindLowerBound, Var: v(labels["main"], 0), Bound: 1}
	inv.Add(mainInv)

	stack := []uint32{labels["callsite"] + isa.InstSize}
	got := SelectCandidates(inv, cfgdb, labels["failhere"], stack, Config{StackScope: 1})
	if len(got) != 1 || got[0].Inv != mainInv {
		t.Fatalf("candidates = %+v", got)
	}
}

func TestSelectCandidatesTwoVarSameBlockOnly(t *testing.T) {
	// A two-variable invariant checked outside the failure instruction's
	// basic block must be excluded (§2.4.1's optimization).
	a := asm.New(0x1000)
	a.Label("f")
	a.MovRI(isa.EDX, 1) // block 1 (ends at branch)
	a.MovRI(isa.ECX, 2)
	a.CmpRI(isa.EDX, 0)
	a.Je("end")
	a.Label("block2")
	a.MovRR(isa.EBX, isa.ECX)
	a.Label("fail2")
	a.MovRR(isa.ESI, isa.EBX)
	a.Label("end")
	a.Ret()
	code, labels, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	img := &image.Image{Base: 0x1000, Entry: labels["f"], Code: code}
	cfgdb := cfg.NewDB(img)
	cfgdb.NoteBlockExec(labels["f"])

	inv := daikon.NewDB()
	// Two-var invariant inside block 1 (checked at its second instr).
	crossBlock := &daikon.Invariant{
		Kind: daikon.KindLessThan,
		Var:  v(labels["f"], 0), Var2: v(labels["f"]+8, 0),
	}
	// Two-var invariant inside block 2, same block as the failure.
	sameBlock := &daikon.Invariant{
		Kind: daikon.KindLessThan,
		Var:  v(labels["block2"], 0), Var2: v(labels["fail2"], 0),
	}
	// One-var invariant in block 1: always a candidate (predominator).
	oneVar := &daikon.Invariant{Kind: daikon.KindLowerBound, Var: v(labels["f"], 0)}
	inv.Add(crossBlock)
	inv.Add(sameBlock)
	inv.Add(oneVar)

	got := SelectCandidates(inv, cfgdb, labels["fail2"], nil, Config{StackScope: 1})
	found := map[string]bool{}
	for _, c := range got {
		found[c.Inv.ID()] = true
	}
	if found[crossBlock.ID()] {
		t.Error("cross-block two-var invariant selected")
	}
	if !found[sameBlock.ID()] {
		t.Error("same-block two-var invariant not selected")
	}
	if !found[oneVar.ID()] {
		t.Error("one-var predominator invariant not selected")
	}
}

func TestCheckSetObservesAndCounts(t *testing.T) {
	// Run a tiny program with a checking patch installed and verify the
	// observation stream and violation accounting.
	a := asm.New(0x1000)
	a.Label("main")
	a.MovRI(isa.EDX, 3)
	a.Label("site")
	a.MovRR(isa.ECX, isa.EDX)
	a.MovRI(isa.EAX, 0)
	a.Sys(isa.SysExit)
	code, labels, _ := a.Assemble()
	img := &image.Image{Base: 0x1000, Entry: labels["main"], Code: code}

	inv := &daikon.Invariant{Kind: daikon.KindLowerBound, Var: v(labels["site"], 0), Bound: 5}
	cs := BuildCheckSet("fail@x", []Candidate{{Inv: inv}})
	if len(cs.Patches) != 1 {
		t.Fatalf("patches = %d", len(cs.Patches))
	}
	cs.StartRun()
	machine, err := vm.New(vm.Config{Image: img, Patches: cs.Patches})
	if err != nil {
		t.Fatal(err)
	}
	if res := machine.Run(); res.Outcome != vm.OutcomeExit {
		t.Fatal(res.Outcome)
	}
	cs.EndRun(true)
	if cs.TotalChecks != 1 || cs.TotalViolations != 1 {
		t.Errorf("checks/violations = %d/%d", cs.TotalChecks, cs.TotalViolations)
	}
	if got := Classify(cs.Runs())[inv.ID()]; got != HighlyCorrelated {
		t.Errorf("classification = %v", got)
	}
}

func TestCheckSetTwoVarAcrossInstructions(t *testing.T) {
	// v1 at "first" (EDX), v2 at "second" (ECX): the staging patch carries
	// v1 to the check site.
	a := asm.New(0x1000)
	a.Label("main")
	a.MovRI(isa.EDX, 9)
	a.MovRI(isa.ECX, 4)
	a.Label("first")
	a.MovRR(isa.EBX, isa.EDX) // observes EDX=9
	a.Label("second")
	a.MovRR(isa.ESI, isa.ECX) // observes ECX=4
	a.MovRI(isa.EAX, 0)
	a.Sys(isa.SysExit)
	code, labels, _ := a.Assemble()
	img := &image.Image{Base: 0x1000, Entry: labels["main"], Code: code}

	inv := &daikon.Invariant{
		Kind: daikon.KindLessThan,
		Var:  v(labels["first"], 0), Var2: v(labels["second"], 0),
	}
	cs := BuildCheckSet("fail@x", []Candidate{{Inv: inv}})
	if len(cs.Patches) != 2 {
		t.Fatalf("patches = %d, want stage+check", len(cs.Patches))
	}
	cs.StartRun()
	machine, _ := vm.New(vm.Config{Image: img, Patches: cs.Patches})
	machine.Run()
	cs.EndRun(true)
	// 9 <= 4 is violated.
	if cs.TotalChecks != 1 || cs.TotalViolations != 1 {
		t.Errorf("checks/violations = %d/%d", cs.TotalChecks, cs.TotalViolations)
	}
}

// check is one invariant check in a run's per-check stream.
type check struct {
	inv string
	sat bool
}

// seqRun is one run as the sequence of checks it made, in order.
type seqRun struct {
	detected bool
	checks   []check
}

// referenceClassify is §2.4.3 stated over each invariant's per-check
// satisfaction sequence in every failure-detecting run, kept as the oracle
// for Classify's tally form.
func referenceClassify(runs []seqRun) map[string]Correlation {
	seqs := map[string][][]bool{}
	failingRuns := 0
	for _, r := range runs {
		if !r.detected {
			continue
		}
		failingRuns++
		byInv := map[string][]bool{}
		for _, c := range r.checks {
			byInv[c.inv] = append(byInv[c.inv], c.sat)
		}
		for id, seq := range byInv {
			for len(seqs[id]) < failingRuns-1 {
				seqs[id] = append(seqs[id], nil) // runs where it was unchecked
			}
			seqs[id] = append(seqs[id], seq)
		}
	}
	out := map[string]Correlation{}
	for id, runSeqs := range seqs {
		for len(runSeqs) < failingRuns {
			runSeqs = append(runSeqs, nil)
		}
		violatedLastEveryRun, extraViolation, anyViolation := true, false, false
		for _, seq := range runSeqs {
			if len(seq) == 0 || seq[len(seq)-1] {
				violatedLastEveryRun = false
			}
			for i, sat := range seq {
				if !sat {
					anyViolation = true
					extraViolation = extraViolation || i != len(seq)-1
				}
			}
		}
		switch {
		case violatedLastEveryRun && !extraViolation:
			out[id] = HighlyCorrelated
		case violatedLastEveryRun:
			out[id] = ModeratelyCorrelated
		case anyViolation:
			out[id] = SlightlyCorrelated
		default:
			out[id] = NotCorrelated
		}
	}
	return out
}

// fold tallies each run's checks, one tally per invariant in first-check
// order, after cutting each invariant's checks into chunks of at most
// chunk checks (0: no cut). Chunks of one invariant stay in check order.
func fold(runs []seqRun, chunk int) []RunLog {
	var logs []RunLog
	for _, r := range runs {
		var order []string
		tallies := map[string][]Observation{}
		for _, c := range r.checks {
			ts := tallies[c.inv]
			if ts == nil {
				order = append(order, c.inv)
			}
			if len(ts) == 0 || (chunk > 0 && ts[len(ts)-1].Checks == uint64(chunk)) {
				ts = append(ts, Observation{InvID: c.inv, FailureID: "f"})
			}
			t := &ts[len(ts)-1]
			t.Checks++
			t.LastViolated = !c.sat
			if !c.sat {
				t.Violations++
			}
			tallies[c.inv] = ts
		}
		log := RunLog{Detected: r.detected}
		for _, id := range order {
			log.Obs = append(log.Obs, tallies[id]...)
		}
		logs = append(logs, log)
	}
	return logs
}

// TestClassifyMatchesReference is the classification oracle: random
// per-check satisfaction sequences over several invariants and detected
// and undetected runs classify identically under the sequence-based
// reference, as one tally per check, folded into one tally per invariant
// per run, and folded into chunks that Classify must merge.
func TestClassifyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	invs := []string{"a", "b", "c", "d", "e"}
	seen := map[Correlation]int{}
	for trial := 0; trial < 3000; trial++ {
		runs := make([]seqRun, rng.Intn(6))
		for ri := range runs {
			runs[ri].detected = rng.Intn(4) != 0
			violation := rng.Float64() // per-run violation rate
			for n := rng.Intn(12); n > 0; n-- {
				runs[ri].checks = append(runs[ri].checks, check{
					inv: invs[rng.Intn(len(invs))],
					sat: rng.Float64() >= violation,
				})
			}
		}
		want := referenceClassify(runs)
		for _, c := range want {
			seen[c]++
		}
		var perCheck []RunLog
		for _, r := range runs {
			log := RunLog{Detected: r.detected}
			for _, c := range r.checks {
				log.Obs = append(log.Obs, obs(c.inv, c.sat))
			}
			perCheck = append(perCheck, log)
		}
		forms := map[string][]RunLog{
			"per-check": perCheck,
			"folded":    fold(runs, 0),
			"chunked":   fold(runs, 1+rng.Intn(3)),
		}
		for name, logs := range forms {
			if got := Classify(logs); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %s tallies: Classify = %v, reference = %v\nruns: %+v", trial, name, got, want, runs)
			}
		}
	}
	for c := NotCorrelated; c <= HighlyCorrelated; c++ {
		if seen[c] < 100 {
			t.Errorf("only %d %v classifications drawn; the generator does not cover every tier", seen[c], c)
		}
	}
}

// TestCheckSetTalliesSumToTotals drives a real CheckSet through runs of a
// loop whose checks are violated at its start, at its end and in its
// middle, and requires every emitted tally to be one an honest run can
// produce and the tallies to sum to the Table 3 totals.
func TestCheckSetTalliesSumToTotals(t *testing.T) {
	img, labels := buildCheckLoop(t)
	cands := []Candidate{
		{Inv: &daikon.Invariant{Kind: daikon.KindLowerBound, Var: v(labels["first"], 0), Bound: 3}},
		{Inv: &daikon.Invariant{Kind: daikon.KindLowerBound, Var: v(labels["site"], 0), Bound: 2}},
		{Inv: &daikon.Invariant{Kind: daikon.KindLessThan, Var: v(labels["first"], 0), Var2: v(labels["site"], 0)}},
		{Inv: &daikon.Invariant{Kind: daikon.KindLessThan, Var: v(labels["pair"], 0), Var2: v(labels["pair"], 1)}},
	}
	cs := BuildCheckSet("fail@loop", cands)
	for trips := uint32(1); trips <= 6; trips++ {
		cs.StartRun()
		machine, err := vm.New(vm.Config{Image: img, Input: tripInput(trips), Patches: cs.Patches})
		if err != nil {
			t.Fatal(err)
		}
		if res := machine.Run(); res.Outcome != vm.OutcomeExit {
			t.Fatalf("trips %d: %v", trips, res.Outcome)
		}
		cs.EndRun(trips%2 == 0)
	}
	var checks, violations uint64
	for ri, r := range cs.Runs() {
		if len(r.Obs) != len(cands) {
			t.Fatalf("run %d: %d tallies, want one per candidate", ri, len(r.Obs))
		}
		for k, o := range r.Obs {
			if o.InvID != cands[k].Inv.ID() || o.FailureID != "fail@loop" {
				t.Fatalf("run %d tally %d is %s/%s, want candidate order", ri, k, o.FailureID, o.InvID)
			}
			if o.Checks == 0 || o.Violations > o.Checks || (o.LastViolated && o.Violations == 0) {
				t.Fatalf("run %d: implausible tally %+v", ri, o)
			}
			checks += o.Checks
			violations += o.Violations
		}
	}
	if checks != cs.TotalChecks || violations != cs.TotalViolations {
		t.Fatalf("tallies sum to %d checks / %d violations, totals are %d / %d",
			checks, violations, cs.TotalChecks, cs.TotalViolations)
	}
	if violations == 0 || violations == checks {
		t.Fatalf("degenerate loop: %d violations in %d checks", violations, checks)
	}
}

// buildCheckLoop assembles a loop that reads its trip count n from the
// input and, on iteration i, observes i at "first", n-i+1 at "site", and
// both at "pair" (regA = i, regB = n-i+1).
func buildCheckLoop(t testing.TB) (*image.Image, map[string]uint32) {
	a := asm.New(0x1000)
	a.Label("main")
	a.MovRR(isa.EDX, isa.ESP)
	a.SubRI(isa.EDX, 64)
	a.MovRR(isa.EAX, isa.EDX)
	a.MovRI(isa.ECX, 4)
	a.Sys(isa.SysRead)
	a.Load(isa.EBX, asm.M(isa.EDX, 0))
	a.MovRI(isa.ESI, 0)
	a.Label("loop")
	a.AddRI(isa.ESI, 1)
	a.Label("first")
	a.MovRR(isa.EDI, isa.ESI)
	a.Label("site")
	a.MovRR(isa.ECX, isa.EBX)
	a.Label("pair")
	a.CmpRR(isa.EDI, isa.ECX)
	a.SubRI(isa.EBX, 1)
	a.CmpRI(isa.EBX, 0)
	a.Jne("loop")
	a.MovRI(isa.EAX, 0)
	a.Sys(isa.SysExit)
	code, labels, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return &image.Image{Base: 0x1000, Entry: labels["main"], Code: code}, labels
}

func tripInput(n uint32) []byte {
	return binary.LittleEndian.AppendUint32(nil, n)
}
