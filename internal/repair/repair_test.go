package repair

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/correlate"
	"repro/internal/daikon"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/vm"
)

func vid(pc uint32, slot uint8) daikon.VarID { return daikon.VarID{PC: pc, Slot: slot} }

func mkImage(t *testing.T, build func(a *asm.Assembler)) (*image.Image, map[string]uint32) {
	t.Helper()
	a := asm.New(0x1000)
	build(a)
	code, labels, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	entry := labels["main"]
	return &image.Image{Base: 0x1000, Entry: entry, Code: code}, labels
}

func instAtFor(img *image.Image) InstAt {
	return func(pc uint32) (isa.Inst, bool) {
		if !img.Contains(pc) {
			return isa.Inst{}, false
		}
		in, err := isa.Decode(img.Code[pc-img.Base:])
		return in, err == nil
	}
}

func noSP(uint32) (uint32, bool) { return 0, false }

func TestGenerateOneOfCallTarget(t *testing.T) {
	img, labels := mkImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.Label("site")
		a.CallM(asm.M(isa.EDI, 0))
		a.Sys(isa.SysExit)
	})
	site := labels["site"]
	inv := &daikon.Invariant{
		Kind:   daikon.KindOneOf,
		Var:    vid(site, 2), // CALLM memval slot
		Values: []uint32{0x1100, 0x1200},
	}
	withSP := func(pc uint32) (uint32, bool) { return 4, pc == site }
	rs := Generate(correlate.Candidate{Inv: inv}, instAtFor(img), withSP)

	var strategies []Strategy
	for _, r := range rs {
		strategies = append(strategies, r.Strategy)
	}
	// Order: two set-value repairs (state), skip-call, return-proc.
	want := []Strategy{StratSetValue, StratSetValue, StratSkipCall, StratReturnProc}
	if len(strategies) != len(want) {
		t.Fatalf("strategies = %v", strategies)
	}
	for i := range want {
		if strategies[i] != want[i] {
			t.Fatalf("strategies = %v, want %v", strategies, want)
		}
	}
	if rs[0].Value != 0x1100 || rs[1].Value != 0x1200 {
		t.Errorf("set-value order: %#x %#x", rs[0].Value, rs[1].Value)
	}
	if rs[3].SPDelta != 4 {
		t.Errorf("sp delta = %d", rs[3].SPDelta)
	}
}

// TestGeneratedIDsFormattedOnce: Generate formats each repair's ID once,
// and the memoised ID equals the one a literal repair with the same
// fields formats per call (the form replay specs and community
// directives rebuild).
func TestGeneratedIDsFormattedOnce(t *testing.T) {
	img, labels := mkImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.Label("site")
		a.CallM(asm.M(isa.EDI, 0))
		a.Sys(isa.SysExit)
	})
	site := labels["site"]
	inv := &daikon.Invariant{Kind: daikon.KindOneOf, Var: vid(site, 2), Values: []uint32{0x1100, 0x1200}}
	rs := Generate(correlate.Candidate{Inv: inv}, instAtFor(img), func(pc uint32) (uint32, bool) { return 4, pc == site })
	seen := map[string]bool{}
	for _, r := range rs {
		if r.id == "" {
			t.Fatalf("%v: ID not memoised by Generate", r.Strategy)
		}
		lit := &Repair{Inv: r.Inv, Strategy: r.Strategy, Value: r.Value, SPDelta: r.SPDelta, PC: r.PC, Depth: r.Depth}
		if r.ID() != lit.ID() || lit.id != "" {
			t.Fatalf("memoised ID %q, literal repair formats %q", r.ID(), lit.ID())
		}
		if seen[r.ID()] {
			t.Fatalf("duplicate ID %q", r.ID())
		}
		seen[r.ID()] = true
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = rs[0].ID() }); allocs != 0 {
		t.Fatalf("memoised ID allocates %.0f times per call", allocs)
	}
}

func TestGenerateOneOfNonCallHasNoSkip(t *testing.T) {
	img, labels := mkImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.Label("site")
		a.MovRR(isa.ECX, isa.EDX)
		a.Sys(isa.SysExit)
	})
	inv := &daikon.Invariant{Kind: daikon.KindOneOf, Var: vid(labels["site"], 0), Values: []uint32{5}}
	rs := Generate(correlate.Candidate{Inv: inv}, instAtFor(img), noSP)
	for _, r := range rs {
		if r.Strategy == StratSkipCall {
			t.Error("skip-call generated for a non-call instruction")
		}
		if r.Strategy == StratReturnProc {
			t.Error("return-proc generated without an sp-offset invariant")
		}
	}
	if len(rs) != 1 || rs[0].Strategy != StratSetValue {
		t.Errorf("repairs = %v", rs)
	}
}

func TestTieBreakOrdering(t *testing.T) {
	inv := &daikon.Invariant{Kind: daikon.KindOneOf, Var: vid(0x100, 0), Values: []uint32{1}}
	early := &Repair{Inv: inv, Strategy: StratSetValue, PC: 0x100, Depth: 0, Value: 1}
	laterPC := &Repair{Inv: inv, Strategy: StratSetValue, PC: 0x108, Depth: 0, Value: 1}
	deeper := &Repair{Inv: inv, Strategy: StratSetValue, PC: 0x90, Depth: 1, Value: 1}
	control := &Repair{Inv: inv, Strategy: StratSkipCall, PC: 0x100, Depth: 0}

	if !Less(early, laterPC) {
		t.Error("earlier instruction must order first")
	}
	if !Less(early, deeper) {
		t.Error("lower on the call stack must order first")
	}
	if !Less(early, control) {
		t.Error("state change must order before control flow")
	}
	if !Less(control, &Repair{Inv: inv, Strategy: StratReturnProc, PC: 0x100}) {
		t.Error("skip-call must order before return-proc")
	}
}

func TestClampLowerPatchEnforces(t *testing.T) {
	img, labels := mkImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EDX, -7)
		a.Label("site")
		a.MovRR(isa.ECX, isa.EDX) // regA slot... slot 0 is regB (EDX)
		a.MovRR(isa.EAX, isa.ECX)
		a.Sys(isa.SysExit)
	})
	inv := &daikon.Invariant{Kind: daikon.KindLowerBound, Var: vid(labels["site"], 0), Bound: 1}
	rs := Generate(correlate.Candidate{Inv: inv}, instAtFor(img), noSP)
	if len(rs) != 1 || rs[0].Strategy != StratClampLower {
		t.Fatalf("repairs = %v", rs)
	}
	machine, _ := vm.New(vm.Config{Image: img, Patches: rs[0].BuildPatches("t")})
	res := machine.Run()
	if res.ExitCode != 1 {
		t.Errorf("exit = %d, want clamped 1", int32(res.ExitCode))
	}
}

func TestClampLowerNoOpWhenSatisfied(t *testing.T) {
	img, labels := mkImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EDX, 9)
		a.Label("site")
		a.MovRR(isa.ECX, isa.EDX)
		a.MovRR(isa.EAX, isa.ECX)
		a.Sys(isa.SysExit)
	})
	inv := &daikon.Invariant{Kind: daikon.KindLowerBound, Var: vid(labels["site"], 0), Bound: 1}
	rs := Generate(correlate.Candidate{Inv: inv}, instAtFor(img), noSP)
	machine, _ := vm.New(vm.Config{Image: img, Patches: rs[0].BuildPatches("t")})
	if res := machine.Run(); res.ExitCode != 9 {
		t.Errorf("repair perturbed a satisfied execution: exit = %d", res.ExitCode)
	}
}

func TestSetValuePatchRedirectsCall(t *testing.T) {
	img, labels := mkImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 16)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.EDI, isa.EAX) // heap object; word 0 = garbage fn ptr
		a.Label("site")
		a.CallM(asm.M(isa.EDI, 0))
		a.Sys(isa.SysExit)
		a.Label("good")
		a.MovRI(isa.EAX, 42)
		a.Ret()
	})
	inv := &daikon.Invariant{
		Kind: daikon.KindOneOf, Var: vid(labels["site"], 2),
		Values: []uint32{labels["good"]},
	}
	rs := Generate(correlate.Candidate{Inv: inv}, instAtFor(img), noSP)
	if rs[0].Strategy != StratSetValue {
		t.Fatalf("first repair = %v", rs[0].Strategy)
	}
	machine, _ := vm.New(vm.Config{Image: img, Patches: rs[0].BuildPatches("t")})
	res := machine.Run()
	if res.Outcome != vm.OutcomeExit || res.ExitCode != 42 {
		t.Fatalf("res = %+v", res)
	}
}

func TestReturnProcPatch(t *testing.T) {
	img, labels := mkImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.Call("f")
		// EAX is the synthesized return value 0 after the repair fires.
		a.AddRI(isa.EAX, 5)
		a.Sys(isa.SysExit)
		a.Label("f")
		a.PushI(11)
		a.PushI(22) // sp now entry-8
		a.MovRI(isa.EDX, -3)
		a.Label("site")
		a.MovRR(isa.ECX, isa.EDX) // invariant on EDX violated here
		a.Halt()                  // would crash if not returned early
	})
	inv := &daikon.Invariant{Kind: daikon.KindOneOf, Var: vid(labels["site"], 0), Values: []uint32{1}}
	spOff := func(pc uint32) (uint32, bool) { return 8, pc == labels["site"] }
	rs := Generate(correlate.Candidate{Inv: inv}, instAtFor(img), spOff)
	var ret *Repair
	for _, r := range rs {
		if r.Strategy == StratReturnProc {
			ret = r
		}
	}
	if ret == nil {
		t.Fatal("no return-proc repair")
	}
	machine, _ := vm.New(vm.Config{Image: img, Patches: ret.BuildPatches("t")})
	res := machine.Run()
	if res.Outcome != vm.OutcomeExit || res.ExitCode != 5 {
		t.Fatalf("res = %+v", res)
	}
}

func TestClampLessSameInstruction(t *testing.T) {
	// CMPRR reads both variables: v1 = regA (copy length), v2 = regB
	// (buffer size). The clamp-less repair lowers v1 to v2.
	img, labels := mkImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EDX, 100) // copy length (attacker controlled)
		a.MovRI(isa.EBX, 16)  // buffer size
		a.Label("site")
		a.CmpRR(isa.EDX, isa.EBX)
		a.MovRR(isa.EAX, isa.EDX)
		a.Sys(isa.SysExit)
	})
	inv := &daikon.Invariant{
		Kind: daikon.KindLessThan,
		Var:  vid(labels["site"], 0), Var2: vid(labels["site"], 1),
	}
	rs := Generate(correlate.Candidate{Inv: inv}, instAtFor(img), noSP)
	var clamp *Repair
	for _, r := range rs {
		if r.Strategy == StratClampLess {
			clamp = r
		}
	}
	if clamp == nil {
		t.Fatalf("no clamp-less repair in %v", rs)
	}
	machine, _ := vm.New(vm.Config{Image: img, Patches: clamp.BuildPatches("t")})
	if res := machine.Run(); res.ExitCode != 16 {
		t.Errorf("exit = %d, want clamped 16", res.ExitCode)
	}
}

// TestClampModEnforcement: the clamp-mod repair rounds a violating value
// onto the learned congruence class — downward normally, upward when
// rounding down would wrap past zero (the 1-under-(v ≡ 2 mod 4) case
// must enforce 2, not 0xFFFFFFFE).
func TestClampModEnforcement(t *testing.T) {
	for _, tc := range []struct {
		start, want uint32
	}{
		{start: 7, want: 6}, // round down to ≡ 2 (mod 4)
		{start: 1, want: 2}, // rounding down would wrap; round up
		{start: 10, want: 10} /* already congruent: untouched */} {
		img, labels := mkImage(t, func(a *asm.Assembler) {
			a.Label("main")
			a.MovRI(isa.EDX, int32(tc.start))
			a.Label("site")
			a.MovRR(isa.EAX, isa.EDX) // slot 0 = regB (EDX), the offset
			a.Sys(isa.SysExit)
		})
		inv := &daikon.Invariant{
			Kind: daikon.KindModulus, Var: vid(labels["site"], 0), Values: []uint32{4, 2},
		}
		rs := Generate(correlate.Candidate{Inv: inv}, instAtFor(img), noSP)
		if len(rs) != 1 || rs[0].Strategy != StratClampMod {
			t.Fatalf("repairs for modulus = %v, want one clamp-mod", rs)
		}
		machine, _ := vm.New(vm.Config{Image: img, Patches: rs[0].BuildPatches("t")})
		if res := machine.Run(); res.ExitCode != tc.want {
			t.Errorf("start %d: exit = %d, want %d", tc.start, res.ExitCode, tc.want)
		}
	}
}

// TestNonzeroEnforcement: the nonzero-guard clamp replaces a zero value
// with the learned witness; skip-inst suppresses the instruction.
func TestNonzeroEnforcement(t *testing.T) {
	img, labels := mkImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EDX, 0)
		a.Label("site")
		a.MovRR(isa.EAX, isa.EDX)
		a.Sys(isa.SysExit)
	})
	inv := &daikon.Invariant{
		Kind: daikon.KindNonzero, Var: vid(labels["site"], 0), Bound: -3,
	}
	rs := Generate(correlate.Candidate{Inv: inv}, instAtFor(img), noSP)
	if len(rs) != 2 || rs[0].Strategy != StratNonzeroClamp || rs[1].Strategy != StratSkipInst {
		t.Fatalf("repairs for nonzero = %v, want [nonzero-clamp skip-inst]", rs)
	}
	machine, _ := vm.New(vm.Config{Image: img, Patches: rs[0].BuildPatches("t")})
	if res := machine.Run(); res.ExitCode != uint32(0xFFFF_FFFD) { // -3, the witness
		t.Errorf("clamp exit = %#x, want the witness -3", res.ExitCode)
	}
	machine, _ = vm.New(vm.Config{Image: img, Patches: rs[1].BuildPatches("t")})
	if res := machine.Run(); res.ExitCode != 0 { // MOVRR skipped; EAX still 0
		t.Errorf("skip-inst exit = %d, want 0", res.ExitCode)
	}
}

func TestCountByKind(t *testing.T) {
	oneof := &daikon.Invariant{Kind: daikon.KindOneOf, Var: vid(0x100, 0), Values: []uint32{1, 2}}
	lb := &daikon.Invariant{Kind: daikon.KindLowerBound, Var: vid(0x108, 0)}
	rs := []*Repair{
		{Inv: oneof, Strategy: StratSetValue, Value: 1},
		{Inv: oneof, Strategy: StratSetValue, Value: 2},
		{Inv: oneof, Strategy: StratSkipCall},
		{Inv: lb, Strategy: StratClampLower},
	}
	if got := CountByKind(rs); got != [NumKinds]int{1, 1, 0, 0, 0} {
		t.Errorf("counts = %v, want [1 1 0 0 0] (distinct invariants)", got)
	}
}

func TestRepairIDsDistinct(t *testing.T) {
	inv := &daikon.Invariant{Kind: daikon.KindOneOf, Var: vid(0x100, 0), Values: []uint32{1, 2}}
	r1 := &Repair{Inv: inv, Strategy: StratSetValue, Value: 1}
	r2 := &Repair{Inv: inv, Strategy: StratSetValue, Value: 2}
	r3 := &Repair{Inv: inv, Strategy: StratSkipCall}
	if r1.ID() == r2.ID() || r1.ID() == r3.ID() || r2.ID() == r3.ID() {
		t.Errorf("IDs collide: %s %s %s", r1.ID(), r2.ID(), r3.ID())
	}
}
