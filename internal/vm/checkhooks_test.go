package vm_test

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/correlate"
	"repro/internal/daikon"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/vm"
)

// TestCheckHooksZeroAllocs is TestHookedLoopZeroAllocs for correlate's
// checking patches: a one-variable check, a two-variable check within one
// instruction and a two-variable check staged across instructions, all in
// a hot loop, allocate nothing per iteration.
func TestCheckHooksZeroAllocs(t *testing.T) {
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
	a.MovRR(isa.EDI, isa.ESI) // observes i
	a.Label("site")
	a.MovRR(isa.ECX, isa.EBX) // observes n-i+1
	a.Label("pair")
	a.CmpRR(isa.EDI, isa.ECX) // observes both
	a.SubRI(isa.EBX, 1)
	a.CmpRI(isa.EBX, 0)
	a.Jne("loop")
	a.MovRI(isa.EAX, 0)
	a.Sys(isa.SysExit)
	code, labels, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	img := &image.Image{Base: 0x1000, Entry: labels["main"], Code: code}
	at := func(label string, slot uint8) daikon.VarID { return daikon.VarID{PC: labels[label], Slot: slot} }
	cs := correlate.BuildCheckSet("fail@loop", []correlate.Candidate{
		{Inv: &daikon.Invariant{Kind: daikon.KindLowerBound, Var: at("site", 0), Bound: 2}},
		{Inv: &daikon.Invariant{Kind: daikon.KindLessThan, Var: at("pair", 0), Var2: at("pair", 1)}},
		{Inv: &daikon.Invariant{Kind: daikon.KindLessThan, Var: at("first", 0), Var2: at("site", 0)}},
	})

	measure := func(trips uint32) uint64 {
		machine, err := vm.New(vm.Config{
			Image: img, Input: binary.LittleEndian.AppendUint32(nil, trips),
			MaxSteps: 1 << 62, Patches: cs.Patches,
		})
		if err != nil {
			t.Fatal(err)
		}
		cs.StartRun()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := machine.Run()
		runtime.ReadMemStats(&after)
		if res.Outcome != vm.OutcomeExit || res.ExitCode != 0 {
			t.Fatalf("res = %+v", res)
		}
		tallies := cs.DrainRun()
		if len(tallies) != 3 {
			t.Fatalf("%d tallies, want one per candidate", len(tallies))
		}
		for _, o := range tallies {
			if o.Checks != uint64(trips) {
				t.Fatalf("%s checked %d times in %d trips", o.InvID, o.Checks, trips)
			}
		}
		return after.Mallocs - before.Mallocs
	}
	small := measure(1_000)
	big := measure(101_000)
	if big > small+16 {
		t.Fatalf("100k extra checked iterations allocated %d extra objects; checking hooks are not allocation-free", big-small)
	}
}
