package vm

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/image"
	"repro/internal/isa"
)

// imageFor wraps hand-assembled code in an image at the test base address.
func imageFor(code []byte, labels map[string]uint32) *image.Image {
	return &image.Image{Base: 0x1000, Entry: labels["main"], Code: code}
}

// TestHookedLoopZeroAllocs is the instrumented twin of TestHotLoopZeroAllocs:
// with a tracing hook on every instruction, the monitored dispatch loop must
// still allocate nothing per instruction. Before the reusable hook context,
// the instrumented loop allocated a fresh Ctx per instruction, so 100k extra
// iterations allocated ~900k extra objects.
func TestHookedLoopZeroAllocs(t *testing.T) {
	var hooks uint64
	extra := hookedLoopExtraAllocs(t, func(ctx *Ctx) error {
		hooks++
		return nil
	})
	if hooks == 0 {
		t.Fatal("hooks never ran")
	}
	if extra > 16 {
		t.Fatalf("100k extra hooked iterations allocated %d extra objects; hooked path is not allocation-free", extra)
	}
}

// TestSlotAccessZeroAllocs: a hook that reads every slot of every
// instruction through Ctx.EvalSlot and writes each settable one back
// through Ctx.SetSlot allocates nothing — the slot layout is a value, not
// a slice built per call.
func TestSlotAccessZeroAllocs(t *testing.T) {
	var evals uint64
	extra := hookedLoopExtraAllocs(t, func(ctx *Ctx) error {
		l := isa.Layout(ctx.Inst)
		for si := 0; si < l.Len(); si++ {
			val, err := ctx.EvalSlot(si)
			if err != nil {
				return err
			}
			evals++
			if l.At(si).Settable() {
				if err := ctx.SetSlot(si, val); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if evals == 0 {
		t.Fatal("no slot was read")
	}
	if extra > 16 {
		t.Fatalf("100k extra iterations of slot reads and writes allocated %d extra objects", extra)
	}
}

// hookedLoopExtraAllocs runs the hot loop with hook on every instruction
// for 1k and for 101k trips and returns how many more objects the longer
// run allocated.
func hookedLoopExtraAllocs(t *testing.T, hook func(*Ctx) error) uint64 {
	measure := func(trips uint64) uint64 {
		pl := pluginFunc{name: "alloc-trace", f: func(v *VM, blk *Block) {
			for i := range blk.Insts {
				blk.AddHook(i, PrioTrace, hook)
			}
		}}
		im := buildHotImage(t)
		v, err := New(Config{Image: im, Input: tripInput(trips), MaxSteps: 1 << 62, Plugins: []Plugin{pl}})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := v.Run()
		runtime.ReadMemStats(&after)
		if res.Outcome != OutcomeExit || res.ExitCode != 0 {
			t.Fatalf("res = %+v", res)
		}
		return after.Mallocs - before.Mallocs
	}
	small := measure(1_000)
	big := measure(101_000)
	if big < small {
		return 0
	}
	return big - small
}

// TestRunResetsEntryEdge: every Run must record its first edge with
// From == 0 (the synthetic entry source). A reused VM whose previous run
// ended in some block B must not record the next run's entry as B→entry —
// that would make coverage fingerprints depend on run order within one
// machine, which the fuzzer's corpus dedup cannot tolerate.
func TestRunResetsEntryEdge(t *testing.T) {
	cov := NewCoverage()
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.AddRI(isa.EAX, 1)
		a.Jmp("tail")
		a.Label("tail")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	v, err := New(Config{Image: im, Coverage: cov})
	if err != nil {
		t.Fatal(err)
	}
	if res := v.Run(); res.Outcome != OutcomeExit {
		t.Fatalf("first run: %+v", res)
	}
	// Rewind the PC and run again on the same machine.
	v.CPU.PC = labels["main"]
	if res := v.Run(); res.Outcome != OutcomeExit {
		t.Fatalf("second run: %+v", res)
	}
	if got := cov.Hits(Edge{From: 0, To: labels["main"]}); got != 2 {
		t.Fatalf("entry edge hits = %d, want 2 (Run did not reset lastBlock)", got)
	}
	if got := cov.Hits(Edge{From: labels["tail"], To: labels["main"]}); got != 0 {
		t.Fatalf("phantom tail→main edge recorded %d times; entry edge leaked the previous run's last block", got)
	}
}

// TestHookOrderUnderHeavyInstrumentation drives AddHook's positional insert
// through an adversarial mix of priorities (descending, interleaved,
// duplicated) and verifies execution order equals (priority, insertion
// sequence) order — the contract the sort-based implementation provided.
func TestHookOrderUnderHeavyInstrumentation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prios := []int{PrioRepair, PrioCheck, PrioMonitor, PrioTrace}
	for trial := 0; trial < 50; trial++ {
		im, _ := buildImage(t, func(a *asm.Assembler) {
			a.Label("main")
			a.AddRI(isa.EAX, 1)
			a.MovRI(isa.EAX, 0)
			a.Sys(isa.SysExit)
		})
		var got []int
		type tagged struct {
			prio, id int
		}
		var inserted []tagged
		n := 5 + rng.Intn(40)
		plugin := pluginFunc{name: "order", f: func(v *VM, blk *Block) {
			for id := 0; id < n; id++ {
				id := id
				p := prios[rng.Intn(len(prios))]
				inserted = append(inserted, tagged{prio: p, id: id})
				blk.AddHook(0, p, func(*Ctx) error {
					got = append(got, id)
					return nil
				})
			}
		}}
		v, err := New(Config{Image: im, Plugins: []Plugin{plugin}})
		if err != nil {
			t.Fatal(err)
		}
		if res := v.Run(); res.Outcome != OutcomeExit {
			t.Fatalf("res = %+v", res)
		}
		// Reference order: stable sort by priority == insertion order within
		// equal priorities (insertion ids are already ascending).
		var want []int
		for _, p := range prios {
			for _, in := range inserted {
				if in.prio == p {
					want = append(want, in.id)
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d hooks ran, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: hook order %v, want %v", trial, got, want)
			}
		}
	}
}

// TestTracePatchSideExit: with the loop running inside a superblock, a patch
// applied mid-trace must take effect on the very next logical block — the
// superblock's generation check side-exits back to dispatch, which re-decodes
// and re-instruments the patched block.
func TestTracePatchSideExit(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EBX, 10)
		a.Label("loop")
		a.AddRI(isa.EAX, 1)
		a.Jmp("dec")
		a.Label("dec")
		a.SubRI(isa.EBX, 1)
		a.CmpRI(isa.EBX, 0)
		a.Jne("loop")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	v, err := New(Config{Image: im, TraceThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	decHits := 0
	applied := false
	if err := v.ApplyPatch(&Patch{
		ID: "arm", Addr: labels["loop"], Prio: PrioTrace,
		Hook: func(ctx *Ctx) error {
			if ctx.Reg(isa.EAX) == 4 && !applied {
				applied = true
				return ctx.VM.ApplyPatch(&Patch{
					ID: "probe", Addr: labels["dec"], Prio: PrioTrace,
					Hook: func(*Ctx) error { decHits++; return nil },
				})
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	res := v.Run()
	if res.Outcome != OutcomeExit || res.ExitCode != 0 {
		t.Fatalf("res = %+v", res)
	}
	// Same arithmetic as TestApplyPatchInvalidatesLinks: the patch lands on
	// iteration 5 before that iteration's dec block, so iterations 5..10
	// must observe it — 6 hits. A superblock that kept running its stale
	// trace past the patch would miss at least one.
	if decHits != 6 {
		t.Fatalf("probe ran %d times, want 6 (superblock ignored mid-trace patch)", decHits)
	}
}

// TestTracePatchRemovalSideExit is the removal direction: a patch removed
// mid-trace must stop firing on the very next logical block.
func TestTracePatchRemovalSideExit(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EBX, 10)
		a.Label("loop")
		a.AddRI(isa.EAX, 1)
		a.Jmp("dec")
		a.Label("dec")
		a.SubRI(isa.EBX, 1)
		a.CmpRI(isa.EBX, 0)
		a.Jne("loop")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	v, err := New(Config{Image: im, TraceThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	decHits := 0
	if err := v.ApplyPatch(&Patch{
		ID: "probe", Addr: labels["dec"], Prio: PrioTrace,
		Hook: func(*Ctx) error { decHits++; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	removed := false
	if err := v.ApplyPatch(&Patch{
		ID: "disarm", Addr: labels["loop"], Prio: PrioTrace,
		Hook: func(ctx *Ctx) error {
			if ctx.Reg(isa.EAX) == 4 && !removed {
				removed = true
				ctx.VM.RemovePatch("probe")
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	res := v.Run()
	if res.Outcome != OutcomeExit || res.ExitCode != 0 {
		t.Fatalf("res = %+v", res)
	}
	if decHits != 4 {
		t.Fatalf("probe ran %d times, want 4 (superblock kept running removed patch)", decHits)
	}
}

// buildRandomProgram assembles a randomized multi-block program: a chain of
// blocks with random ALU work, scratch-memory stores/loads, and random
// conditional branches between blocks. Termination is guaranteed by a
// counted fuel register checked at every block, so every program exits; the
// differential harness also runs some with tiny step budgets to compare the
// out-of-fuel path.
func buildRandomProgram(t testing.TB, rng *rand.Rand) (*asm.Assembler, int) {
	nBlocks := 3 + rng.Intn(6)
	fuel := int32(50 + rng.Intn(400))
	a := asm.New(0x1000)
	a.Label("main")
	// Scratch buffer pointer in EDX (below the stack pointer).
	a.MovRR(isa.EDX, isa.ESP)
	a.SubRI(isa.EDX, 128)
	a.MovRI(isa.EBX, fuel)
	a.MovRI(isa.EAX, int32(rng.Intn(1<<16)))
	a.MovRI(isa.ESI, int32(rng.Intn(1<<16)))
	a.Jmp("b0")
	conds := []func(string){a.Je, a.Jne, a.Jl, a.Jle, a.Jg, a.Jge, a.Jb, a.Jbe, a.Ja, a.Jae}
	for bi := 0; bi < nBlocks; bi++ {
		a.Label(fmt.Sprintf("b%d", bi))
		// Fuel check first: every block entry burns one fuel unit.
		a.SubRI(isa.EBX, 1)
		a.CmpRI(isa.EBX, 0)
		a.Jle("done")
		nIns := 1 + rng.Intn(6)
		for k := 0; k < nIns; k++ {
			switch rng.Intn(8) {
			case 0:
				a.AddRI(isa.EAX, int32(rng.Intn(255)+1))
			case 1:
				a.XorRI(isa.EAX, int32(rng.Intn(1<<12)))
			case 2:
				a.MulRI(isa.EAX, int32(rng.Intn(13)+1))
			case 3:
				a.AddRR(isa.EAX, isa.ESI)
			case 4:
				a.SubRR(isa.ESI, isa.EAX)
			case 5:
				a.Store(asm.M(isa.EDX, int32(4*rng.Intn(8))), isa.EAX)
			case 6:
				a.Load(isa.ESI, asm.M(isa.EDX, int32(4*rng.Intn(8))))
			case 7:
				a.ShrRI(isa.EAX, int32(rng.Intn(5)))
			}
		}
		// Random conditional branch to a random block, then fall through to
		// the next block (or wrap to b0 from the last).
		a.CmpRI(isa.EAX, int32(rng.Intn(1<<10)))
		conds[rng.Intn(len(conds))](fmt.Sprintf("b%d", rng.Intn(nBlocks)))
		if bi == nBlocks-1 {
			a.Jmp("b0")
		} else {
			a.Jmp(fmt.Sprintf("b%d", bi+1))
		}
	}
	a.Label("done")
	// Publish the final state through the display so output is compared too.
	a.Store(asm.M(isa.EDX, 0), isa.EAX)
	a.Store(asm.M(isa.EDX, 4), isa.ESI)
	a.MovRR(isa.EAX, isa.EDX)
	a.MovRI(isa.ECX, 8)
	a.Sys(isa.SysWrite)
	a.MovRI(isa.EAX, 0)
	a.Sys(isa.SysExit)
	return a, nBlocks
}

// TestTraceDifferentialRandom is the fuzz/coverage contract enforcer: for
// randomized programs, the trace tier must be observationally identical to
// the per-step interpreter — same RunResult, same display output, same
// edge-coverage fingerprint (edges recorded per logical block entry, so
// superblocks change nothing). Runs each program under a generous budget and
// a tiny one (exercising the out-of-fuel path through fused sweeps).
func TestTraceDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1009))
	for trial := 0; trial < 120; trial++ {
		a, _ := buildRandomProgram(t, rng)
		code, labels, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		im := imageFor(code, labels)
		budgets := []uint64{1 << 40, uint64(20 + rng.Intn(300))}
		for _, maxSteps := range budgets {
			type obs struct {
				res     RunResult
				covHash uint64
				edges   int
			}
			runOne := func(threshold int) obs {
				cov := NewCoverage()
				v, err := New(Config{Image: im, Coverage: cov, MaxSteps: maxSteps, TraceThreshold: threshold})
				if err != nil {
					t.Fatal(err)
				}
				return obs{res: v.Run(), covHash: cov.Hash(), edges: cov.EdgeCount()}
			}
			off := runOne(TraceDisabled)
			for _, th := range []int{1, 2, 5} {
				on := runOne(th)
				if on.res.Outcome != off.res.Outcome || on.res.ExitCode != off.res.ExitCode ||
					on.res.Steps != off.res.Steps || on.res.Blocks != off.res.Blocks ||
					on.res.HookRuns != off.res.HookRuns ||
					!bytes.Equal(on.res.Output, off.res.Output) {
					t.Fatalf("trial %d budget %d threshold %d: results diverge\n jit: %+v\n int: %+v",
						trial, maxSteps, th, on.res, off.res)
				}
				if (on.res.Crash == nil) != (off.res.Crash == nil) {
					t.Fatalf("trial %d budget %d threshold %d: crash divergence: %v vs %v",
						trial, maxSteps, th, on.res.Crash, off.res.Crash)
				}
				if on.res.Crash != nil && (on.res.Crash.PC != off.res.Crash.PC || on.res.Crash.Reason != off.res.Crash.Reason) {
					t.Fatalf("trial %d budget %d threshold %d: crash detail divergence: %+v vs %+v",
						trial, maxSteps, th, on.res.Crash, off.res.Crash)
				}
				if on.covHash != off.covHash || on.edges != off.edges {
					t.Fatalf("trial %d budget %d threshold %d: coverage fingerprint diverges: %#x/%d vs %#x/%d",
						trial, maxSteps, th, on.covHash, on.edges, off.covHash, off.edges)
				}
			}
		}
	}
}

// TestTraceDifferentialHooked repeats the differential over hooked machines:
// with every instruction instrumented, superblocks route through the hooked
// block executors and hook run counts must match exactly.
func TestTraceDifferentialHooked(t *testing.T) {
	rng := rand.New(rand.NewSource(4099))
	for trial := 0; trial < 40; trial++ {
		a, _ := buildRandomProgram(t, rng)
		code, labels, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		im := imageFor(code, labels)
		runOne := func(threshold int) (RunResult, uint64, uint64) {
			var hooks uint64
			pl := pluginFunc{name: "difftrace", f: func(v *VM, blk *Block) {
				for i := range blk.Insts {
					blk.AddHook(i, PrioTrace, func(*Ctx) error {
						hooks++
						return nil
					})
				}
			}}
			cov := NewCoverage()
			v, err := New(Config{Image: im, Coverage: cov, MaxSteps: 1 << 40,
				TraceThreshold: threshold, Plugins: []Plugin{pl}})
			if err != nil {
				t.Fatal(err)
			}
			res := v.Run()
			return res, hooks, cov.Hash()
		}
		offRes, offHooks, offHash := runOne(TraceDisabled)
		onRes, onHooks, onHash := runOne(1)
		if onRes.Outcome != offRes.Outcome || onRes.Steps != offRes.Steps ||
			onRes.HookRuns != offRes.HookRuns || onHooks != offHooks ||
			!bytes.Equal(onRes.Output, offRes.Output) || onHash != offHash {
			t.Fatalf("trial %d: hooked differential diverges\n jit: %+v hooks=%d hash=%#x\n int: %+v hooks=%d hash=%#x",
				trial, onRes, onHooks, onHash, offRes, offHooks, offHash)
		}
	}
}
