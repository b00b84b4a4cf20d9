package vm

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
)

// selfModifyingImage assembles a program that loops long enough to heat
// the trace tier, then overwrites an instruction on its second code page
// — one whose block has not been fetched yet — and jumps to a block that
// starts on the first page and runs into the rewritten one. It exits with
// the rewritten instruction's value, 42; the bytes as loaded would exit
// with 1.
func selfModifyingImage(t testing.TB) *image.Image {
	t.Helper()
	patch := asm.New(0)
	patch.MovRI(isa.EAX, 42)
	enc, _, err := patch.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	const spanAt = 0x1000 + mem.PageSize - 2*isa.InstSize // two slots before page 2
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.ECX, 0)
		a.Label("loop")
		a.AddRI(isa.ECX, 1)
		a.CmpRI(isa.ECX, 100)
		a.Jl("loop")
		a.MovLabel(isa.EBX, "target")
		a.MovRI(isa.EDX, int32(binary.LittleEndian.Uint32(enc[0:])))
		a.Store(asm.M(isa.EBX, 0), isa.EDX)
		a.MovRI(isa.EDX, int32(binary.LittleEndian.Uint32(enc[4:])))
		a.Store(asm.M(isa.EBX, 4), isa.EDX)
		a.Jmp("span")
		for a.PC() < spanAt {
			a.Nop()
		}
		a.Label("span")
		a.Nop()
		a.Nop()
		a.Label("target") // first slot of page 2
		a.MovRI(isa.EAX, 1)
		a.Sys(isa.SysExit)
	})
	return im
}

// fresh returns a copy of im with no decoded form built yet.
func fresh(t testing.TB, im *image.Image) *image.Image {
	t.Helper()
	c, err := image.Unmarshal(im.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// bypassed builds a machine whose code pages no longer share the image's
// frames — rewriting the loaded bytes in place privatizes them — so every
// block decodes from memory, as before the shared decode table existed.
func bypassed(t testing.TB, im *image.Image) *VM {
	t.Helper()
	v, err := New(Config{Image: im})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Mem.WriteBytes(im.Base, im.Code); err != nil {
		t.Fatal(err)
	}
	return v
}

func sameRun(t *testing.T, what string, got, want RunResult) {
	t.Helper()
	if got.Outcome != want.Outcome || got.ExitCode != want.ExitCode || got.Steps != want.Steps ||
		got.Blocks != want.Blocks || got.HookRuns != want.HookRuns || !bytes.Equal(got.Output, want.Output) ||
		!reflect.DeepEqual(got.Crash, want.Crash) || !reflect.DeepEqual(got.Failure, want.Failure) {
		t.Fatalf("%s: %+v, want %+v", what, got, want)
	}
}

// TestCodeWriteBeforeFetchExecutesWrittenBytes: a guest write to a code
// page before a block on it is first fetched must execute the written
// bytes — the block may not come from the image's decode table — and the
// run must equal one with the shared table bypassed, with the trace tier
// on and off.
func TestCodeWriteBeforeFetchExecutesWrittenBytes(t *testing.T) {
	im := selfModifyingImage(t)
	for _, threshold := range []int{0, TraceDisabled} {
		v, err := New(Config{Image: im, TraceThreshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		got := v.Run()
		if got.Outcome != OutcomeExit || got.ExitCode != 42 {
			t.Fatalf("threshold %d: %+v, want exit 42 from the rewritten instruction", threshold, got)
		}
		ref := bypassed(t, im)
		ref.traceThreshold = v.traceThreshold
		sameRun(t, "shared table vs bypassed", got, ref.Run())

		// Blocks on the untouched first page alias the table; the block
		// that runs into the written page owns its instructions.
		dec := im.Decoded()
		main := v.cache[im.Entry]
		if main == nil || &main.Insts[0] != &dec.Insts[0] {
			t.Fatal("entry block does not alias the image's decode table")
		}
		span := v.cache[0x1000+mem.PageSize-2*isa.InstSize]
		if span == nil || len(span.Insts) != 4 {
			t.Fatalf("span block = %+v, want 4 instructions across the page boundary", span)
		}
		if slot, _ := dec.Slot(span.Start); &span.Insts[0] == &dec.Insts[slot] {
			t.Fatal("a block spanning a written page aliases the decode table")
		}
	}
}

// TestConcurrentMachinesShareOneImage: machines started concurrently on
// one fresh image — racing to build its decoded form, then sharing its
// frames and decode table — each equal a single machine on an image of
// their own. Run under -race.
func TestConcurrentMachinesShareOneImage(t *testing.T) {
	im := selfModifyingImage(t)
	want := run(t, fresh(t, im), Config{})
	shared := fresh(t, im)
	const n = 8
	got := make([]RunResult, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := New(Config{Image: shared})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = v.Run()
		}()
	}
	wg.Wait()
	for i := range got {
		sameRun(t, "concurrent machine", got[i], want)
	}
	if f := shared.Decoded().Frames[1]; f[0] != byte(isa.MOVRI) || binary.LittleEndian.Uint32(f[4:]) != 1 {
		t.Fatal("a machine's code write reached the image's shared frame")
	}
}

// TestNewAllocatesNoPages: on an image already decoded, building a
// machine maps its code and stack pages without allocating any of them —
// a handful of allocations for the machine's own bookkeeping, where
// mapping 64 stack pages and the code pages once cost one each.
func TestNewAllocatesNoPages(t *testing.T) {
	im := selfModifyingImage(t)
	cfg := Config{Image: im}
	if _, err := New(cfg); err != nil { // decode the image once
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxNewAllocs {
		t.Fatalf("vm.New made %.0f allocations, want at most %d", allocs, maxNewAllocs)
	}
}

// maxNewAllocs bounds vm.New on a decoded image: the machine, its memory,
// page-table nodes, heap and patch bookkeeping, and the code-cache map.
const maxNewAllocs = 16
