// Package vm implements the managed program execution environment — the
// analog of the Determina/DynamoRIO substrate ClearView builds on (§2.1).
//
// All application code executes out of a basic-block code cache. Plugins
// are given each block once, as it enters the cache, and may attach hooks
// to individual instructions (instrumentation). Patches attach hooks to
// instruction addresses through the patch manager and can be applied to and
// removed from a *running* machine; affected blocks are ejected from the
// cache so the change takes effect immediately, without a restart and
// without otherwise perturbing the execution.
package vm

import (
	"fmt"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Default address-space layout.
const (
	DefaultStackTop  = 0x3000_0000
	DefaultStackSize = 0x0004_0000
	DefaultHeapBase  = 0x2000_0000
	DefaultHeapSize  = 0x0100_0000
	DefaultMaxSteps  = 20_000_000
)

// Flags holds the condition codes set by CMP.
type Flags struct {
	Z bool // zero
	S bool // sign of the subtraction result
	C bool // unsigned borrow
	O bool // signed overflow
}

// CPU is the architectural register state.
type CPU struct {
	Regs  [isa.NumRegs]uint32
	PC    uint32
	Flags Flags
}

// Outcome classifies how a run ended, following the paper's taxonomy (§2):
// a failure is an error detected by a ClearView monitor; a crash is any
// other termination of the application (fault, invalid instruction,
// resource exhaustion, hang).
type Outcome uint8

const (
	// OutcomeExit means the application terminated normally via SYS exit.
	OutcomeExit Outcome = iota
	// OutcomeFailure means a monitor detected a failure and terminated
	// the application.
	OutcomeFailure
	// OutcomeCrash means the application terminated abnormally without a
	// monitor detection.
	OutcomeCrash
)

func (o Outcome) String() string {
	switch o {
	case OutcomeExit:
		return "exit"
	case OutcomeFailure:
		return "failure"
	case OutcomeCrash:
		return "crash"
	}
	return fmt.Sprintf("outcome%d", uint8(o))
}

// Failure describes a monitor-detected failure: the location (program
// counter) where the monitor detected it, which monitor fired, and the
// call-stack snapshot if a shadow stack was maintained.
type Failure struct {
	PC      uint32
	Monitor string
	Kind    string
	Detail  string
	Target  uint32   // offending transfer target or write address
	Stack   []uint32 // innermost-first procedure-entry snapshot, if available
}

func (f *Failure) Error() string {
	return fmt.Sprintf("%s at %#x: %s (target %#x)", f.Monitor, f.PC, f.Kind, f.Target)
}

// Crash describes an abnormal termination that no monitor caught.
type Crash struct {
	PC     uint32
	Reason string
}

func (c *Crash) Error() string { return fmt.Sprintf("crash at %#x: %s", c.PC, c.Reason) }

// RunResult summarizes one execution.
type RunResult struct {
	Outcome  Outcome
	ExitCode uint32
	Failure  *Failure // set iff Outcome == OutcomeFailure
	Crash    *Crash   // set iff Outcome == OutcomeCrash
	Output   []byte   // the "display": everything the app wrote via SYS write
	Steps    uint64   // instructions executed
	Blocks   int      // basic blocks decoded into the cache
	HookRuns uint64   // instrumentation/patch hook invocations
}

// Plugin instruments basic blocks as they enter the code cache. A plugin
// instance may be shared across VM instances to accumulate state between
// runs (e.g. the CFG database or the learning engine).
type Plugin interface {
	Name() string
	// Instrument may attach hooks to the block's instructions. It is
	// called exactly once per block per cache insertion.
	Instrument(v *VM, b *Block)
}

// StackProvider supplies a call-stack snapshot at failure time. The shadow
// stack monitor registers itself as the provider; without one, failures
// carry no stack (the native stack may be corrupted — §2.3).
type StackProvider interface {
	StackSnapshot() []uint32
}

// Config assembles a machine.
type Config struct {
	Image     *image.Image
	Plugins   []Plugin
	Patches   []*Patch // initial patch set; more may be applied mid-run
	Input     []byte   // the input stream (sequence of pages)
	MaxSteps  uint64
	StackTop  uint32
	StackSize uint32
	HeapBase  uint32
	HeapSize  uint32

	// SnapshotInterval asks the machine to emit a state snapshot to
	// SnapshotSink every ~interval executed instructions (plus one at step
	// 0, before the first instruction). Snapshots are copy-on-write, so
	// the recording overhead is proportional to pages dirtied between
	// snapshots. Both fields must be set for capture to happen.
	SnapshotInterval uint64
	SnapshotSink     func(*Snapshot)

	// Coverage, when non-nil, records per-basic-block edge coverage: every
	// time the dispatch loop enters a block from the code cache, the
	// (previous block, next block) edge is counted. nil costs nothing.
	Coverage *Coverage

	// TraceThreshold is the block-entry heat at which the dispatch loop
	// records the executed path through a block head and fuses it into a
	// superblock (trace.go). Zero selects DefaultTraceThreshold;
	// TraceDisabled turns trace compilation off entirely (pure
	// block-at-a-time interpretation, e.g. for differential oracles).
	TraceThreshold int
}

// Trace-tier tuning. The threshold is deliberately low: the guest programs
// are short request handlers, so a loop that runs even a few dozen times
// dominates a run.
const (
	// DefaultTraceThreshold is the block-entry count that triggers trace
	// recording when Config.TraceThreshold is zero.
	DefaultTraceThreshold = 64
	// TraceDisabled as Config.TraceThreshold disables the trace tier.
	TraceDisabled = -1
)

// VM is one executing instance of the protected application.
type VM struct {
	CPU   CPU
	Mem   *mem.Memory
	Heap  *mem.Heap
	Image *image.Image

	plugins []Plugin
	patches *patchSet
	cache   map[uint32]*Block
	// cacheGen is the code-cache generation; block successor links are
	// valid only for the generation they were created under, so any
	// flush (ApplyPatch/RemovePatch/Restore) invalidates all links by
	// incrementing it.
	cacheGen uint64
	stack    StackProvider

	// fastCtx is the reusable hook context of the unhooked fast path.
	// No hook ever observes it, so its disposition fields stay unset and
	// the hot loop performs no per-instruction allocation.
	fastCtx Ctx
	// hookCtx is the reusable context of the instrumented path: hooks see
	// it for exactly one instruction and never retain it, so it is reset
	// (not reallocated) per instruction.
	hookCtx Ctx

	// intr is the pending software interrupt (exec.go): a SYS exit stores
	// its request here and the block executors service it at the block
	// boundary instead of threading a sentinel error through exec.
	intr intrCode

	// Trace tier (trace.go/superblock.go).
	traceThreshold uint32        // block heat that triggers recording; 0 = disabled
	rec            traceRecorder // in-flight trace recording, if any
	// addrIndex maps each code address covered by a cached block to the
	// blocks containing it, so patch apply/remove flushes only the blocks
	// actually touching the patched instruction instead of walking the
	// whole cache. It is lazy: nil until the first flush builds it from
	// the cache, incrementally maintained at block decode afterwards —
	// machines that never see a patch land (replay restores, fuzz runs)
	// never pay the per-decode indexing.
	addrIndex map[uint32][]*Block

	// Exception handling emulation (SysSetEH): on a memory fault the
	// machine dispatches to the handler address stored at ehSlot, subject
	// to the registered transfer validator (Memory Firewall).
	ehSlot       uint32
	ehDispatched bool
	validator    func(pc, target uint32) *Failure

	input    []byte
	inPos    int
	output   []byte
	maxSteps uint64
	exitCode uint32 // set when SYS exit raises intrExit

	steps    uint64
	hookRuns uint64
	blocks   int

	snapInterval uint64
	snapSink     func(*Snapshot)
	nextSnap     uint64

	cov       *Coverage
	lastBlock uint32

	// Hang watch (monitor.HangGuard): when hangBudget is nonzero and the
	// step count reaches it, the next code-cache dispatch — the same point
	// that records edge coverage — terminates the run with the failure
	// hangFail produces instead of executing the block. Checking at
	// dispatch (not per instruction) keeps the watch off the hot loop and
	// pins the failure location to a basic-block head, so every run of the
	// same input fails at the same PC.
	hangBudget uint64
	hangFail   func(pc uint32, steps uint64) *Failure

	stackLo, stackHi uint32
}

// New builds a machine, loads the image, maps stack and heap, and points
// the CPU at the entry point with ESP at the top of the stack.
func New(cfg Config) (*VM, error) {
	if cfg.Image == nil {
		return nil, fmt.Errorf("vm: nil image")
	}
	if err := cfg.Image.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	if cfg.StackTop == 0 {
		cfg.StackTop = DefaultStackTop
	}
	if cfg.StackSize == 0 {
		cfg.StackSize = DefaultStackSize
	}
	if cfg.HeapBase == 0 {
		cfg.HeapBase = DefaultHeapBase
	}
	if cfg.HeapSize == 0 {
		cfg.HeapSize = DefaultHeapSize
	}
	// Code pages map the image's own frames copy-on-write and the stack
	// maps the shared zero frame, so no page is allocated until written.
	dec := cfg.Image.Decoded()
	m := mem.New()
	for i, f := range dec.Frames {
		m.MapFrame(dec.FrameBase+uint32(i)*mem.PageSize, f)
	}
	m.Map(cfg.StackTop-cfg.StackSize, cfg.StackSize)
	v := &VM{
		Mem:      m,
		Heap:     mem.NewHeap(m, cfg.HeapBase, cfg.HeapSize),
		Image:    cfg.Image,
		plugins:  cfg.Plugins,
		patches:  newPatchSet(),
		cache:    make(map[uint32]*Block, dec.Blocks),
		input:    cfg.Input,
		maxSteps: cfg.MaxSteps,
		stackLo:  cfg.StackTop - cfg.StackSize,
		stackHi:  cfg.StackTop,
	}
	switch {
	case cfg.TraceThreshold > 0:
		v.traceThreshold = uint32(cfg.TraceThreshold)
	case cfg.TraceThreshold == 0:
		v.traceThreshold = DefaultTraceThreshold
	default: // TraceDisabled
		v.traceThreshold = 0
	}
	if cfg.SnapshotInterval > 0 && cfg.SnapshotSink != nil {
		v.snapInterval = cfg.SnapshotInterval
		v.snapSink = cfg.SnapshotSink
	}
	v.cov = cfg.Coverage
	v.fastCtx.VM = v
	v.hookCtx.VM = v
	v.CPU.PC = cfg.Image.Entry
	v.CPU.Regs[isa.ESP] = cfg.StackTop
	for _, p := range cfg.Patches {
		if err := v.ApplyPatch(p); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// SetStackProvider registers the shadow-stack snapshot source.
func (v *VM) SetStackProvider(p StackProvider) { v.stack = p }

// SetHangWatch arms the step-budget watchdog: once budget instructions
// have executed, the next basic-block dispatch ends the run with the
// failure fail produces (given the block's start PC and the step count).
// A zero budget disarms the watch. monitor.HangGuard registers itself
// here; the budget must stay below Config.MaxSteps or the ordinary
// step-limit crash fires first.
func (v *VM) SetHangWatch(budget uint64, fail func(pc uint32, steps uint64) *Failure) {
	v.hangBudget = budget
	v.hangFail = fail
}

// SetTransferValidator registers a validation check applied to
// runtime-dispatched control transfers that do not correspond to a decoded
// instruction — currently only exception-handler dispatch. Memory Firewall
// registers itself here so that a corrupted handler record cannot divert
// execution to injected code.
func (v *VM) SetTransferValidator(f func(pc, target uint32) *Failure) {
	v.validator = f
}

// StackBounds returns the [lo, hi) bounds of the machine stack region.
func (v *VM) StackBounds() (lo, hi uint32) { return v.stackLo, v.stackHi }

// InCode reports whether addr lies within the application code region —
// the legality predicate Memory Firewall applies to transfer targets.
func (v *VM) InCode(addr uint32) bool { return v.Image.Contains(addr) }

// Output returns the display bytes written so far.
func (v *VM) OutputBytes() []byte { return v.output }

// Steps returns the number of instructions executed so far.
func (v *VM) Steps() uint64 { return v.steps }

// InputRemaining returns the number of unconsumed input bytes.
func (v *VM) InputRemaining() int { return len(v.input) - v.inPos }

// Coverage returns the attached edge-coverage accumulator, or nil.
func (v *VM) Coverage() *Coverage { return v.cov }

func (v *VM) snapshotStack() []uint32 {
	if v.stack == nil {
		return nil
	}
	return v.stack.StackSnapshot()
}

func (v *VM) result(o Outcome, exit uint32, f *Failure, c *Crash) RunResult {
	return RunResult{
		Outcome: o, ExitCode: exit, Failure: f, Crash: c,
		Output: v.output, Steps: v.steps, Blocks: v.blocks, HookRuns: v.hookRuns,
	}
}
