package trace

import (
	"repro/internal/daikon"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Duplicate-variable elimination (§2.2.4): ClearView statically analyzes
// each basic block to find distinct variables that always hold the same
// value — register copies, values just loaded, unmodified re-reads — and
// keeps only the earliest occurrence. The front end performs the analysis
// at instrumentation time, so duplicate slots are simply never observed
// (the paper reports the optimization halves the number of inferred
// invariants and the associated checking cost).
//
// The analysis is a per-block forward value-numbering over registers: a
// register becomes "known" when first observed or when written by a pure
// data movement (register copy, load, pop); any arithmetic write or
// implicit modification invalidates it. Memory is not tracked — two loads
// from one address stay distinct variables — which keeps the analysis
// conservative in the presence of aliasing.

// dupSlots returns, for each instruction of the block, a mask of the slot
// observations that are statically known duplicates of an earlier
// variable (bit si set: slot si is a duplicate).
func dupSlots(b *vm.Block) []uint8 {
	known := map[isa.Reg]bool{}
	out := make([]uint8, len(b.Insts))
	for i, in := range b.Insts {
		l := isa.Layout(in)
		for si := 0; si < l.Len(); si++ {
			switch sp := l.At(si); sp.Kind {
			case isa.SlotRegA, isa.SlotRegB, isa.SlotRegX:
				if known[sp.Reg] {
					out[i] |= 1 << si
				} else {
					// First observation of this register value becomes
					// the canonical variable.
					known[sp.Reg] = true
				}
			}
		}
		applyWriteEffects(in, known)
	}
	return out
}

// applyWriteEffects updates register knowledge after one instruction.
func applyWriteEffects(in isa.Inst, known map[isa.Reg]bool) {
	invalidate := func(r isa.Reg) { delete(known, r) }
	switch in.Op {
	case isa.MOVRR:
		// Pure copy: A now holds B's (just-observed) value.
		known[in.A] = true
	case isa.LOAD, isa.LOADB, isa.LOADA, isa.POP:
		// A holds exactly the value observed at this instruction's
		// memval slot.
		known[in.A] = true
		if in.Op == isa.POP {
			invalidate(isa.ESP)
		}
	case isa.MOVRI, isa.LEA,
		isa.ADDRR, isa.ADDRI, isa.SUBRR, isa.SUBRI, isa.MULRR, isa.MULRI,
		isa.DIVRR, isa.MODRR,
		isa.ANDRR, isa.ANDRI, isa.ORRR, isa.ORRI, isa.XORRR, isa.XORRI,
		isa.SHLRI, isa.SHRRI, isa.SARRI, isa.SEXTB:
		invalidate(in.A)
	case isa.PUSH, isa.PUSHI:
		invalidate(isa.ESP)
	case isa.CALL, isa.CALLR, isa.CALLM, isa.RET:
		invalidate(isa.ESP)
		invalidate(isa.EAX)
	case isa.SYS:
		invalidate(isa.EAX)
	case isa.COPYB:
		invalidate(isa.ECX)
		invalidate(isa.ESI)
		invalidate(isa.EDI)
	}
}

// observedSlots returns the slot indices to record for instruction i of
// the block, honouring duplicate elimination unless disabled.
func (r *Recorder) observedSlots(dups []uint8, i int, in isa.Inst) []int {
	l := isa.Layout(in)
	out := make([]int, 0, l.Len())
	for si := 0; si < l.Len(); si++ {
		if !r.DisableDupElim && dups[i]&(1<<si) != 0 {
			continue
		}
		out = append(out, si)
	}
	return out
}

// Obs re-exported convenience for tests.
type Obs = daikon.Obs
