package isa

import "fmt"

// SlotKind classifies one observable value at an instruction. Slots are the
// ClearView/Daikon notion of a "variable": a value that is meaningful at the
// level of the compiled binary — a register an instruction reads, an address
// it computes, or a value it loads through that address (§2.2.1).
type SlotKind uint8

const (
	// SlotRegA is the value of register A read before execution.
	SlotRegA SlotKind = iota
	// SlotRegB is the value of register B (second operand or memory base).
	SlotRegB
	// SlotRegX is the value of the memory index register.
	SlotRegX
	// SlotAddr is the memory address the instruction computes
	// (B + X<<Scale + Imm, or ESP for stack operations).
	SlotAddr
	// SlotMemVal is the value read through the computed address — for
	// CALLM this is the function pointer fetched from memory, which is
	// the variable ClearView's one-of call-site invariants range over.
	SlotMemVal
)

var slotKindNames = [...]string{"regA", "regB", "regX", "addr", "memval"}

func (k SlotKind) String() string {
	if int(k) < len(slotKindNames) {
		return slotKindNames[k]
	}
	return fmt.Sprintf("slot%d", uint8(k))
}

// SlotSpec describes one slot of an instruction.
type SlotSpec struct {
	Kind SlotKind
	Reg  Reg // the register read, for SlotRegA/SlotRegB/SlotRegX
}

func (s SlotSpec) String() string {
	switch s.Kind {
	case SlotRegA, SlotRegB, SlotRegX:
		return s.Kind.String() + ":" + s.Reg.String()
	}
	return s.Kind.String()
}

// Settable reports whether a repair patch can enforce an invariant on this
// slot by mutating machine state before the instruction executes. Register
// slots are set by writing the register; SlotMemVal is set by writing the
// computed address (so the instruction then reads the enforced value).
// Computed addresses themselves are derived quantities and cannot be
// assigned directly.
func (s SlotSpec) Settable() bool { return s.Kind != SlotAddr }

// MaxSlots is the most slots any instruction has (a load, store or
// memory-indirect call with an index register).
const MaxSlots = 4

// SlotLayout is an instruction's slots in index order, held by value so
// that computing and reading it allocates nothing.
type SlotLayout struct {
	specs [MaxSlots]SlotSpec
	n     uint8
}

// Len returns the number of slots.
func (l SlotLayout) Len() int { return int(l.n) }

// At returns slot i; i must be in [0, Len()).
func (l SlotLayout) At(i int) SlotSpec { return l.specs[i] }

func (l *SlotLayout) add(kind SlotKind, reg Reg) {
	l.specs[l.n] = SlotSpec{Kind: kind, Reg: reg}
	l.n++
}

// Layout returns the observable slots of an instruction, in a fixed order
// that defines each slot's index. A variable in the invariant system is
// identified by (instruction address, slot index), so this order is part of
// the serialized-invariant format and must not change.
func Layout(in Inst) SlotLayout {
	var l SlotLayout
	memOperand := func() {
		l.add(SlotRegB, in.B)
		if in.X.Valid() {
			l.add(SlotRegX, in.X)
		}
		l.add(SlotAddr, 0)
	}
	switch in.Op {
	case MOVRR:
		l.add(SlotRegB, in.B)
	case LOAD, LOADB, LOADA, CALLM:
		memOperand()
		l.add(SlotMemVal, 0)
	case STORE, STOREB:
		l.add(SlotRegA, in.A)
		memOperand()
	case LEA:
		memOperand()
	case ADDRR, SUBRR, MULRR, ANDRR, ORRR, XORRR, CMPRR, DIVRR, MODRR:
		l.add(SlotRegA, in.A)
		l.add(SlotRegB, in.B)
	case ADDRI, SUBRI, MULRI, ANDRI, ORRI, XORRI, SHLRI, SHRRI, SARRI, CMPRI, SEXTB,
		JMPR, CALLR, PUSH:
		l.add(SlotRegA, in.A)
	case RET, POP:
		l.add(SlotAddr, 0)
		l.add(SlotMemVal, 0)
	case COPYB:
		// Implicit operands of the block copy: count, source pointer,
		// destination pointer. The count slot is the variable ClearView's
		// copy-length invariants (lower-bound and less-than) range over.
		l.add(SlotRegA, ECX)
		l.add(SlotRegB, ESI)
		l.add(SlotRegX, EDI)
	}
	return l
}

// TargetSlot returns the slot index holding the control-transfer target of
// an indirect transfer, or -1 if the instruction is not an indirect
// transfer. Enforcing a one-of invariant on this slot redirects the
// transfer (the "call a previously observed function" repair of §2.5.1).
// The target is every indirect transfer's last slot: the register of
// JMPR/CALLR, the pointer CALLM and RET load.
func TargetSlot(in Inst) int {
	if !in.Op.IsIndirect() {
		return -1
	}
	return Layout(in).Len() - 1
}
