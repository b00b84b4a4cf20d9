// Package daikon implements the dynamic invariant inference engine — the
// learning component of ClearView (§2.2). It observes the values of
// binary-level variables (registers an instruction reads, addresses it
// computes, values it loads) during normal executions and infers the three
// invariant forms ClearView repairs (§2.5): one-of, lower-bound, and
// less-than, plus the auxiliary stack-pointer-offset invariants used by the
// return-from-procedure repair (§2.2.4).
//
// The engine reproduces the paper's optimizations: the pointer heuristic
// (a value that is ever negative or between 1 and 100,000 marks its
// variable as a non-pointer; lower-bound and less-than inference is skipped
// for pointer variables), duplicate-variable elimination (of always-equal
// variables in a block, only the earliest keeps its invariants), and
// two-variable invariants restricted to pairs within one basic block.
package daikon

import (
	"fmt"
	"sort"
)

// VarID identifies a binary-level variable: slot Slot of the instruction at
// PC (see isa.Layout for the slot model).
type VarID struct {
	PC   uint32
	Slot uint8
}

func (v VarID) String() string { return fmt.Sprintf("%#x.%d", v.PC, v.Slot) }

// Less orders VarIDs by (PC, Slot); within straight-line code this is
// execution order, which the repair tie-break rules rely on.
func (v VarID) Less(w VarID) bool {
	if v.PC != w.PC {
		return v.PC < w.PC
	}
	return v.Slot < w.Slot
}

// Kind enumerates the invariant forms.
type Kind uint8

const (
	// KindOneOf is v ∈ {c1..cn} (§2.5.1).
	KindOneOf Kind = iota
	// KindLowerBound is c ≤ v, signed (§2.5.2).
	KindLowerBound
	// KindLessThan is v1 ≤ v2, signed (§2.5.3).
	KindLessThan
	// KindSPOffset is spEntry = spHere + c (§2.2.4); it is auxiliary:
	// never enforced itself, but consumed by the return-from-procedure
	// repair to restore the stack pointer.
	KindSPOffset
	// KindNonzero is v ≠ 0 — the divisor/stride family behind the
	// arithmetic-fault and runaway-loop repairs. Bound holds a witness:
	// the observed value of smallest magnitude, which the nonzero-guard
	// repair enforces when the invariant is violated.
	KindNonzero
	// KindModulus is v ≡ r (mod m) with m ≥ 2 — the classic Daikon
	// congruence family, here the alignment invariant behind the
	// unaligned-access repairs. Values holds [m, r].
	KindModulus
)

func (k Kind) String() string {
	switch k {
	case KindOneOf:
		return "one-of"
	case KindLowerBound:
		return "lower-bound"
	case KindLessThan:
		return "less-than"
	case KindSPOffset:
		return "sp-offset"
	case KindNonzero:
		return "nonzero"
	case KindModulus:
		return "modulus"
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// Invariant is one learned property. All fields are exported for gob
// serialization (community invariant upload, §3.1).
type Invariant struct {
	Kind Kind
	Var  VarID
	Var2 VarID // KindLessThan only: Var ≤ Var2
	// Values is the one-of value set (sorted ascending) for KindOneOf and
	// the [modulus, residue] pair for KindModulus.
	Values []uint32
	// Bound is the lower bound for KindLowerBound, the stack-pointer
	// offset for KindSPOffset, and the enforcement witness (the observed
	// value of smallest magnitude) for KindNonzero.
	Bound   int32
	Samples uint64 // observations supporting the invariant
}

// Modulus returns the (m, r) pair of a KindModulus invariant.
func (inv *Invariant) Modulus() (m, r uint32) {
	if inv.Kind != KindModulus || len(inv.Values) != 2 {
		return 0, 0
	}
	return inv.Values[0], inv.Values[1]
}

// ID returns a stable identifier used for patch naming and community
// bookkeeping.
func (inv *Invariant) ID() string {
	switch inv.Kind {
	case KindLessThan:
		return fmt.Sprintf("lt@%s<=%s", inv.Var, inv.Var2)
	case KindSPOffset:
		return fmt.Sprintf("sp@%#x", inv.Var.PC)
	case KindLowerBound:
		return fmt.Sprintf("lb@%s", inv.Var)
	case KindNonzero:
		return fmt.Sprintf("nz@%s", inv.Var)
	case KindModulus:
		return fmt.Sprintf("mod@%s", inv.Var)
	default:
		return fmt.Sprintf("oneof@%s", inv.Var)
	}
}

// PC returns the instruction where the invariant is checked and enforced:
// for two-variable invariants this is the later of the two instructions
// (§2.4.2, §2.5).
func (inv *Invariant) PC() uint32 {
	if inv.Kind == KindLessThan && inv.Var2.PC > inv.Var.PC {
		return inv.Var2.PC
	}
	return inv.Var.PC
}

// Holds evaluates the invariant against observed values: v1 is the value of
// Var; v2 is the value of Var2 (ignored except for less-than).
func (inv *Invariant) Holds(v1, v2 uint32) bool {
	switch inv.Kind {
	case KindOneOf:
		i := sort.Search(len(inv.Values), func(i int) bool { return inv.Values[i] >= v1 })
		return i < len(inv.Values) && inv.Values[i] == v1
	case KindLowerBound:
		return int32(v1) >= inv.Bound
	case KindLessThan:
		return int32(v1) <= int32(v2)
	case KindSPOffset:
		return true // auxiliary, never violated by definition
	case KindNonzero:
		return v1 != 0
	case KindModulus:
		m, r := inv.Modulus()
		if m < 2 {
			return true
		}
		// Wraparound-safe congruence: plain (v1-r)%m is wrong for v1 < r
		// unless m divides 2^32.
		return (v1%m+m-r%m)%m == 0
	}
	return false
}

// NumVars returns how many runtime values the invariant relates.
func (inv *Invariant) NumVars() int {
	if inv.Kind == KindLessThan {
		return 2
	}
	return 1
}

func (inv *Invariant) String() string {
	switch inv.Kind {
	case KindOneOf:
		return fmt.Sprintf("%s ∈ %v", inv.Var, inv.Values)
	case KindLowerBound:
		return fmt.Sprintf("%d ≤ %s", inv.Bound, inv.Var)
	case KindLessThan:
		return fmt.Sprintf("%s ≤ %s", inv.Var, inv.Var2)
	case KindSPOffset:
		return fmt.Sprintf("spEntry = sp@%#x + %d", inv.Var.PC, inv.Bound)
	case KindNonzero:
		return fmt.Sprintf("%s ≠ 0", inv.Var)
	case KindModulus:
		m, r := inv.Modulus()
		return fmt.Sprintf("%s ≡ %d (mod %d)", inv.Var, r, m)
	}
	return "invariant?"
}
