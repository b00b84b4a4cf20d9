package vm

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Hook priorities. At one instruction, hooks run in ascending priority
// order. Repairs run first so that enforcement happens before monitors
// validate (an enforced one-of invariant redirects an indirect call before
// Memory Firewall inspects the target, as in the paper where the patch
// replaces the call itself). Invariant checks run next, observing the
// possibly-enforced state at the patch point. Monitors run before tracing
// so a failing instruction does not contaminate the learning data.
const (
	PrioRepair  = 0
	PrioCheck   = 10
	PrioMonitor = 20
	PrioTrace   = 30
)

// Hook is instrumentation attached in front of one instruction. Returning
// a *Failure terminates the run as a monitor-detected failure; any other
// non-nil error terminates it as a crash.
type Hook func(ctx *Ctx) error

// hookEntry keeps hooks ordered by (priority, insertion sequence).
type hookEntry struct {
	prio int
	seq  int
	h    Hook
}

// blockLink is one cached successor: the resolved *Block for a successor
// start address, valid only while gen matches the VM's cache generation.
// Generation matching makes patch-time invalidation O(1): ejecting any
// block bumps the generation and every link in the machine goes stale at
// once, including links held by the block currently executing.
type blockLink struct {
	pc  uint32
	gen uint64
	b   *Block
}

// Block is one basic block in the code cache.
type Block struct {
	Start uint32
	Insts []isa.Inst
	Addrs []uint32 // Addrs[i] is the address of Insts[i]

	hooks  [][]hookEntry
	nextSq int

	// links is a 2-entry successor cache so straight-line and
	// direct-branch dispatch (fallthrough + taken target, or call +
	// return site) skips the code-cache map. Dynamic targets (RET,
	// indirect calls) share the same two slots under round-robin
	// replacement.
	links    [2]blockLink
	linkRR   uint8
	hasHooks bool

	// Trace tier (trace.go). heat counts dispatch entries; when it crosses
	// the VM's trace threshold the executed chain through this head is
	// recorded and installed as sb. A superblock is valid only for the
	// cache generation it was built under (same rule as links), so patch
	// application invalidates every trace in O(1).
	heat uint32
	sb   *superblock
	// noFuse marks blocks the fused sweep must not run: COPYB's step cost
	// is input-dependent (one step per copied byte, so the per-step budget
	// check cannot be hoisted), and an out-of-range register operand on a
	// hot opcode must keep the interpreter's exact failure behavior. Such
	// blocks always run under the per-step loops.
	noFuse bool
}

// AddHook attaches a hook in front of instruction index i. The entry list
// stays ordered by (priority, insertion sequence); because sequence numbers
// are monotonically increasing, the new entry's position is simply after
// the last entry with priority <= prio — a single backward scan and shift
// instead of re-sorting the whole list on every insert.
func (b *Block) AddHook(i, prio int, h Hook) {
	b.hasHooks = true
	if b.hooks == nil {
		b.hooks = make([][]hookEntry, len(b.Insts))
	}
	b.nextSq++
	list := append(b.hooks[i], hookEntry{})
	pos := len(list) - 1
	for pos > 0 && list[pos-1].prio > prio {
		list[pos] = list[pos-1]
		pos--
	}
	list[pos] = hookEntry{prio: prio, seq: b.nextSq, h: h}
	b.hooks[i] = list
}

// contains reports whether the block covers the instruction address.
func (b *Block) contains(addr uint32) bool {
	if len(b.Addrs) == 0 {
		return false
	}
	last := b.Addrs[len(b.Addrs)-1]
	return addr >= b.Start && addr <= last && (addr-b.Start)%isa.InstSize == 0
}

// Patch is a unit of runtime modification: a hook bound to one instruction
// address. ClearView expresses invariant checks and repairs as patches.
type Patch struct {
	ID   string
	Addr uint32
	Prio int
	Hook Hook
}

type patchSet struct {
	byAddr map[uint32][]*Patch
	byID   map[string]*Patch
}

func newPatchSet() *patchSet {
	return &patchSet{byAddr: make(map[uint32][]*Patch), byID: make(map[string]*Patch)}
}

// ApplyPatch installs a patch, ejecting any cached blocks that contain the
// patched address so the next execution of that code picks it up. This is
// the running-application patching capability of §2.1.
func (v *VM) ApplyPatch(p *Patch) error {
	if p.ID == "" {
		return fmt.Errorf("vm: patch with empty ID at %#x", p.Addr)
	}
	if _, dup := v.patches.byID[p.ID]; dup {
		return fmt.Errorf("vm: duplicate patch ID %q", p.ID)
	}
	v.patches.byID[p.ID] = p
	v.patches.byAddr[p.Addr] = append(v.patches.byAddr[p.Addr], p)
	v.flushBlocksContaining(p.Addr)
	return nil
}

// RemovePatch uninstalls a patch by ID, ejecting affected cached blocks.
// Removing an unknown ID is a no-op so that community-wide removal
// directives are idempotent.
func (v *VM) RemovePatch(id string) {
	p, ok := v.patches.byID[id]
	if !ok {
		return
	}
	delete(v.patches.byID, id)
	list := v.patches.byAddr[p.Addr]
	for i, q := range list {
		if q.ID == id {
			v.patches.byAddr[p.Addr] = append(list[:i], list[i+1:]...)
			break
		}
	}
	v.flushBlocksContaining(p.Addr)
}

// PatchIDs returns the IDs of all installed patches, sorted.
func (v *VM) PatchIDs() []string {
	ids := make([]string, 0, len(v.patches.byID))
	for id := range v.patches.byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (v *VM) flushBlocksContaining(addr uint32) {
	// The address index maps every instruction address covered by a cached
	// block to the blocks containing it, so a patch flush touches exactly
	// the affected blocks instead of walking the whole code cache (blocks
	// may overlap: a jump into the middle of a block decodes a second
	// block sharing the tail). The index is built lazily on the first
	// flush — until a patch actually lands, decode stays index-free.
	if v.addrIndex == nil {
		v.addrIndex = make(map[uint32][]*Block, len(v.cache))
		for _, b := range v.cache {
			for _, a := range b.Addrs {
				v.addrIndex[a] = append(v.addrIndex[a], b)
			}
		}
	}
	victims := v.addrIndex[addr]
	if len(victims) == 0 {
		return
	}
	for _, b := range victims {
		if v.cache[b.Start] != b {
			continue // already ejected via another address
		}
		delete(v.cache, b.Start)
		for _, a := range b.Addrs {
			list := v.addrIndex[a]
			for i, q := range list {
				if q == b {
					list[i] = list[len(list)-1]
					v.addrIndex[a] = list[:len(list)-1]
					break
				}
			}
			if len(v.addrIndex[a]) == 0 {
				delete(v.addrIndex, a)
			}
		}
	}
	// Invalidate every successor link and superblock in one step: both
	// carry the generation they were created under, so bumping it orphans
	// links into (and out of) the ejected blocks — and every recorded
	// trace — without walking the cache.
	v.cacheGen++
}

// dispatch returns the block starting at pc. This is the code cache's
// dispatch point: edge coverage is recorded on every entry — linked or
// not, hit or miss — so coverage fingerprints are independent of the
// linking optimization. When prev has a valid successor link for pc the
// code-cache map is skipped entirely; otherwise the resolved block is
// linked into prev for next time.
func (v *VM) dispatch(prev *Block, pc uint32) (*Block, error) {
	if v.cov != nil {
		v.cov.hit(v.lastBlock, pc)
		v.lastBlock = pc
	}
	if prev != nil {
		if l := &prev.links[0]; l.b != nil && l.pc == pc && l.gen == v.cacheGen {
			return l.b, nil
		}
		if l := &prev.links[1]; l.b != nil && l.pc == pc && l.gen == v.cacheGen {
			return l.b, nil
		}
	}
	b, err := v.fetchBlock(pc)
	if err != nil {
		return nil, err
	}
	if prev != nil {
		// After a cache-generation bump, a slot may already hold this pc
		// with a stale gen. Refresh that slot in place rather than
		// claiming the round-robin slot: otherwise both slots end up
		// duplicating one successor and the live second target is evicted
		// (link thrash on every two-successor block after a patch).
		switch {
		case prev.links[0].b != nil && prev.links[0].pc == pc:
			prev.links[0] = blockLink{pc: pc, gen: v.cacheGen, b: b}
		case prev.links[1].b != nil && prev.links[1].pc == pc:
			prev.links[1] = blockLink{pc: pc, gen: v.cacheGen, b: b}
		default:
			prev.links[prev.linkRR&1] = blockLink{pc: pc, gen: v.cacheGen, b: b}
			prev.linkRR++
		}
	}
	return b, nil
}

// fetchBlock returns the cached block starting at pc, decoding and
// instrumenting it on a miss.
func (v *VM) fetchBlock(pc uint32) (*Block, error) {
	if b, ok := v.cache[pc]; ok {
		return b, nil
	}
	b, err := v.decodeBlock(pc)
	if err != nil {
		return nil, err
	}
	for _, pl := range v.plugins {
		pl.Instrument(v, b)
	}
	// Patch hooks are attached after plugin instrumentation so their
	// relative order is governed purely by priority.
	for i, addr := range b.Addrs {
		for _, p := range v.patches.byAddr[addr] {
			b.AddHook(i, p.Prio, p.Hook)
		}
	}
	v.cache[pc] = b
	if v.addrIndex != nil {
		for _, addr := range b.Addrs {
			v.addrIndex[addr] = append(v.addrIndex[addr], b)
		}
	}
	v.blocks++
	return b, nil
}

// decodeBlock reads instructions from pc until a block terminator. Each
// page the block spans chooses where its instructions come from: the
// image's shared decode table while the page is still the image's own
// frame, or a decode of the bytes in memory once the guest has written
// it. A block read wholly from the table is a capped sub-slice of it, so
// its instructions cost nothing per machine.
func (v *VM) decodeBlock(pc uint32) (*Block, error) {
	dec := v.Image.Decoded()
	first, slotted := dec.Slot(pc)
	aliased := slotted // every instruction so far came from table slot first+n
	fromTable := false
	b := &Block{Start: pc}
	n := 0
	for addr := pc; ; addr += isa.InstSize {
		if !v.InCode(addr) {
			return nil, fmt.Errorf("instruction fetch outside code region at %#x", addr)
		}
		if addr == pc || addr%mem.PageSize == 0 {
			fromTable = slotted && v.Mem.BackedBy(addr, dec.Frame(addr))
		}
		var in isa.Inst
		if fromTable && first+n < len(dec.Insts) && dec.Insts[first+n].Op.Valid() {
			in = dec.Insts[first+n]
		} else {
			if aliased {
				b.Insts = append([]isa.Inst(nil), dec.Insts[first:first+n]...)
				b.Addrs = append([]uint32(nil), dec.Addrs[first:first+n]...)
				aliased = false
			}
			raw, err := v.Mem.ReadBytes(addr, isa.InstSize)
			if err != nil {
				return nil, fmt.Errorf("instruction fetch fault at %#x", addr)
			}
			if in, err = isa.Decode(raw); err != nil {
				return nil, fmt.Errorf("undecodable instruction at %#x: %v", addr, err)
			}
		}
		n++
		if !aliased {
			b.Insts = append(b.Insts, in)
			b.Addrs = append(b.Addrs, addr)
		}
		if in.Op == isa.COPYB || !fuseSafe(&in) {
			b.noFuse = true
		}
		if in.Op.EndsBlock() {
			if aliased {
				b.Insts = dec.Insts[first : first+n : first+n]
				b.Addrs = dec.Addrs[first : first+n : first+n]
			}
			return b, nil
		}
	}
}

// CacheSize returns the number of blocks currently cached (for tests and
// the overhead benchmarks).
func (v *VM) CacheSize() int { return len(v.cache) }
