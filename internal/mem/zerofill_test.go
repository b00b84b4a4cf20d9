package mem

import (
	"bytes"
	"testing"
)

// TestZeroFillReadsZeroAndCopiesOnFirstWrite: a mapped, never-written
// page reads as zero from the shared zero frame; its first write gives
// the page a private frame, leaves the shared frame and every other
// memory's view untouched, and is not a COW break.
func TestZeroFillReadsZeroAndCopiesOnFirstWrite(t *testing.T) {
	a, b := New(), New()
	a.Map(0x4000, 2*PageSize)
	b.Map(0x4000, PageSize)
	if a.PageCount() != 2 || b.PageCount() != 1 {
		t.Fatalf("page counts %d/%d, want 2/1", a.PageCount(), b.PageCount())
	}
	for _, addr := range []uint32{0x4000, 0x4ffc, 0x5000, 0x5ffc} {
		if v, err := a.Read32(addr); err != nil || v != 0 {
			t.Fatalf("unwritten %#x reads %#x, %v; want 0", addr, v, err)
		}
	}
	if !a.BackedBy(0x4000, &zeroFrame) || !a.BackedBy(0x5000, &zeroFrame) {
		t.Fatal("unwritten pages are not backed by the shared zero frame")
	}
	if err := a.Write32(0x4010, 0xDEAD_BEEF); err != nil {
		t.Fatal(err)
	}
	if a.BackedBy(0x4000, &zeroFrame) {
		t.Fatal("written page still backed by the zero frame")
	}
	if !a.BackedBy(0x5000, &zeroFrame) {
		t.Fatal("writing one page materialized its neighbour")
	}
	if v, _ := a.Read32(0x4010); v != 0xDEAD_BEEF {
		t.Fatalf("write lost: %#x", v)
	}
	if v, _ := b.Read32(0x4010); v != 0 {
		t.Fatalf("another memory sees %#x through the shared zero frame", v)
	}
	if zeroFrame != (Frame{}) {
		t.Fatal("the shared zero frame was written")
	}
	if a.CowBreaks() != 0 {
		t.Fatalf("zero-fill counted as %d COW breaks, want 0", a.CowBreaks())
	}
	// The other write paths materialize the same way.
	if err := b.WriteBytes(0x4ffe, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	run, err := b.WriteRun(0x4100, 4)
	if err != nil {
		t.Fatal(err)
	}
	run[0] = 9
	if got, _ := b.ReadBytes(0x4ffe, 2); !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("WriteBytes lost: %v", got)
	}
	if v, _ := b.Read8(0x4100); v != 9 {
		t.Fatalf("WriteRun lost: %d", v)
	}
	if zeroFrame != (Frame{}) || b.CowBreaks() != 0 {
		t.Fatal("WriteBytes/WriteRun wrote the zero frame or counted a COW break")
	}
}

// TestZeroFillAcrossClone: a page still on the zero frame is shared like
// any other page by Clone, so writing it after a clone is a COW break on
// that side only — the same count as when Map allocated the page.
func TestZeroFillAcrossClone(t *testing.T) {
	m := New()
	m.Map(0x8000, 2*PageSize)
	c := m.Clone()
	if err := c.Write8(0x8000, 7); err != nil {
		t.Fatal(err)
	}
	if c.CowBreaks() != 1 || m.CowBreaks() != 0 {
		t.Fatalf("cow breaks clone=%d original=%d, want 1/0", c.CowBreaks(), m.CowBreaks())
	}
	if v, _ := m.Read8(0x8000); v != 0 {
		t.Fatalf("original sees the clone's write: %d", v)
	}
	if err := m.Write8(0x9000, 5); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Read8(0x9000); v != 0 {
		t.Fatalf("clone sees the original's write: %d", v)
	}
	if zeroFrame != (Frame{}) {
		t.Fatal("the shared zero frame was written")
	}
}

// TestZeroFillMarshalRoundTrip: unwritten pages travel as zero pages and
// come back on the zero frame; written pages come back private.
func TestZeroFillMarshalRoundTrip(t *testing.T) {
	m := New()
	m.Map(0x1000, 3*PageSize)
	if err := m.Write32(0x2004, 0x1234_5678); err != nil {
		t.Fatal(err)
	}
	raw, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var u Memory
	if err := u.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if u.PageCount() != 3 {
		t.Fatalf("page count %d, want 3", u.PageCount())
	}
	if !u.BackedBy(0x1000, &zeroFrame) || !u.BackedBy(0x3000, &zeroFrame) || u.BackedBy(0x2000, &zeroFrame) {
		t.Fatal("unmarshaled zero pages must borrow the zero frame, written ones must not")
	}
	if v, _ := u.Read32(0x2004); v != 0x1234_5678 {
		t.Fatalf("written word = %#x", v)
	}
	again, _ := u.MarshalBinary()
	if !bytes.Equal(raw, again) {
		t.Fatal("marshal → unmarshal → marshal changed the encoding")
	}
	if err := u.Write8(0x3000, 1); err != nil {
		t.Fatal(err)
	}
	if u.CowBreaks() != 0 || zeroFrame != (Frame{}) {
		t.Fatal("writing an unmarshaled zero page counted a COW break or wrote the zero frame")
	}
}

// TestMapFrameCopyOnWrite: a page mapped onto a caller's frame reads the
// frame, is backed by it until written, and copies it on the first write
// without changing it; clones keep sharing it.
func TestMapFrameCopyOnWrite(t *testing.T) {
	f := new(Frame)
	for i := range f {
		f[i] = byte(i)
	}
	orig := *f
	m := New()
	m.MapFrame(0x7000, f)
	if m.PageCount() != 1 || !m.Mapped(0x7fff) || m.Mapped(0x8000) {
		t.Fatal("MapFrame must map exactly one page")
	}
	if v, _ := m.Read32(0x7004); v != 0x07060504 {
		t.Fatalf("frame contents not visible: %#x", v)
	}
	c := m.Clone()
	if !m.BackedBy(0x7000, f) || !c.BackedBy(0x7123, f) {
		t.Fatal("unwritten page must stay backed by its frame, in clones too")
	}
	if err := m.Write8(0x7000, 0xFF); err != nil {
		t.Fatal(err)
	}
	if m.BackedBy(0x7000, f) || !c.BackedBy(0x7000, f) {
		t.Fatal("a write must move only the writer off the frame")
	}
	if *f != orig {
		t.Fatal("the frame was written")
	}
	if v, _ := m.Read8(0x7001); v != 1 {
		t.Fatalf("private copy lost the frame's bytes: %d", v)
	}
	if m.BackedBy(0x7000, nil) || New().BackedBy(0x7000, nil) {
		t.Fatal("no page is backed by a nil frame")
	}
}
