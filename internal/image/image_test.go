package image

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	im := &Image{Base: 0x1000, Entry: 0x1008, Code: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}}
	got, err := Unmarshal(im.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Base != im.Base || got.Entry != im.Entry || !bytes.Equal(got.Code, im.Code) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestMarshalUnmarshalQuick(t *testing.T) {
	f := func(code []byte, entryOff uint16) bool {
		if len(code) == 0 {
			code = []byte{0}
		}
		im := &Image{Base: 0x10000, Code: code}
		im.Entry = im.Base + uint32(int(entryOff)%len(code))
		got, err := Unmarshal(im.Marshal())
		return err == nil && got.Base == im.Base && got.Entry == im.Entry && bytes.Equal(got.Code, im.Code)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	if err := (&Image{Base: 0, Code: nil, Entry: 0}).Validate(); err == nil {
		t.Error("empty image validated")
	}
	if err := (&Image{Base: 0x1000, Code: make([]byte, 8), Entry: 0x2000}).Validate(); err == nil {
		t.Error("out-of-range entry validated")
	}
	if err := (&Image{Base: 0x1000, Code: make([]byte, 8), Entry: 0x1000}).Validate(); err != nil {
		t.Errorf("valid image rejected: %v", err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Error("truncated header accepted")
	}
	im := &Image{Base: 0x1000, Entry: 0x1000, Code: make([]byte, 32)}
	b := im.Marshal()
	b[0] = 0xFF // corrupt magic
	if _, err := Unmarshal(b); err == nil {
		t.Error("bad magic accepted")
	}
	b = im.Marshal()
	if _, err := Unmarshal(b[:20]); err == nil {
		t.Error("truncated code accepted")
	}
}

func TestContains(t *testing.T) {
	im := &Image{Base: 0x1000, Entry: 0x1000, Code: make([]byte, 16)}
	if !im.Contains(0x1000) || !im.Contains(0x100F) {
		t.Error("interior addresses not contained")
	}
	if im.Contains(0x1010) || im.Contains(0xFFF) {
		t.Error("exterior addresses contained")
	}
	if im.End() != 0x1010 {
		t.Errorf("End = %#x", im.End())
	}
}

// TestDecodedLayout: frames hold the code at its offset within its first
// page; the slot table covers every whole slot, marks undecodable ones,
// counts block ends, and is absent when the base is not slot-aligned.
func TestDecodedLayout(t *testing.T) {
	halt := isa.Inst{Op: isa.HALT, X: isa.NoReg}.Encode()
	nop := isa.Inst{Op: isa.NOP, X: isa.NoReg}.Encode()
	code := append(append(append(nop[:], halt[:]...), 0xFF, 0, 0, 0, 0, 0, 0, 0), 1, 2, 3) // nop, halt, junk, partial slot
	im := &Image{Base: 0x1ff8, Entry: 0x1ff8, Code: code}
	d := im.Decoded()
	if d != im.Decoded() {
		t.Fatal("Decoded built twice")
	}
	if d.FrameBase != 0x1000 || len(d.Frames) != 2 {
		t.Fatalf("frames at %#x ×%d, want 0x1000 ×2", d.FrameBase, len(d.Frames))
	}
	if !bytes.Equal(d.Frames[0][0xff8:], code[:8]) || !bytes.Equal(d.Frames[1][:len(code)-8], code[8:]) {
		t.Fatal("frames do not hold the code at its load address")
	}
	if len(d.Insts) != 3 || d.Blocks != 1 || d.Insts[0].Op != isa.NOP || d.Insts[2].Op.Valid() {
		t.Fatalf("table %+v (blocks %d), want nop, halt, invalid and 1 block end", d.Insts, d.Blocks)
	}
	if i, ok := d.Slot(0x2000); !ok || i != 1 || d.Addrs[i] != 0x2000 {
		t.Fatalf("Slot(0x2000) = %d, %v", i, ok)
	}
	for _, addr := range []uint32{0x1ff0, 0x1ffc, 0x2010} {
		if _, ok := d.Slot(addr); ok {
			t.Errorf("Slot(%#x) found a slot", addr)
		}
	}
	if d.Frame(0x2fff) != d.Frames[1] || d.Frame(0x3000) != nil || d.Frame(0xfff) != nil {
		t.Fatal("Frame maps addresses to the wrong frames")
	}

	odd := &Image{Base: 0x1004, Entry: 0x1004, Code: code}
	if od := odd.Decoded(); od.Insts != nil || len(od.Frames) != 1 {
		t.Fatalf("misaligned base: %d slots, %d frames; want no table, 1 frame", len(od.Insts), len(od.Frames))
	}
}

func TestMatches(t *testing.T) {
	im := &Image{Base: 0x1000, Entry: 0x1008, Code: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}}
	b := im.Marshal()
	if !im.Matches(b) {
		t.Fatal("an image does not match its own Marshal form")
	}
	for i := range b {
		c := append([]byte(nil), b...)
		c[i] ^= 1
		if im.Matches(c) {
			t.Fatalf("matches with byte %d flipped", i)
		}
	}
	if im.Matches(b[:len(b)-1]) || im.Matches(append(b, 0)) {
		t.Fatal("matches a truncated or extended form")
	}
}
