// Package image defines the stripped binary image format that ClearView
// protects: raw code bytes, a load base, and an entry point. There are no
// symbols, relocation tables, procedure boundaries, or debug records — by
// design, matching the paper's "stripped Windows x86 binaries" constraint.
package image

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Image is a loadable stripped binary. Its fields must not change once a
// machine has loaded it: the image caches its decoded form (Decoded).
type Image struct {
	Base  uint32 // load address of Code[0]
	Entry uint32 // initial program counter
	Code  []byte

	decodeOnce sync.Once
	decoded    *Decoded
}

// Decoded is an image prepared for loading, built once per image and
// shared read-only by every machine that loads it: the code laid out in
// page frames, which machines map copy-on-write, and every instruction
// slot decoded, which machines' code caches alias instead of decoding.
type Decoded struct {
	// Frames hold the code as loaded: Frames[i] backs the page at
	// FrameBase + i*mem.PageSize, zero outside [Base, End()).
	Frames    []*mem.Frame
	FrameBase uint32
	// Insts[i] is the instruction at Addrs[i] = Base + i*isa.InstSize,
	// for every whole slot of the code; a slot that does not decode holds
	// an invalid opcode. Both are nil when Base is not slot-aligned, since
	// a slot could then straddle two frames.
	Insts []isa.Inst
	Addrs []uint32
	// Blocks counts the valid block-ending instructions: the number of
	// basic blocks a linear sweep of the code finds.
	Blocks int
}

// Decoded returns the image's decoded form, building it on first use.
// It is safe for concurrent use.
func (im *Image) Decoded() *Decoded {
	im.decodeOnce.Do(func() { im.decoded = decode(im) })
	return im.decoded
}

func decode(im *Image) *Decoded {
	d := &Decoded{FrameBase: im.Base &^ (mem.PageSize - 1)}
	off := im.Base - d.FrameBase
	for done := 0; done < len(im.Code); {
		f := new(mem.Frame)
		done += copy(f[off:], im.Code[done:])
		off = 0
		d.Frames = append(d.Frames, f)
	}
	if im.Base%isa.InstSize != 0 {
		return d
	}
	n := len(im.Code) / isa.InstSize
	d.Insts = make([]isa.Inst, n)
	d.Addrs = make([]uint32, n)
	for i := range d.Insts {
		in, err := isa.Decode(im.Code[i*isa.InstSize:])
		if err != nil {
			in = isa.Inst{Op: ^isa.Op(0)}
		} else if in.Op.EndsBlock() {
			d.Blocks++
		}
		d.Insts[i], d.Addrs[i] = in, im.Base+uint32(i)*isa.InstSize
	}
	return d
}

// Slot returns the index of the table slot at addr, if addr starts one.
func (d *Decoded) Slot(addr uint32) (int, bool) {
	if len(d.Addrs) == 0 || addr < d.Addrs[0] || (addr-d.Addrs[0])%isa.InstSize != 0 {
		return 0, false
	}
	i := int((addr - d.Addrs[0]) / isa.InstSize)
	return i, i < len(d.Addrs)
}

// Frame returns the frame backing the page holding addr, or nil outside
// the code's pages.
func (d *Decoded) Frame(addr uint32) *mem.Frame {
	i := (addr - d.FrameBase) / mem.PageSize
	if addr < d.FrameBase || i >= uint32(len(d.Frames)) {
		return nil
	}
	return d.Frames[i]
}

// End returns one past the last code address.
func (im *Image) End() uint32 { return im.Base + uint32(len(im.Code)) }

// Contains reports whether addr falls inside the code region.
func (im *Image) Contains(addr uint32) bool {
	return addr >= im.Base && addr < im.End()
}

// Validate checks structural sanity: a non-empty image whose entry point
// lies inside the code region.
func (im *Image) Validate() error {
	if len(im.Code) == 0 {
		return fmt.Errorf("image: empty code")
	}
	if !im.Contains(im.Entry) {
		return fmt.Errorf("image: entry %#x outside code [%#x,%#x)", im.Entry, im.Base, im.End())
	}
	return nil
}

const magic = 0x42565743 // "CWVB"

// Matches reports whether b is the image's Marshal form, without
// allocating.
func (im *Image) Matches(b []byte) bool {
	return len(b) == 16+len(im.Code) &&
		binary.LittleEndian.Uint32(b) == magic &&
		binary.LittleEndian.Uint32(b[4:]) == im.Base &&
		binary.LittleEndian.Uint32(b[8:]) == im.Entry &&
		binary.LittleEndian.Uint32(b[12:]) == uint32(len(im.Code)) &&
		bytes.Equal(b[16:], im.Code)
}

// Marshal serializes the image to a flat byte format:
// magic, base, entry, code length, code bytes (all little endian).
func (im *Image) Marshal() []byte {
	out := make([]byte, 16+len(im.Code))
	binary.LittleEndian.PutUint32(out[0:], magic)
	binary.LittleEndian.PutUint32(out[4:], im.Base)
	binary.LittleEndian.PutUint32(out[8:], im.Entry)
	binary.LittleEndian.PutUint32(out[12:], uint32(len(im.Code)))
	copy(out[16:], im.Code)
	return out
}

// Unmarshal parses a serialized image.
func Unmarshal(b []byte) (*Image, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("image: truncated header: %d bytes", len(b))
	}
	if binary.LittleEndian.Uint32(b) != magic {
		return nil, fmt.Errorf("image: bad magic %#x", binary.LittleEndian.Uint32(b))
	}
	n := binary.LittleEndian.Uint32(b[12:])
	if uint32(len(b)-16) < n {
		return nil, fmt.Errorf("image: truncated code: want %d have %d", n, len(b)-16)
	}
	im := &Image{
		Base:  binary.LittleEndian.Uint32(b[4:]),
		Entry: binary.LittleEndian.Uint32(b[8:]),
		Code:  append([]byte(nil), b[16:16+n]...),
	}
	if err := im.Validate(); err != nil {
		return nil, err
	}
	return im, nil
}
