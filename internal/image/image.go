// Package image provides program-image layout primitives shared by the
// vanilla, OPEC and ACES builds: MPU-aligned section placement with
// fragment accounting, the baseline (vanilla) image layout, and machine
// instantiation (writing initial global values into simulated memory
// and wiring the interpreter's symbol resolution).
package image

import (
	"fmt"
	"sort"

	"opec/internal/ir"
	"opec/internal/mach"
)

// Section is a placed memory section, optionally MPU-region-aligned.
type Section struct {
	Name       string
	Addr       uint32
	Size       uint32
	RegionLog2 uint8 // MPU region covering the section; 0 = unaligned placement
}

// RegionBytes returns the size of the MPU region covering the section.
func (s Section) RegionBytes() uint32 {
	if s.RegionLog2 == 0 {
		return s.Size
	}
	return 1 << s.RegionLog2
}

// Frag returns the internal fragmentation the MPU size/alignment rules
// force on the section (Section 6.3: "the operation data sections and
// their fragments required by the MPU region account for the most SRAM
// overhead").
func (s Section) Frag() uint32 { return s.RegionBytes() - s.Size }

// End returns the first address past the section's MPU footprint.
func (s Section) End() uint32 { return s.Addr + s.RegionBytes() }

// PlaceMPUSections places the named sections starting at base, each
// aligned to its own MPU region. Following Section 4.4, it sorts the
// sections by size in descending order before placement to reduce
// external fragments, then computes start addresses accordingly.
// It returns the placed sections in the *original* argument order and
// the first free address after the last section.
func PlaceMPUSections(base uint32, names []string, sizes []int) ([]Section, uint32) {
	if len(names) != len(sizes) {
		panic("image: names/sizes length mismatch")
	}
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })

	out := make([]Section, len(names))
	next := base
	for _, i := range order {
		sz := sizes[i]
		if sz < 1 {
			sz = 1
		}
		rl := mach.RegionSizeFor(sz)
		addr := mach.AlignUp(next, rl)
		out[i] = Section{Name: names[i], Addr: addr, Size: uint32(sizes[i]), RegionLog2: rl}
		next = addr + (1 << rl)
	}
	return out, next
}

// Vanilla is the baseline image: all code at the bottom of Flash,
// read-only data after it, all globals packed in SRAM, a heap region
// and a full-descending stack at the top of SRAM. No MPU, everything
// privileged — exactly the paper's baseline binaries.
type Vanilla struct {
	Mod   *ir.Module
	Board *mach.Board

	GlobalAddr map[*ir.Global]uint32

	CodeBytes   int // application code
	RODataBytes int
	DataBytes   int // writable globals (.data + .bss)

	FlashUsed int
	SRAMUsed  int

	HeapBase uint32
	HeapSize uint32

	StackTop   uint32
	StackLimit uint32
}

// StackBytes is the application stack reservation. It is a power of two
// so the OPEC build can cover the same stack with one MPU region split
// into eight sub-regions.
const StackBytes = 16 << 10

// HeapBytes is the dynamic-allocation arena reservation.
const HeapBytes = 8 << 10

// BuildVanilla lays out the baseline image for m on board.
func BuildVanilla(m *ir.Module, board *mach.Board) (*Vanilla, error) {
	v := &Vanilla{
		Mod:        m,
		Board:      board,
		GlobalAddr: make(map[*ir.Global]uint32, len(m.Globals)),
	}
	v.CodeBytes = m.CodeBytes()

	// Read-only globals live in Flash after the code; writable globals
	// pack at the bottom of SRAM; heap pools go into the heap arena
	// (the same placement rule all three builds share, so footprint
	// comparisons are like for like).
	roAddr := mach.FlashBase + uint32(v.CodeBytes)
	ramAddr := mach.SRAMBase
	for _, g := range m.Globals {
		sz := uint32((g.Size() + 3) &^ 3)
		switch {
		case g.Const:
			v.GlobalAddr[g] = roAddr
			roAddr += sz
			v.RODataBytes += int(sz)
		case g.HeapPool:
			// placed below, once the heap base is known
		default:
			v.GlobalAddr[g] = ramAddr
			ramAddr += sz
			v.DataBytes += int(sz)
		}
	}

	v.HeapBase = mach.AlignUp(ramAddr, 5)
	v.HeapSize = HeapBytes
	heapAddr := v.HeapBase
	for _, g := range m.Globals {
		if g.HeapPool {
			v.GlobalAddr[g] = heapAddr
			heapAddr += uint32((g.Size() + 3) &^ 3)
		}
	}

	v.StackTop = mach.SRAMBase + uint32(board.SRAMSize)
	v.StackLimit = v.StackTop - StackBytes

	v.FlashUsed = v.CodeBytes + v.RODataBytes
	v.SRAMUsed = v.DataBytes + int(v.HeapSize) + StackBytes

	if v.FlashUsed > board.FlashSize {
		return nil, fmt.Errorf("image: %s does not fit Flash: %d > %d", m.Name, v.FlashUsed, board.FlashSize)
	}
	if v.HeapBase+v.HeapSize > v.StackLimit {
		return nil, fmt.Errorf("image: %s does not fit SRAM", m.Name)
	}
	return v, nil
}

// NewBus creates a bus sized for the board.
func (v *Vanilla) NewBus() *mach.Bus {
	return mach.NewBus(v.Board.FlashSize, v.Board.SRAMSize, &mach.Clock{})
}

// Instantiate writes initial global values into bus memory and returns
// a machine configured for the vanilla execution model: privileged,
// MPU off, direct symbol resolution.
func (v *Vanilla) Instantiate(bus *mach.Bus) *mach.Machine {
	WriteGlobals(bus, v.Mod, v.GlobalAddr)
	m := mach.NewMachine(v.Mod, bus, mach.FlashBase)
	m.GlobalAddr = FixedGlobals(v.Mod, v.GlobalAddr)
	m.StackTop = v.StackTop
	m.StackLimit = v.StackLimit
	m.Privileged = true
	return m
}

// FixedGlobals returns a Machine.GlobalAddr resolver for a layout that
// gives every global one fixed address: a global of mod resolves by its
// ir.Global.Index through a table built here, any other through addrs,
// exactly as a lookup there would (an unplaced global at 0).
func FixedGlobals(mod *ir.Module, addrs map[*ir.Global]uint32) func(*ir.Global, bool) (uint32, *mach.Fault) {
	type entry struct {
		g    *ir.Global
		addr uint32
	}
	tbl := make([]entry, len(mod.Globals))
	for i, g := range mod.Globals {
		tbl[i] = entry{g, addrs[g]}
	}
	return func(g *ir.Global, _ bool) (uint32, *mach.Fault) {
		if i := g.Index(); uint(i) < uint(len(tbl)) && tbl[i].g == g {
			return tbl[i].addr, nil
		}
		return addrs[g], nil
	}
}

// WriteGlobals initializes global storage in simulated memory.
func WriteGlobals(bus *mach.Bus, m *ir.Module, addrs map[*ir.Global]uint32) {
	for _, g := range m.Globals {
		base, ok := addrs[g]
		if !ok {
			continue
		}
		for i := 0; i < g.Size(); i++ {
			var b uint32
			if i < len(g.Init) {
				b = uint32(g.Init[i])
			}
			bus.RawStore(base+uint32(i), 1, b)
		}
	}
}
