package image

import (
	"testing"
	"testing/quick"

	"opec/internal/ir"
	"opec/internal/mach"
)

func TestPlaceMPUSectionsAlignmentAndOrder(t *testing.T) {
	names := []string{"small", "big", "mid"}
	sizes := []int{40, 2000, 300}
	secs, next := PlaceMPUSections(mach.SRAMBase+1, names, sizes)
	if len(secs) != 3 {
		t.Fatal("wrong section count")
	}
	// Results keep argument order.
	for i, n := range names {
		if secs[i].Name != n {
			t.Errorf("section %d name = %s", i, secs[i].Name)
		}
	}
	// Each section is aligned to its region and disjoint from others.
	for i, s := range secs {
		if s.Addr&(s.RegionBytes()-1) != 0 {
			t.Errorf("%s misaligned: %#x / %#x", s.Name, s.Addr, s.RegionBytes())
		}
		if s.Size != uint32(sizes[i]) {
			t.Errorf("%s size = %d", s.Name, s.Size)
		}
		for j := i + 1; j < len(secs); j++ {
			o := secs[j]
			if s.Addr < o.End() && o.Addr < s.End() {
				t.Errorf("%s and %s overlap", s.Name, o.Name)
			}
		}
		if s.End() > next {
			t.Errorf("%s extends past reported end", s.Name)
		}
	}
	// Descending placement: the biggest section gets the lowest address.
	if secs[1].Addr > secs[2].Addr || secs[2].Addr > secs[0].Addr {
		t.Errorf("descending-size placement violated: %#x %#x %#x",
			secs[1].Addr, secs[2].Addr, secs[0].Addr)
	}
}

func TestSectionFrag(t *testing.T) {
	s := Section{Size: 40, RegionLog2: 6}
	if s.RegionBytes() != 64 || s.Frag() != 24 {
		t.Errorf("frag accounting: region=%d frag=%d", s.RegionBytes(), s.Frag())
	}
	unaligned := Section{Size: 40}
	if unaligned.RegionBytes() != 40 || unaligned.Frag() != 0 {
		t.Error("unaligned section should have no frag")
	}
}

// Property: placement never overlaps and always aligns, for arbitrary
// size lists.
func TestPlaceMPUSectionsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 24 {
			raw = raw[:24]
		}
		names := make([]string, len(raw))
		sizes := make([]int, len(raw))
		for i, r := range raw {
			names[i] = string(rune('a' + i))
			sizes[i] = int(r%4096) + 1
		}
		secs, _ := PlaceMPUSections(mach.SRAMBase, names, sizes)
		for i, s := range secs {
			if s.Addr&(s.RegionBytes()-1) != 0 {
				return false
			}
			if int(s.RegionBytes()) < sizes[i] {
				return false
			}
			for j := i + 1; j < len(secs); j++ {
				o := secs[j]
				if s.Addr < o.End() && o.Addr < s.End() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func buildTestModule() *ir.Module {
	m := ir.NewModule("imgtest")
	m.AddGlobal(&ir.Global{Name: "data1", Typ: ir.I32, Init: []byte{1, 2, 3, 4}})
	m.AddGlobal(&ir.Global{Name: "bss1", Typ: ir.Array(ir.I8, 100)})
	m.AddGlobal(&ir.Global{Name: "ro1", Typ: ir.Array(ir.I8, 8), Init: []byte("constant"), Const: true})
	fb := ir.NewFunc(m, "main", "main.c", ir.I32)
	g := m.Global("data1")
	fb.Ret(fb.Load(ir.I32, g))
	return m
}

func TestBuildVanilla(t *testing.T) {
	m := buildTestModule()
	v, err := BuildVanilla(m, mach.STM32F4Discovery())
	if err != nil {
		t.Fatal(err)
	}
	// Writable globals in SRAM, const in Flash.
	if a := v.GlobalAddr[m.Global("data1")]; a < mach.SRAMBase {
		t.Errorf("data1 at %#x, not SRAM", a)
	}
	if a := v.GlobalAddr[m.Global("ro1")]; a < mach.FlashBase || a >= mach.SRAMBase {
		t.Errorf("ro1 at %#x, not Flash", a)
	}
	if v.DataBytes != 104 || v.RODataBytes != 8 {
		t.Errorf("data=%d ro=%d", v.DataBytes, v.RODataBytes)
	}
	if v.StackTop != mach.SRAMBase+uint32(mach.STM32F4Discovery().SRAMSize) {
		t.Error("stack not at SRAM top")
	}
	if v.StackTop-v.StackLimit != StackBytes {
		t.Error("stack reservation wrong")
	}
	if v.HeapBase < mach.SRAMBase || v.HeapBase+v.HeapSize > v.StackLimit {
		t.Error("heap placement wrong")
	}
}

func TestInstantiateInitializesMemory(t *testing.T) {
	m := buildTestModule()
	v, err := BuildVanilla(m, mach.STM32F4Discovery())
	if err != nil {
		t.Fatal(err)
	}
	bus := v.NewBus()
	mm := v.Instantiate(bus)
	got, err2 := mm.Run(m.MustFunc("main"))
	if err2 != nil {
		t.Fatal(err2)
	}
	if got != 0x04030201 {
		t.Errorf("initialized global read = %#x", got)
	}
	// Const global initialized in Flash.
	w, _ := bus.RawLoad(v.GlobalAddr[m.Global("ro1")], 4)
	if w != 0x736E6F63 { // "cons" little-endian
		t.Errorf("rodata = %#x", w)
	}
	// BSS zeroed.
	z, _ := bus.RawLoad(v.GlobalAddr[m.Global("bss1")], 4)
	if z != 0 {
		t.Errorf("bss = %#x", z)
	}
}

func TestBuildVanillaRejectsOversize(t *testing.T) {
	m := ir.NewModule("huge")
	// More data than the Discovery board's SRAM (192 KB).
	m.AddGlobal(&ir.Global{Name: "huge", Typ: ir.Array(ir.I8, 300<<10)})
	fb := ir.NewFunc(m, "main", "main.c", nil)
	fb.RetVoid()
	if _, err := BuildVanilla(m, mach.STM32F4Discovery()); err == nil {
		t.Error("oversized image accepted")
	}
}

// TestVanillaResolvesGlobalsByIndex: the vanilla machine resolves every
// global of its module to its layout address through the index table.
// A global the table does not hold at its index — one of another module
// at a registered global's index, or a module global re-registered
// elsewhere — resolves exactly as the map does.
func TestVanillaResolvesGlobalsByIndex(t *testing.T) {
	m := buildTestModule()
	v, err := BuildVanilla(m, mach.STM32F4Discovery())
	if err != nil {
		t.Fatal(err)
	}
	mm := v.Instantiate(v.NewBus())
	for _, g := range m.Globals {
		if a, f := mm.GlobalAddr(g, false); f != nil || a != v.GlobalAddr[g] {
			t.Errorf("%s resolves to %#x (fault %v), layout %#x", g.Name, a, f, v.GlobalAddr[g])
		}
	}
	stranger := ir.NewModule("other").AddGlobal(&ir.Global{Name: "stranger", Typ: ir.I32})
	if a, f := mm.GlobalAddr(stranger, false); f != nil || a != 0 {
		t.Errorf("a global of another module at index %d resolves to %#x (fault %v), map gives 0", stranger.Index(), a, f)
	}
	g := m.Globals[0]
	moved := ir.NewModule("moved")
	moved.AddGlobal(&ir.Global{Name: "pad", Typ: ir.I32})
	moved.AddGlobal(g)
	if a, f := mm.GlobalAddr(g, false); f != nil || a != v.GlobalAddr[g] {
		t.Errorf("%s moved to index %d resolves to %#x (fault %v), map %#x", g.Name, g.Index(), a, f, v.GlobalAddr[g])
	}
}
