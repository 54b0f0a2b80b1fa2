package monitor

import (
	"testing"

	"opec/internal/core"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/testprog"
)

// TestBootTablesMatchMaps: the boot-time tables answer exactly as the
// build's maps. Every function enters the operation b.EntryOps names
// (nil for a non-entry), and every global resolves as the map probes
// classify it. An unregistered function or a same-index function of
// another module resolves through the map, as does a global of
// another module at a registered global's index, or a build global
// whose index now points into another module.
func TestBootTablesMatchMaps(t *testing.T) {
	b, err := core.Compile(testprog.PinLockLike(), mach.STM32F4Discovery(), testprog.PinLockConfig())
	if err != nil {
		t.Fatal(err)
	}
	mon, err := Boot(b, mach.NewBus(b.Board.FlashSize, b.Board.SRAMSize, &mach.Clock{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range b.Mod.Functions {
		if got, want := mon.entryOp(f), b.EntryOps[f]; got != want {
			t.Errorf("%s enters %v, map %v", f.Name, got, want)
		}
	}
	other := ir.NewModule("other")
	foreign := ir.NewFunc(other, b.Ops[1].Entry.Name, "a.c", nil)
	foreign.RetVoid()
	for _, f := range []*ir.Function{{Name: "unregistered"}, foreign.F} {
		if got := mon.entryOp(f); got != nil {
			t.Errorf("%s (index %d) enters %s, map has none", f.Name, f.Index(), got.Name)
		}
	}

	resolve := func(g *ir.Global) (uint32, bool) {
		addr, f := mon.M.GlobalAddr(g, true)
		return addr, f == nil
	}
	kinds := map[uint8]int{}
	for _, g := range b.Mod.Globals {
		want := mon.resolution(g)
		kinds[want.kind]++
		if got := mon.globals[g.Index()]; got != want {
			t.Errorf("%s: table holds %+v, maps give %+v", g.Name, got, want)
		}
	}
	if kinds[resFixed] == 0 || kinds[resSlot] == 0 {
		t.Fatalf("PinLock resolves no global through one of the paths: %v", kinds)
	}
	stranger := other.AddGlobal(&ir.Global{Name: "stranger", Typ: ir.I32})
	if addr, ok := resolve(stranger); ok {
		t.Errorf("a global of another module at index %d resolves to %#x, want a bus fault", stranger.Index(), addr)
	}
	moved := ir.NewModule("moved")
	for _, g := range b.Mod.Globals {
		before, ok := resolve(g)
		if !ok {
			t.Fatalf("%s does not resolve", g.Name)
		}
		moved.AddGlobal(&ir.Global{Name: "pad_" + g.Name, Typ: ir.I32})
		moved.AddGlobal(g) // g's index now points into moved
		if after, ok := resolve(g); !ok || after != before {
			t.Errorf("%s moved to index %d resolves to %#x (ok %v), want %#x", g.Name, g.Index(), after, ok, before)
		}
	}
}
