package aces_test

import (
	"fmt"
	"testing"

	"opec/internal/aces"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/testprog"
)

func compile(t *testing.T, strat aces.Strategy) *aces.Build {
	t.Helper()
	b, err := aces.Compile(testprog.PinLockLike(), mach.STM32F4Discovery(), strat)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFilenameNoOptOnePerFile(t *testing.T) {
	b := compile(t, aces.FilenameNoOpt)
	files := map[string]bool{}
	for _, c := range b.Comps {
		files[c.Name] = true
		for _, f := range c.Funcs {
			if f.File != c.Name {
				t.Errorf("function %s (file %s) in compartment %s", f.Name, f.File, c.Name)
			}
		}
	}
	// PinLockLike has 5 source files.
	if len(b.Comps) != 5 {
		t.Errorf("ACES2 compartments = %d, want 5 (%v)", len(b.Comps), files)
	}
	for _, f := range b.Mod.Functions {
		if b.CompOf[f] == nil {
			t.Errorf("function %s unassigned", f.Name)
		}
	}
}

func TestFilenameOptMergesSmall(t *testing.T) {
	b1 := compile(t, aces.Filename)
	b2 := compile(t, aces.FilenameNoOpt)
	if len(b1.Comps) >= len(b2.Comps) {
		t.Errorf("ACES1 (%d comps) should merge below ACES2 (%d)", len(b1.Comps), len(b2.Comps))
	}
}

func TestPeripheralStrategy(t *testing.T) {
	b := compile(t, aces.Peripheral)
	var coreComp *aces.Compartment
	for _, c := range b.Comps {
		if c.Name == "core" {
			coreComp = c
		}
	}
	if coreComp == nil {
		t.Fatal("no core compartment for peripheral-free functions")
	}
	// hash() touches no peripherals → core.
	found := false
	for _, f := range coreComp.Funcs {
		if f.Name == "hash" {
			found = true
		}
	}
	if !found {
		t.Error("hash not in core compartment")
	}
	// do_unlock and do_lock both touch only GPIOD → same compartment.
	var duComp, dlComp *aces.Compartment
	for _, c := range b.Comps {
		for _, f := range c.Funcs {
			switch f.Name {
			case "do_unlock":
				duComp = c
			case "do_lock":
				dlComp = c
			}
		}
	}
	if duComp != dlComp {
		t.Error("functions with identical peripheral sets split apart")
	}
}

// The Figure 3 property: with a tight region budget, merged groups give
// compartments access to variables they do not need.
func TestPartitionTimeOverPrivilege(t *testing.T) {
	// Build a module where one compartment uses more variable groups
	// than the budget: 6 globals each shared with a different file.
	m := ir.NewModule("overpriv")
	var globals []*ir.Global
	for i := 0; i < 6; i++ {
		g := m.AddGlobal(&ir.Global{Name: string(rune('a' + i)), Typ: ir.Array(ir.I32, 4)})
		globals = append(globals, g)
	}
	// hub.c uses all six; leaf<i>.c uses only global i → six distinct
	// user sets {hub}, {hub,leaf_i}.
	hub := ir.NewFunc(m, "hub", "hub.c", nil)
	for _, g := range globals {
		hub.Store(ir.I32, g, ir.CI(1))
	}
	hub.RetVoid()
	for i, g := range globals {
		lf := ir.NewFunc(m, "leaf"+string(rune('0'+i)), "leaf"+string(rune('0'+i))+".c", nil)
		lf.Store(ir.I32, g, ir.CI(2))
		lf.RetVoid()
	}
	mb := ir.NewFunc(m, "main", "main.c", nil)
	mb.Call(m.MustFunc("hub"))
	for i := range globals {
		mb.Call(m.MustFunc("leaf" + string(rune('0'+i))))
	}
	mb.Halt()
	mb.RetVoid()

	b, err := aces.Compile(m, mach.STM32F4Discovery(), aces.FilenameNoOpt)
	if err != nil {
		t.Fatal(err)
	}
	// hub needs 6 groups but the budget is 4: merging must have
	// happened, and some leaf compartment must now be able to access a
	// variable it does not need.
	var hubComp *aces.Compartment
	for _, c := range b.Comps {
		if c.Name == "hub.c" {
			hubComp = c
		}
	}
	if len(hubComp.Groups) > aces.DataRegionLimit {
		t.Fatalf("hub still has %d groups", len(hubComp.Groups))
	}
	overPriv := false
	for _, c := range b.Comps {
		need := map[*ir.Global]bool{}
		for _, g := range c.NeededVars() {
			need[g] = true
		}
		for _, g := range c.AccessibleVars() {
			if !need[g] {
				overPriv = true
			}
		}
	}
	if !overPriv {
		t.Error("region merging produced no partition-time over-privilege")
	}
}

func TestGroupsDisjointAndComplete(t *testing.T) {
	for _, strat := range []aces.Strategy{aces.Filename, aces.FilenameNoOpt, aces.Peripheral} {
		b := compile(t, strat)
		seen := map[*ir.Global]int{}
		for _, gr := range b.Groups {
			for _, g := range gr.Vars {
				seen[g]++
			}
		}
		for g, n := range seen {
			if n != 1 {
				t.Errorf("%s: global %s in %d groups", strat, g.Name, n)
			}
		}
		// Every compartment's needed vars must be accessible.
		for _, c := range b.Comps {
			acc := map[*ir.Global]bool{}
			for _, g := range c.AccessibleVars() {
				acc[g] = true
			}
			for _, g := range c.NeededVars() {
				if !acc[g] {
					t.Errorf("%s: compartment %s missing needed var %s", strat, c.Name, g.Name)
				}
			}
		}
	}
}

func TestRunUnderACES(t *testing.T) {
	for _, strat := range []aces.Strategy{aces.Filename, aces.FilenameNoOpt, aces.Peripheral} {
		t.Run(strat.String(), func(t *testing.T) {
			b, err := aces.Compile(testprog.PinLockLike(), mach.STM32F4Discovery(), strat)
			if err != nil {
				t.Fatal(err)
			}
			bus := mach.NewBus(b.Board.FlashSize, b.Board.SRAMSize, &mach.Clock{})
			_, gpio := testprog.Devices(bus, '1')
			rt, err := aces.Boot(b, bus)
			if err != nil {
				t.Fatal(err)
			}
			rt.M.MaxCycles = 10_000_000
			if err := rt.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			if gpio.ODR != 1 {
				t.Errorf("correct pin did not unlock under %s: ODR=%d", strat, gpio.ODR)
			}
			if len(b.Comps) > 1 && rt.Switches == 0 {
				t.Error("no compartment switches recorded")
			}
		})
	}
}

// The case-study contrast (Section 6.1): under ACES, KEY and the
// variables Lock_Task needs can end up in the same merged region, so a
// compromised Lock_Task CAN overwrite KEY — the attack OPEC blocks.
func TestACESAttackSucceedsWhenMerged(t *testing.T) {
	m := testprog.PinLockLike()
	b, err := aces.Compile(m, mach.STM32F4Discovery(), aces.FilenameNoOpt)
	if err != nil {
		t.Fatal(err)
	}
	// Find Lock_Task's compartment (main.c) and check whether KEY is
	// accessible there. In PinLockLike, main.c's functions legitimately
	// use KEY (Key_Init lives in main.c), so ACES grants the whole
	// file — including the buggy Lock_Task path — write access to KEY.
	key := m.Global("KEY")
	var ltComp *aces.Compartment
	for _, c := range b.Comps {
		for _, f := range c.Funcs {
			if f.Name == "Lock_Task" {
				ltComp = c
			}
		}
	}
	accessible := false
	for _, g := range ltComp.AccessibleVars() {
		if g == key {
			accessible = true
		}
	}
	if !accessible {
		t.Skip("layout did not co-locate KEY in this configuration")
	}

	// Inject the runtime arbitrary write and confirm it lands.
	lt := m.MustFunc("Lock_Task")
	entry := lt.Entry()
	in := &ir.Instr{Op: ir.OpStore, Typ: ir.I8, Args: []ir.Value{key, ir.CI(0xEE)}}
	entry.Instrs = append([]*ir.Instr{in}, entry.Instrs...)

	bus := mach.NewBus(b.Board.FlashSize, b.Board.SRAMSize, &mach.Clock{})
	testprog.Devices(bus, '1')
	rt, err := aces.Boot(b, bus)
	if err != nil {
		t.Fatal(err)
	}
	rt.M.MaxCycles = 10_000_000
	if err := rt.Run(); err != nil {
		t.Fatalf("ACES run with attack: %v", err)
	}
	v, _ := bus.RawLoad(b.GlobalAddr[key], 1)
	if v != 0xEE {
		t.Errorf("attack write did not land under ACES: KEY=%#x", v)
	}
}

func TestPrivilegedLifting(t *testing.T) {
	m := ir.NewModule("lift")
	bench := ir.NewFunc(m, "bench", "bench.c", ir.I32)
	bench.Ret(bench.Load(ir.I32, ir.CI(mach.DWTCyccnt)))
	mb := ir.NewFunc(m, "main", "main.c", nil)
	mb.Call(bench.F)
	mb.Halt()
	mb.RetVoid()

	b, err := aces.Compile(m, mach.STM32F4Discovery(), aces.FilenameNoOpt)
	if err != nil {
		t.Fatal(err)
	}
	var benchComp *aces.Compartment
	for _, c := range b.Comps {
		if c.Name == "bench.c" {
			benchComp = c
		}
	}
	if !benchComp.Privileged {
		t.Fatal("core-peripheral compartment not lifted")
	}
	if b.PrivilegedCodeBytes() == 0 {
		t.Error("PAC accounting zero")
	}

	// And the lifted compartment actually runs privileged: PPB access
	// succeeds without emulation.
	bus := mach.NewBus(b.Board.FlashSize, b.Board.SRAMSize, &mach.Clock{})
	rt, err := aces.Boot(b, bus)
	if err != nil {
		t.Fatal(err)
	}
	rt.M.MaxCycles = 1_000_000
	if err := rt.Run(); err != nil {
		t.Fatalf("lifted run: %v", err)
	}
}

func TestACESBlocksCrossCompartmentWrite(t *testing.T) {
	// A compartment must not write a group it has no variables in.
	m := ir.NewModule("cross")
	secret := m.AddGlobal(&ir.Global{Name: "secret", Typ: ir.I32})
	other := m.AddGlobal(&ir.Global{Name: "other", Typ: ir.I32})

	alpha := ir.NewFunc(m, "alpha", "alpha.c", nil)
	alpha.Store(ir.I32, secret, ir.CI(1))
	alpha.RetVoid()
	beta := ir.NewFunc(m, "beta", "beta.c", nil)
	beta.Store(ir.I32, other, ir.CI(2))
	beta.RetVoid()
	mb := ir.NewFunc(m, "main", "main.c", nil)
	mb.Call(alpha.F)
	mb.Call(beta.F)
	mb.Halt()
	mb.RetVoid()

	b, err := aces.Compile(m, mach.STM32F4Discovery(), aces.FilenameNoOpt)
	if err != nil {
		t.Fatal(err)
	}
	// Inject a runtime write of secret into beta (post-compile).
	bf := m.MustFunc("beta")
	in := &ir.Instr{Op: ir.OpStore, Typ: ir.I32, Args: []ir.Value{secret, ir.CI(0xBAD)}}
	bf.Entry().Instrs = append([]*ir.Instr{in}, bf.Entry().Instrs...)

	bus := mach.NewBus(b.Board.FlashSize, b.Board.SRAMSize, &mach.Clock{})
	rt, err := aces.Boot(b, bus)
	if err != nil {
		t.Fatal(err)
	}
	rt.M.MaxCycles = 1_000_000
	err = rt.Run()
	if err == nil {
		t.Fatal("cross-compartment write not blocked by ACES regions")
	}
}

func TestFootprints(t *testing.T) {
	for _, strat := range []aces.Strategy{aces.Filename, aces.FilenameNoOpt, aces.Peripheral} {
		b := compile(t, strat)
		if b.FlashUsed <= b.CodeBytes {
			t.Errorf("%s: FlashUsed %d missing runtime/metadata", strat, b.FlashUsed)
		}
		if b.SRAMUsed <= 0 {
			t.Errorf("%s: SRAMUsed %d", strat, b.SRAMUsed)
		}
	}
}

func TestPeriphWindowCoversAll(t *testing.T) {
	b := compile(t, aces.FilenameNoOpt)
	for _, c := range b.Comps {
		if c.PeriphWindow == nil {
			continue
		}
		if err := c.PeriphWindow.Validate(); err != nil {
			t.Errorf("%s window invalid: %v", c.Name, err)
		}
		for name := range c.Deps.Periphs {
			p := b.Board.PeriphByName(name)
			lo, hi := c.PeriphWindow.Base, c.PeriphWindow.Base+1<<c.PeriphWindow.SizeLog2
			if p.Base < lo || p.Base+p.Size > hi {
				t.Errorf("%s window misses %s", c.Name, name)
			}
		}
	}
}

// ACES3 must confine privilege lifting to a dedicated "ppb" compartment
// rather than lifting the whole peripheral-free core.
func TestPeripheralStrategyIsolatesPPB(t *testing.T) {
	m := ir.NewModule("ppbsplit")
	bench := ir.NewFunc(m, "read_dwt", "bench.c", ir.I32)
	bench.Ret(bench.Load(ir.I32, ir.CI(mach.DWTCyccnt)))
	pure := ir.NewFunc(m, "pure_math", "math.c", ir.I32, ir.P("x", ir.I32))
	pure.Ret(pure.Mul(pure.Arg("x"), pure.Arg("x")))
	mb := ir.NewFunc(m, "main", "main.c", nil)
	mb.Call(bench.F)
	mb.Call(pure.F, ir.CI(3))
	mb.Halt()
	mb.RetVoid()

	b, err := aces.Compile(m, mach.STM32F4Discovery(), aces.Peripheral)
	if err != nil {
		t.Fatal(err)
	}
	var ppb, core *aces.Compartment
	for _, c := range b.Comps {
		switch c.Name {
		case "ppb":
			ppb = c
		case "core":
			core = c
		}
	}
	if ppb == nil || !ppb.Privileged {
		t.Fatal("PPB compartment missing or not lifted")
	}
	if core == nil || core.Privileged {
		t.Fatal("core compartment should stay unprivileged")
	}
	for _, f := range core.Funcs {
		if f.Name == "read_dwt" {
			t.Error("PPB user leaked into the core compartment")
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	if aces.Filename.String() != "ACES1" || aces.FilenameNoOpt.String() != "ACES2" || aces.Peripheral.String() != "ACES3" {
		t.Error("strategy names wrong")
	}
	if aces.Strategy(9).String() != "?" {
		t.Error("unknown strategy name")
	}
}

// A compartment whose protection cannot be programmed fails boot with
// an error naming it and the MPU slot, instead of panicking at the
// first switch into it.
func TestBootRejectsInvalidPlan(t *testing.T) {
	b := compile(t, aces.FilenameNoOpt)
	var victim *aces.Compartment
	for _, c := range b.Comps {
		if c.PeriphWindow != nil {
			victim = c
			break
		}
	}
	if victim == nil {
		t.Fatal("no compartment with a peripheral window")
	}
	w := *victim.PeriphWindow
	w.Base += 4 // no longer aligned to the window's size
	victim.PeriphWindow = &w
	bus := mach.NewBus(b.Board.FlashSize, b.Board.SRAMSize, &mach.Clock{})
	rt, err := aces.Boot(b, bus)
	if err == nil {
		t.Fatalf("Boot accepted a misaligned peripheral window (runtime %v)", rt != nil)
	}
	want := fmt.Sprintf("aces: compartment %s: MPU slot 7: mach: region base %#x not aligned to size %#x", victim.Name, w.Base, uint32(1)<<w.SizeLog2)
	if err.Error() != want {
		t.Errorf("Boot error %q, want %q", err, want)
	}
}

// TestRuntimeResolvesGlobalsByIndex: the ACES machine resolves every
// global of its module to its layout address through the index table
// built at boot. A global the table does not hold at its index — one
// of another module at a registered global's index, or a module global
// re-registered elsewhere — resolves exactly as b.GlobalAddr does.
func TestRuntimeResolvesGlobalsByIndex(t *testing.T) {
	b := compile(t, aces.Filename)
	rt, err := aces.Boot(b, mach.NewBus(b.Board.FlashSize, b.Board.SRAMSize, &mach.Clock{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range b.Mod.Globals {
		if a, f := rt.M.GlobalAddr(g, false); f != nil || a != b.GlobalAddr[g] {
			t.Errorf("%s resolves to %#x (fault %v), layout %#x", g.Name, a, f, b.GlobalAddr[g])
		}
	}
	stranger := ir.NewModule("other").AddGlobal(&ir.Global{Name: "stranger", Typ: ir.I32})
	if a, f := rt.M.GlobalAddr(stranger, false); f != nil || a != 0 {
		t.Errorf("a global of another module at index %d resolves to %#x (fault %v), map gives 0", stranger.Index(), a, f)
	}
	g := b.Mod.Globals[0]
	moved := ir.NewModule("moved")
	moved.AddGlobal(&ir.Global{Name: "pad", Typ: ir.I32})
	moved.AddGlobal(g)
	if a, f := rt.M.GlobalAddr(g, false); f != nil || a != b.GlobalAddr[g] {
		t.Errorf("%s moved to index %d resolves to %#x (fault %v), map %#x", g.Name, g.Index(), a, f, b.GlobalAddr[g])
	}
}
