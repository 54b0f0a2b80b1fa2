package core_test

import (
	"reflect"
	"strings"
	"testing"

	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/image"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/testprog"
)

func compilePinLock(t *testing.T) *core.Build {
	t.Helper()
	b, err := core.Compile(testprog.PinLockLike(), mach.STM32F4Discovery(), testprog.PinLockConfig())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func opByName(t *testing.T, b *core.Build, name string) *core.Operation {
	t.Helper()
	for _, op := range b.Ops {
		if op.Name == name {
			return op
		}
	}
	t.Fatalf("operation %s not found", name)
	return nil
}

func TestPartitionOperations(t *testing.T) {
	b := compilePinLock(t)
	if len(b.Ops) != 5 { // main + 4 entries
		t.Fatalf("got %d operations, want 5", len(b.Ops))
	}
	if b.Ops[0].Name != "main" || b.Ops[0].ID != 0 {
		t.Errorf("default operation wrong: %s/%d", b.Ops[0].Name, b.Ops[0].ID)
	}

	ut := opByName(t, b, "Unlock_Task")
	names := map[string]bool{}
	for _, f := range ut.Funcs {
		names[f.Name] = true
	}
	for _, want := range []string{"Unlock_Task", "HAL_UART_Receive_IT", "hash", "do_unlock"} {
		if !names[want] {
			t.Errorf("Unlock_Task members missing %s: %v", want, names)
		}
	}
	if names["do_lock"] || names["Lock_Task"] {
		t.Errorf("Unlock_Task leaked other operation's functions: %v", names)
	}
	if ut.Funcs[0] != ut.Entry {
		t.Error("entry is not first member")
	}

	// main's own operation must not include task bodies (backtracking).
	mo := b.Ops[0]
	for _, f := range mo.Funcs {
		if f.Name == "do_unlock" || f.Name == "HAL_UART_Receive_IT" {
			t.Errorf("default operation crossed an entry boundary: %s", f.Name)
		}
	}
}

func TestSharedFunctionsAllowed(t *testing.T) {
	b := compilePinLock(t)
	// HAL_UART_Receive_IT is shared by Unlock_Task and Lock_Task.
	ut, lt := opByName(t, b, "Unlock_Task"), opByName(t, b, "Lock_Task")
	in := func(op *core.Operation, name string) bool {
		for _, f := range op.Funcs {
			if f.Name == name {
				return true
			}
		}
		return false
	}
	if !in(ut, "HAL_UART_Receive_IT") || !in(lt, "HAL_UART_Receive_IT") {
		t.Error("shared function not in both operations")
	}
}

func TestGlobalClassification(t *testing.T) {
	b := compilePinLock(t)
	m := b.Mod
	if !b.External[m.Global("PinRxBuffer")] {
		t.Error("PinRxBuffer must be external (shared by both tasks)")
	}
	if !b.External[m.Global("KEY")] {
		t.Error("KEY must be external (Key_Init + Unlock_Task)")
	}
	if !b.External[m.Global("lock_state")] {
		t.Error("lock_state must be external")
	}
	if b.External[m.Global("init_done")] || b.External[m.Global("attempts")] {
		t.Error("single-operation globals misclassified as external")
	}
	if b.OwnerOp[m.Global("init_done")] == nil {
		t.Error("internal global has no owner")
	}
}

// The case-study property (Section 6.1): Lock_Task's data section must
// NOT contain a shadow of KEY, while Unlock_Task's must.
func TestPartitionTimeOverPrivilegeSolved(t *testing.T) {
	b := compilePinLock(t)
	key := b.Mod.Global("KEY")
	lt := opByName(t, b, "Lock_Task")
	ut := opByName(t, b, "Unlock_Task")
	if _, has := b.ShadowAddr[lt.ID][key]; has {
		t.Error("Lock_Task received a shadow of KEY: partition-time over-privilege")
	}
	if _, has := b.ShadowAddr[ut.ID][key]; !has {
		t.Error("Unlock_Task lacks its KEY shadow")
	}
	for _, g := range lt.Globals {
		if g == key {
			t.Error("KEY in Lock_Task's accessible globals")
		}
	}
}

func TestLayoutDisjointAndAligned(t *testing.T) {
	b := compilePinLock(t)
	type rng struct {
		name       string
		start, end uint32
	}
	var rs []rng
	add := func(name string, start, end uint32) { rs = append(rs, rng{name, start, end}) }
	add("public", b.PublicBase, b.PublicBase+uint32(b.PublicBytes))
	add("heap", b.HeapBase, b.HeapBase+b.HeapSize)
	for i, s := range b.OpSections {
		if s.Size == 0 {
			continue
		}
		if s.Addr&(s.RegionBytes()-1) != 0 {
			t.Errorf("op section %d not aligned: %#x size %#x", i, s.Addr, s.RegionBytes())
		}
		add(s.Name, s.Addr, s.End())
	}
	add("reloc", b.RelocBase, b.RelocBase+uint32(b.RelocBytes))
	add("mondata", b.MonDataBase, b.MonDataBase+uint32(b.MonDataSize))
	add("stack", b.StackBase, b.StackTop)
	for i := range rs {
		for j := i + 1; j < len(rs); j++ {
			if rs[i].start < rs[j].end && rs[j].start < rs[i].end {
				t.Errorf("sections overlap: %s [%#x,%#x) and %s [%#x,%#x)",
					rs[i].name, rs[i].start, rs[i].end, rs[j].name, rs[j].start, rs[j].end)
			}
		}
	}
	top := mach.SRAMBase + uint32(b.Board.SRAMSize)
	for _, r := range rs {
		if r.start < mach.SRAMBase || r.end > top {
			t.Errorf("%s outside SRAM: [%#x,%#x)", r.name, r.start, r.end)
		}
	}
}

func TestShadowAddressesInsideSections(t *testing.T) {
	b := compilePinLock(t)
	for _, op := range b.Ops {
		sec := b.OpSections[op.ID]
		for g, a := range b.ShadowAddr[op.ID] {
			if a < sec.Addr || a+uint32(g.Size()) > sec.Addr+sec.RegionBytes() {
				t.Errorf("op %s shadow of %s at %#x escapes section [%#x,%#x)",
					op.Name, g.Name, a, sec.Addr, sec.End())
			}
		}
	}
}

func TestRelocationTableSlots(t *testing.T) {
	b := compilePinLock(t)
	if len(b.ExternalList) == 0 {
		t.Fatal("no externals")
	}
	seen := map[uint32]bool{}
	for i, g := range b.ExternalList {
		slot := b.RelocSlot[g]
		if slot != b.RelocBase+uint32(4*i) {
			t.Errorf("slot of %s = %#x, want %#x", g.Name, slot, b.RelocBase+uint32(4*i))
		}
		if seen[slot] {
			t.Errorf("duplicate slot %#x", slot)
		}
		seen[slot] = true
	}
	if b.RelocBytes != 4*len(b.ExternalList) {
		t.Errorf("RelocBytes = %d", b.RelocBytes)
	}
}

func TestInstrumentation(t *testing.T) {
	b := compilePinLock(t)
	mainFn := b.Mod.MustFunc("main")
	svcs := 0
	mainFn.Instructions(func(_ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpSvc {
			svcs++
			if b.EntryOps[in.Fn] == nil {
				t.Errorf("SVC wraps non-entry %s", in.Fn.Name)
			}
			if in.Off != b.EntryOps[in.Fn].ID {
				t.Errorf("SVC #%d for operation %d", in.Off, b.EntryOps[in.Fn].ID)
			}
		}
		if in.Op == ir.OpCall && b.EntryOps[in.Fn] != nil {
			t.Errorf("uninstrumented entry call to %s", in.Fn.Name)
		}
	})
	if svcs != 4 {
		t.Errorf("main has %d SVCs, want 4", svcs)
	}
	if b.InstrumentedSites != 4 {
		t.Errorf("InstrumentedSites = %d", b.InstrumentedSites)
	}
	if err := ir.Verify(b.Mod); err != nil {
		t.Errorf("instrumented module fails verification: %v", err)
	}
}

func TestMPUPlan(t *testing.T) {
	b := compilePinLock(t)
	ut := opByName(t, b, "Unlock_Task")
	p := b.MPUFor(ut)

	bg := p.Static[core.RegionBackground]
	if !bg.Enabled || bg.Perm != mach.APPrivRWUnprivRO || bg.SizeLog2 != 32 {
		t.Errorf("background region wrong: %+v", bg)
	}
	st := p.Static[core.RegionStack]
	if !st.Enabled || st.Base != b.StackBase || st.Perm != mach.APRW {
		t.Errorf("stack region wrong: %+v", st)
	}
	od := p.Static[core.RegionOpData]
	if !od.Enabled || od.Base != b.OpSections[ut.ID].Addr {
		t.Errorf("op data region wrong: %+v", od)
	}
	for i, r := range p.Static {
		if err := r.Validate(); err != nil {
			t.Errorf("region %d invalid: %v", i, err)
		}
	}
	// Unlock_Task touches USART2 and GPIOD: two non-adjacent ranges.
	if len(p.Pool) != 2 {
		t.Errorf("peripheral pool = %d regions, want 2 (%+v)", len(p.Pool), p.Pool)
	}
	if p.Virtualized {
		t.Error("two peripherals should not need virtualization")
	}
}

func TestPeriphAllowLists(t *testing.T) {
	b := compilePinLock(t)
	ut := opByName(t, b, "Unlock_Task")
	board := b.Board
	if !ut.AllowsPeriphAddr(board, mach.USART2Base+4) {
		t.Error("Unlock_Task must allow its UART")
	}
	if ut.AllowsPeriphAddr(board, mach.RCCBase) {
		t.Error("Unlock_Task must not allow RCC (only Uart_Init touches it)")
	}
	ui := opByName(t, b, "Uart_Init")
	if !ui.AllowsPeriphAddr(board, mach.RCCBase+0x40) {
		t.Error("Uart_Init must allow RCC")
	}
}

func TestSyncAndSanitizeLists(t *testing.T) {
	b := compilePinLock(t)
	ut := opByName(t, b, "Unlock_Task")
	sync := b.SyncList(ut)
	names := map[string]bool{}
	for _, g := range sync {
		names[g.Name] = true
	}
	if !names["PinRxBuffer"] || !names["KEY"] || !names["lock_state"] {
		t.Errorf("Unlock_Task sync list = %v", names)
	}
	if names["attempts"] {
		t.Error("internal global in sync list")
	}
	san := b.SanitizeList(ut)
	if len(san) != 1 || san[0].Name != "lock_state" {
		t.Errorf("sanitize list = %v", san)
	}
}

func TestEntryValidation(t *testing.T) {
	check := func(cfg core.Config, wantSub string) {
		t.Helper()
		_, err := core.Compile(testprog.PinLockLike(), mach.STM32F4Discovery(), cfg)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Compile(%v) error = %v, want %q", cfg.Entries, err, wantSub)
		}
	}
	check(core.Config{Entries: []string{"nosuch"}}, "not found")
	check(core.Config{Entries: []string{"main"}}, "default operation")
	check(core.Config{Entries: []string{"Unlock_Task", "Unlock_Task"}}, "duplicate")
}

func TestVariadicEntryRejected(t *testing.T) {
	m := testprog.PinLockLike()
	fb := ir.NewFunc(m, "printf_like", "main.c", nil, ir.P("fmt", ir.Ptr(ir.I8)))
	fb.F.Variadic = true
	fb.RetVoid()
	_, err := core.Compile(m, mach.STM32F4Discovery(), core.Config{Entries: []string{"printf_like"}})
	if err == nil || !strings.Contains(err.Error(), "variadic") {
		t.Errorf("variadic entry error = %v", err)
	}
}

func TestIRQEntryRejected(t *testing.T) {
	m := testprog.PinLockLike()
	// helper called only from an IRQ handler
	helper := ir.NewFunc(m, "irq_helper", "it.c", nil)
	helper.RetVoid()
	h := ir.NewFunc(m, "TIM2_IRQHandler", "it.c", nil)
	h.F.IRQHandler = true
	h.Call(helper.F)
	h.RetVoid()
	_, err := core.Compile(m, mach.STM32F4Discovery(), core.Config{Entries: []string{"irq_helper"}})
	if err == nil || !strings.Contains(err.Error(), "interrupt") {
		t.Errorf("IRQ-confined entry error = %v", err)
	}
	// The handler itself is also rejected.
	_, err = core.Compile(testFreshWithIRQ(), mach.STM32F4Discovery(), core.Config{Entries: []string{"TIM2_IRQHandler"}})
	if err == nil || !strings.Contains(err.Error(), "interrupt") {
		t.Errorf("IRQ handler entry error = %v", err)
	}
}

func testFreshWithIRQ() *ir.Module {
	m := testprog.PinLockLike()
	h := ir.NewFunc(m, "TIM2_IRQHandler", "it.c", nil)
	h.F.IRQHandler = true
	h.RetVoid()
	return m
}

func TestNestedPointerEntryRejected(t *testing.T) {
	m := testprog.PinLockLike()
	st := ir.Struct("msg", ir.Field{Name: "buf", Typ: ir.Ptr(ir.I8)}, ir.Field{Name: "len", Typ: ir.I32})
	fb := ir.NewFunc(m, "send", "main.c", nil, ir.P("m", ir.Ptr(st)))
	fb.RetVoid()
	_, err := core.Compile(m, mach.STM32F4Discovery(), core.Config{Entries: []string{"send"}})
	if err == nil || !strings.Contains(err.Error(), "nested pointer") {
		t.Errorf("nested pointer entry error = %v", err)
	}
}

func TestStackArgSpecs(t *testing.T) {
	m := testprog.PinLockLike()
	fb := ir.NewFunc(m, "process", "main.c", nil,
		ir.P("buf", ir.Ptr(ir.Array(ir.I8, 64))), ir.P("len", ir.I32))
	fb.RetVoid()
	mainFn := m.MustFunc("main")
	_ = mainFn
	b, err := core.Compile(m, mach.STM32F4Discovery(), core.Config{
		Entries:       []string{"process"},
		StackArgBytes: map[string]int{"process.buf": 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	var proc *core.Operation
	for _, op := range b.Ops {
		if op.Name == "process" {
			proc = op
		}
	}
	if proc == nil {
		t.Fatal("process operation missing")
	}
	if len(proc.StackArgs) != 2 {
		t.Fatalf("StackArgs = %v", proc.StackArgs)
	}
	if !proc.StackArgs[0].IsPtr || proc.StackArgs[0].PointeeBytes != 32 {
		t.Errorf("override not applied: %+v", proc.StackArgs[0])
	}
	if proc.StackArgs[1].IsPtr {
		t.Error("scalar arg marked pointer")
	}
}

func TestFootprintAccounting(t *testing.T) {
	b := compilePinLock(t)
	van, err := image.BuildVanilla(testprog.PinLockLike(), mach.STM32F4Discovery())
	if err != nil {
		t.Fatal(err)
	}
	if b.FlashUsed <= van.FlashUsed {
		t.Errorf("OPEC Flash %d should exceed vanilla %d (monitor + metadata)", b.FlashUsed, van.FlashUsed)
	}
	if b.SRAMUsed <= van.SRAMUsed {
		t.Errorf("OPEC SRAM %d should exceed vanilla %d (shadow sections)", b.SRAMUsed, van.SRAMUsed)
	}
	if b.MonitorCodeBytes < 8000 || b.MonitorCodeBytes > 9500 {
		t.Errorf("monitor code model out of Table 1 band: %d", b.MonitorCodeBytes)
	}
	if b.MetadataBytes <= 0 || b.InstrumentationBytes != 8*b.InstrumentedSites {
		t.Errorf("metadata/instrumentation accounting: %d %d", b.MetadataBytes, b.InstrumentationBytes)
	}
}

func TestPeriphRegionMergeAdjacent(t *testing.T) {
	// GPIOA..GPIOD are contiguous 0x400 blocks: an operation using all
	// four should get a single merged pool entry chain covering them.
	m := ir.NewModule("gpioquad")
	f := ir.NewFunc(m, "task", "t.c", nil)
	for _, base := range []uint32{mach.GPIOABase, mach.GPIOBBase, mach.GPIOCBase, mach.GPIODBase} {
		f.Store(ir.I32, ir.CI(base+0x14), ir.CI(1))
	}
	f.RetVoid()
	mb := ir.NewFunc(m, "main", "t.c", nil)
	mb.Call(f.F)
	mb.Halt()
	mb.RetVoid()

	b, err := core.Compile(m, mach.STM32F4Discovery(), core.Config{Entries: []string{"task"}})
	if err != nil {
		t.Fatal(err)
	}
	var task *core.Operation
	for _, op := range b.Ops {
		if op.Name == "task" {
			task = op
		}
	}
	// 4 KB contiguous, 4 KB aligned: exactly one region.
	if len(task.PeriphRegions) != 1 {
		t.Fatalf("merged regions = %+v, want a single 4 KB region", task.PeriphRegions)
	}
	r := task.PeriphRegions[0]
	if r.Base != mach.GPIOABase || r.SizeLog2 != 12 {
		t.Errorf("merged region = %+v", r)
	}
}

func TestOpForSharedFunction(t *testing.T) {
	b := compilePinLock(t)
	hal := b.Mod.MustFunc("HAL_UART_Receive_IT")
	op := b.OpFor(hal)
	if op == nil {
		t.Fatal("OpFor returned nil for shared member")
	}
	ut := b.Mod.MustFunc("Unlock_Task")
	if got := b.OpFor(ut); got == nil || got.Entry != ut {
		t.Error("OpFor entry did not return its operation")
	}
}

func TestPolicyFile(t *testing.T) {
	b := compilePinLock(t)
	pf := b.Policy()
	if pf.Module != "pinlock-mini" || len(pf.Operations) != 5 {
		t.Fatalf("policy header: %s / %d ops", pf.Module, len(pf.Operations))
	}
	// Lock_Task's policy must not list KEY (the case-study property, as
	// seen by external tooling).
	for _, op := range pf.Operations {
		if op.Name != "Lock_Task" {
			continue
		}
		for _, g := range op.Globals {
			if g.Name == "KEY" {
				t.Error("policy file grants KEY to Lock_Task")
			}
		}
		if len(op.MPURegions) == 0 {
			t.Error("no MPU regions in policy")
		}
	}
	// Critical globals carry their sanitize range.
	foundCritical := false
	for _, e := range pf.Externals {
		if e.Name == "lock_state" {
			foundCritical = true
			if e.Sanitize != "[0,1]" {
				t.Errorf("lock_state sanitize range = %q", e.Sanitize)
			}
		}
	}
	if !foundCritical {
		t.Error("lock_state missing from externals")
	}

	// JSON serialization is deterministic.
	j1, err := b.PolicyJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := b.PolicyJSON()
	if string(j1) != string(j2) {
		t.Error("policy JSON not deterministic")
	}
	if len(j1) < 500 {
		t.Errorf("policy JSON suspiciously small: %d bytes", len(j1))
	}
}

func TestPMPPlan(t *testing.T) {
	b := compilePinLock(t)
	ut := opByName(t, b, "Unlock_Task")
	p := b.PMPFor(ut)

	// Every non-OFF entry must be encodable.
	for i, e := range p.Static {
		if err := e.Validate(); err != nil {
			t.Errorf("PMP entry %d invalid: %v", i, err)
		}
	}
	od := p.Static[core.PMPOpData]
	if od.Mode != mach.PMPNAPOT || od.Addr != b.OpSections[ut.ID].Addr {
		t.Errorf("op-data entry wrong: %+v", od)
	}
	lo, hi := p.Static[core.PMPStackLo], p.Static[core.PMPStackHi]
	if lo.Addr != b.StackBase || hi.Mode != mach.PMPTOR || hi.Addr != b.StackTop {
		t.Errorf("stack TOR pair wrong: lo=%+v hi=%+v", lo, hi)
	}
	bg := p.Static[core.PMPBackgrnd]
	if bg.Perm != mach.PMPR || bg.SizeLog2 != 32 {
		t.Errorf("background entry wrong: %+v", bg)
	}
	fl := p.Static[core.PMPFlash]
	if fl.Perm&mach.PMPW != 0 {
		t.Error("flash entry writable")
	}
	if p.Virtualized {
		t.Error("two peripherals should fit the PMP pool")
	}
}

// TestPointerFieldsRecorded checks the layout records every external
// global's pointer-field offsets, exactly as ir.PointerFieldOffsets
// computes them, and nothing for other globals.
func TestPointerFieldsRecorded(t *testing.T) {
	withFields := 0
	for _, app := range apps.All() {
		inst := app.New()
		b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range inst.Mod.Globals {
			want := ir.PointerFieldOffsets(g.Typ)
			got, ok := b.PtrFields[g]
			switch {
			case !b.External[g] && ok:
				t.Errorf("%s: internal global %s has recorded pointer fields", app.Name, g.Name)
			case b.External[g] && !reflect.DeepEqual(got, want):
				t.Errorf("%s: %s pointer fields %v, want %v", app.Name, g.Name, got, want)
			}
		}
		withFields += len(b.PtrFields)
	}
	if withFields == 0 {
		t.Error("no workload has an external global with pointer fields")
	}
}
