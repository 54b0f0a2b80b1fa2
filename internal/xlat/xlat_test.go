package xlat_test

import (
	"fmt"
	"strings"
	"testing"

	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/trace"
	"opec/internal/xlat"
)

// newMachine mirrors the mach package's test harness: globals laid out
// sequentially in SRAM, a direct resolver, the stack at the top of
// SRAM, privileged execution.
func newMachine(t testing.TB, m *ir.Module) *mach.Machine {
	t.Helper()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	bus := mach.NewBus(1<<20, 192<<10, &mach.Clock{})
	mm := mach.NewMachine(m, bus, mach.FlashBase)
	addrs := make(map[*ir.Global]uint32)
	next := mach.SRAMBase
	for _, g := range m.Globals {
		addrs[g] = next
		for i, bv := range g.Init {
			bus.RawStore(next+uint32(i), 1, uint32(bv))
		}
		next += uint32((g.Size() + 3) &^ 3)
	}
	mm.GlobalAddr = func(g *ir.Global, _ bool) (uint32, *mach.Fault) { return addrs[g], nil }
	mm.StackTop = mach.SRAMBase + uint32(bus.SRAMSize())
	mm.StackLimit = mm.StackTop - 32<<10
	mm.Privileged = true
	mm.MaxCycles = 50_000_000
	return mm
}

// outcome is everything observable about one finished run.
type outcome struct {
	ret      uint32
	err      string
	cycles   uint64
	counters string
	globals  []uint32
	priv     bool
}

func observe(t *testing.T, mm *mach.Machine, m *ir.Module, ret uint32, err error) outcome {
	t.Helper()
	o := outcome{ret: ret, cycles: mm.Clock.Now(), priv: mm.Privileged}
	if err != nil {
		o.err = err.Error()
	}
	var sb strings.Builder
	for _, c := range mm.Counters() {
		fmt.Fprintf(&sb, "%s=%d\n", c.Name, c.Value)
	}
	o.counters = sb.String()
	for _, g := range m.Globals {
		addr, f := mm.GlobalAddr(g, true)
		if f != nil {
			t.Fatalf("resolve %s: %v", g.Name, f)
		}
		v, f := mm.Bus.RawLoad(addr, 4)
		if f != nil {
			t.Fatalf("read %s: %v", g.Name, f)
		}
		o.globals = append(o.globals, v)
	}
	return o
}

// diffRun executes the module's fn under the interpreter and under a
// fresh xlat engine (prep hooks run on both machines before Run) and
// requires every observable to match.
func diffRun(t *testing.T, m *ir.Module, fn string, prep func(*mach.Machine), args ...uint32) outcome {
	t.Helper()
	mi := newMachine(t, m)
	if prep != nil {
		prep(mi)
	}
	ri, erri := mi.Run(m.MustFunc(fn), args...)
	oi := observe(t, mi, m, ri, erri)

	mx := newMachine(t, m)
	mx.SetBackend(xlat.New())
	if prep != nil {
		prep(mx)
	}
	rx, errx := mx.Run(m.MustFunc(fn), args...)
	ox := observe(t, mx, m, rx, errx)

	compare(t, oi, ox)
	return oi
}

func compare(t *testing.T, oi, ox outcome) {
	t.Helper()
	if oi.ret != ox.ret {
		t.Errorf("ret: interp=%d xlat=%d", oi.ret, ox.ret)
	}
	if oi.err != ox.err {
		t.Errorf("err:\n  interp: %s\n  xlat:   %s", oi.err, ox.err)
	}
	if oi.cycles != ox.cycles {
		t.Errorf("cycles: interp=%d xlat=%d", oi.cycles, ox.cycles)
	}
	if oi.counters != ox.counters {
		t.Errorf("counters diverge:\ninterp:\n%s\nxlat:\n%s", oi.counters, ox.counters)
	}
	if oi.priv != ox.priv {
		t.Errorf("privilege: interp=%v xlat=%v", oi.priv, ox.priv)
	}
	for i := range oi.globals {
		if oi.globals[i] != ox.globals[i] {
			t.Errorf("global %d: interp=%#x xlat=%#x", i, oi.globals[i], ox.globals[i])
		}
	}
}

func TestXlatArithmeticAndLoop(t *testing.T) {
	m := ir.NewModule("arith")
	fb := ir.NewFunc(m, "sum", "a.c", ir.I32, ir.P("n", ir.I32))
	loop := fb.NewBlock("loop")
	done := fb.NewBlock("done")
	acc := fb.Alloca(ir.I32)
	i := fb.Alloca(ir.I32)
	fb.Store(ir.I32, acc, ir.CI(0))
	fb.Store(ir.I32, i, ir.CI(0))
	fb.Br(loop)
	fb.SetBlock(loop)
	iv := fb.Load(ir.I32, i)
	av := fb.Load(ir.I32, acc)
	fb.Store(ir.I32, acc, fb.Add(av, iv))
	next := fb.Add(iv, ir.CI(1))
	fb.Store(ir.I32, i, next)
	fb.CondBr(fb.Lt(next, fb.Arg("n")), loop, done)
	fb.SetBlock(done)
	fb.Ret(fb.Load(ir.I32, acc))

	o := diffRun(t, m, "sum", nil, 10)
	if o.ret != 45 {
		t.Errorf("sum(10) = %d, want 45", o.ret)
	}
}

// TestXlatOperatorMatrix drives every binary operator (including the
// divide-by-zero and shift-masking edge cases) through long pure runs,
// so micro-op semantics are compared against evalBin wholesale.
func TestXlatOperatorMatrix(t *testing.T) {
	m := ir.NewModule("ops")
	out := m.AddGlobal(&ir.Global{Name: "out", Typ: ir.I32})
	kinds := []ir.BinKind{
		ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or, ir.Xor,
		ir.Shl, ir.Shr, ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge,
	}
	fb := ir.NewFunc(m, "matrix", "a.c", ir.I32, ir.P("a", ir.I32), ir.P("b", ir.I32))
	var acc ir.Value = ir.CI(0)
	for _, k := range kinds {
		// Mix operand shapes: reg/reg, reg/imm, imm/reg.
		r1 := fb.Bin(k, fb.Arg("a"), fb.Arg("b"))
		r2 := fb.Bin(k, r1, ir.CI(37))
		r3 := fb.Bin(k, ir.CI(0xFFFF), r2)
		acc = fb.Xor(fb.Add(fb.Add(r1, r2), r3), acc)
	}
	fb.Store(ir.I32, out, acc)
	fb.Ret(acc)

	for _, args := range [][]uint32{
		{0, 0}, {1, 0}, {0, 1}, {7, 3}, {3, 7},
		{0xFFFFFFFF, 1}, {1, 0xFFFFFFFF}, {0x80000000, 31},
		{100, 33}, {100, 32}, {42, 42}, {5, 0},
	} {
		diffRun(t, m, "matrix", nil, args...)
	}
}

// TestXlatAddressing exercises FieldAddr/IndexAddr/Alloca chains and
// sub-word load/store sizes.
func TestXlatAddressing(t *testing.T) {
	m := ir.NewModule("addr")
	arr := m.AddGlobal(&ir.Global{Name: "arr", Typ: ir.Array(ir.I32, 8)})
	fb := ir.NewFunc(m, "walk", "a.c", ir.I32, ir.P("n", ir.I32))
	loop := fb.NewBlock("loop")
	done := fb.NewBlock("done")
	iSlot := fb.Alloca(ir.I32)
	buf := fb.Alloca(ir.Array(ir.I8, 8))
	fb.Store(ir.I32, iSlot, ir.CI(0))
	fb.Br(loop)
	fb.SetBlock(loop)
	iv := fb.Load(ir.I32, iSlot)
	el := fb.Index(arr, ir.I32, iv)
	fb.Store(ir.I32, el, fb.Mul(iv, ir.CI(3)))
	bp := fb.FieldOff(buf, 2)
	fb.Store(ir.I8, bp, iv)
	nx := fb.Add(iv, ir.CI(1))
	fb.Store(ir.I32, iSlot, nx)
	fb.CondBr(fb.Lt(nx, fb.Arg("n")), loop, done)
	fb.SetBlock(done)
	a := fb.Load(ir.I32, fb.Index(arr, ir.I32, ir.CI(3)))
	b := fb.Load(ir.I8, fb.FieldOff(buf, 2))
	fb.Ret(fb.Add(a, b))

	diffRun(t, m, "walk", nil, 8)
}

// TestXlatSpilledArgs passes six arguments so indices 4..5 go through
// the simulated stack (checked memory reads on every use).
func TestXlatSpilledArgs(t *testing.T) {
	m := ir.NewModule("spill")
	f := ir.NewFunc(m, "sum6", "a.c", ir.I32,
		ir.P("a", ir.I32), ir.P("b", ir.I32), ir.P("c", ir.I32),
		ir.P("d", ir.I32), ir.P("e", ir.I32), ir.P("f", ir.I32))
	s := f.Add(f.Arg("a"), f.Arg("b"))
	s = f.Add(s, f.Arg("c"))
	s = f.Add(s, f.Arg("d"))
	s = f.Add(s, f.Arg("e"))
	s = f.Add(s, f.Arg("f"))
	f.Ret(s)

	mb := ir.NewFunc(m, "main", "a.c", ir.I32)
	mb.Ret(mb.Call(f.F, ir.CI(1), ir.CI(2), ir.CI(3), ir.CI(4), ir.CI(5), ir.CI(6)))

	o := diffRun(t, m, "main", nil)
	if o.ret != 21 {
		t.Errorf("sum6 = %d, want 21", o.ret)
	}
}

func TestXlatICall(t *testing.T) {
	m := ir.NewModule("icall")
	h1 := ir.NewFunc(m, "h1", "a.c", ir.I32, ir.P("x", ir.I32))
	h1.Ret(h1.Add(h1.Arg("x"), ir.CI(100)))
	h2 := ir.NewFunc(m, "h2", "a.c", ir.I32, ir.P("x", ir.I32))
	h2.Ret(h2.Mul(h2.Arg("x"), ir.CI(2)))

	tbl := m.AddGlobal(&ir.Global{Name: "handlers", Typ: ir.Array(ir.Ptr(ir.I32), 2)})
	sig := ir.FuncType{Params: []ir.Type{ir.I32}, Ret: ir.I32}
	mb := ir.NewFunc(m, "main", "a.c", ir.I32, ir.P("sel", ir.I32))
	mb.Store(ir.I32, mb.Index(tbl, ir.Ptr(ir.I32), ir.CI(0)), h1.F)
	mb.Store(ir.I32, mb.Index(tbl, ir.Ptr(ir.I32), ir.CI(1)), h2.F)
	ptr := mb.Load(ir.I32, mb.Index(tbl, ir.Ptr(ir.I32), mb.Arg("sel")))
	mb.Ret(mb.ICall(sig, ptr, ir.CI(21)))

	if o := diffRun(t, m, "main", nil, 0); o.ret != 121 {
		t.Errorf("icall h1 = %d", o.ret)
	}
	if o := diffRun(t, m, "main", nil, 1); o.ret != 42 {
		t.Errorf("icall h2 = %d", o.ret)
	}
}

// TestXlatICallBadTarget: a corrupted code pointer must raise the same
// usage fault, with the same located error text, under both backends.
func TestXlatICallBadTarget(t *testing.T) {
	m := ir.NewModule("badicall")
	fp := m.AddGlobal(&ir.Global{Name: "fp", Typ: ir.I32, Init: []byte{0x34, 0x12, 0, 0}})
	mb := ir.NewFunc(m, "main", "a.c", ir.I32)
	sig := ir.FuncType{Params: nil, Ret: ir.I32}
	mb.Ret(mb.ICall(sig, mb.Load(ir.I32, fp)))

	o := diffRun(t, m, "main", nil)
	if o.err == "" || !strings.Contains(o.err, "UsageFault") {
		t.Errorf("expected usage fault, got %q", o.err)
	}
}

func TestXlatHaltAndCycleLimit(t *testing.T) {
	m := ir.NewModule("halt")
	g := m.AddGlobal(&ir.Global{Name: "g", Typ: ir.I32})
	mb := ir.NewFunc(m, "main", "a.c", ir.I32)
	mb.Store(ir.I32, g, ir.CI(7))
	mb.Halt()
	mb.Ret(ir.CI(0))
	diffRun(t, m, "main", nil)

	// Cycle limit inside a tight loop: both backends must stop at the
	// same block boundary with the same cycle reading.
	m2 := ir.NewModule("limit")
	lb := ir.NewFunc(m2, "main", "a.c", ir.I32)
	loop := lb.NewBlock("loop")
	lb.Br(loop)
	lb.SetBlock(loop)
	lb.Add(ir.CI(1), ir.CI(2))
	lb.Br(loop)
	o := diffRun(t, m2, "main", func(mm *mach.Machine) { mm.MaxCycles = 5000 })
	if !strings.Contains(o.err, "cycle limit") {
		t.Errorf("expected cycle-limit error, got %q", o.err)
	}
}

func TestXlatStackOverflowAndCallDepth(t *testing.T) {
	m := ir.NewModule("deep")
	fb := ir.NewFunc(m, "recurse", "a.c", ir.I32, ir.P("n", ir.I32))
	base := fb.NewBlock("base")
	rec := fb.NewBlock("rec")
	fb.Alloca(ir.Array(ir.I32, 64))
	fb.CondBr(fb.Eq(fb.Arg("n"), ir.CI(0)), base, rec)
	fb.SetBlock(base)
	fb.Ret(ir.CI(0))
	fb.SetBlock(rec)
	fb.Ret(fb.Call(fb.F, fb.Sub(fb.Arg("n"), ir.CI(1))))

	// Terminates within limits.
	diffRun(t, m, "recurse", nil, 10)
	// Blows the call-depth guard identically.
	o := diffRun(t, m, "recurse", nil, 100000)
	if o.err == "" {
		t.Error("expected depth/stack error")
	}
}

// irqDev asserts its interrupt line when its register is read, so the
// IRQ becomes pending in the middle of a translated block.
type irqDev struct {
	name    string
	base    uint32
	pending bool
	reads   uint32
}

func (d *irqDev) Name() string { return d.name }
func (d *irqDev) Base() uint32 { return d.base }
func (d *irqDev) Size() uint32 { return 0x400 }
func (d *irqDev) Load(off uint32, size int) uint32 {
	d.reads++
	d.pending = true
	return d.reads
}
func (d *irqDev) Store(off uint32, size int, v uint32) {}
func (d *irqDev) IRQPending() bool                     { return d.pending }
func (d *irqDev) IRQAck()                              { d.pending = false }

// TestXlatIRQAtSuperinstructionBoundary: the device read in the middle
// of the block raises the line; both backends must deliver the IRQ at
// the next block boundary, with the handler observing identical
// architected state (the loop counter snapshot) and identical cycles.
func TestXlatIRQAtSuperinstructionBoundary(t *testing.T) {
	const devBase = 0x40011000
	mkMod := func() *ir.Module {
		m := ir.NewModule("irqmid")
		ctr := m.AddGlobal(&ir.Global{Name: "ctr", Typ: ir.I32})
		snap := m.AddGlobal(&ir.Global{Name: "snap", Typ: ir.I32})
		flag := m.AddGlobal(&ir.Global{Name: "flag", Typ: ir.I32})

		h := ir.NewFunc(m, "DEV_IRQHandler", "it.c", nil)
		h.F.IRQHandler = true
		h.Store(ir.I32, snap, h.Load(ir.I32, ctr)) // architected-state snapshot
		h.Store(ir.I32, flag, ir.CI(1))
		h.RetVoid()

		mb := ir.NewFunc(m, "main", "a.c", ir.I32)
		loop := mb.NewBlock("loop")
		done := mb.NewBlock("done")
		mb.Br(loop)
		mb.SetBlock(loop)
		// Pure prefix (a superinstruction under xlat), then the device
		// read that asserts the line mid-block, then a pure suffix.
		c0 := mb.Load(ir.I32, ctr)
		c1 := mb.Add(c0, ir.CI(1))
		c2 := mb.Mul(c1, ir.CI(1))
		c3 := mb.Add(c2, ir.CI(0))
		mb.Store(ir.I32, ctr, c3)
		mb.Load(ir.I32, ir.CI(devBase)) // raises the IRQ line
		f := mb.Load(ir.I32, flag)
		s0 := mb.Xor(f, ir.CI(0))
		mb.CondBr(mb.Eq(s0, ir.CI(0)), loop, done)
		mb.SetBlock(done)
		mb.Ret(mb.Load(ir.I32, snap))
		return m
	}

	run := func(xl bool) outcome {
		m := mkMod()
		mm := newMachine(t, m)
		if xl {
			mm.SetBackend(xlat.New())
		}
		dev := &irqDev{name: "DEV", base: devBase}
		if err := mm.Bus.Attach(dev); err != nil {
			t.Fatal(err)
		}
		mm.BindIRQ(dev, m.MustFunc("DEV_IRQHandler"))
		mm.Privileged = false
		ret, err := mm.Run(m.MustFunc("main"))
		return observe(t, mm, m, ret, err)
	}
	oi, ox := run(false), run(true)
	compare(t, oi, ox)
	if oi.ret == 0 {
		t.Error("handler never observed the counter")
	}
}

// TestXlatInjectionAtEveryBoundary arms an instruction-count trigger at
// every point of a program rich in pure runs. The armed engine must
// abandon batching and fire at exactly the interpreter's instruction,
// leaving identical state, cycles and counters.
func TestXlatInjectionAtEveryBoundary(t *testing.T) {
	mkMod := func() *ir.Module {
		m := ir.NewModule("inj")
		g := m.AddGlobal(&ir.Global{Name: "g", Typ: ir.I32})
		fired := m.AddGlobal(&ir.Global{Name: "fired_at", Typ: ir.I32})
		_ = fired
		mb := ir.NewFunc(m, "main", "a.c", ir.I32)
		loop := mb.NewBlock("loop")
		done := mb.NewBlock("done")
		i := mb.Alloca(ir.I32)
		mb.Store(ir.I32, i, ir.CI(0))
		mb.Br(loop)
		mb.SetBlock(loop)
		iv := mb.Load(ir.I32, i)
		// A long pure run: eight chained operations.
		a := mb.Add(iv, ir.CI(3))
		b := mb.Mul(a, ir.CI(5))
		c := mb.Xor(b, ir.CI(0x55))
		d := mb.Shl(c, ir.CI(1))
		e := mb.Shr(d, ir.CI(2))
		f := mb.Or(e, ir.CI(1))
		h := mb.And(f, ir.CI(0xFFFF))
		k := mb.Sub(h, ir.CI(1))
		mb.Store(ir.I32, g, k)
		nx := mb.Add(iv, ir.CI(1))
		mb.Store(ir.I32, i, nx)
		mb.CondBr(mb.Lt(nx, ir.CI(6)), loop, done)
		mb.SetBlock(done)
		mb.Ret(mb.Load(ir.I32, g))
		return m
	}

	for at := uint64(0); at < 90; at += 7 {
		at := at
		m := mkMod()
		fireAddr := mach.SRAMBase + uint32(4) // the fired_at global slot
		prep := func(mm *mach.Machine) {
			mm.Arm(&mach.Injection{At: at, Fire: func(mm *mach.Machine) error {
				// Record the architected instruction count at fire time.
				mm.Bus.RawStore(fireAddr, 4, uint32(mm.InstrCount))
				return nil
			}})
		}
		diffRun(t, m, "main", prep)
	}
}

// TestXlatCertificateVariants installs a certificate row, checks the
// fused variant reports the same elision counters as the interpreter,
// then clears and reinstates the row to prove the variant cache re-keys
// (never serving a stale fused path), including under paranoid mode.
func TestXlatCertificateVariants(t *testing.T) {
	mkMod := func() *ir.Module {
		m := ir.NewModule("certs")
		g := m.AddGlobal(&ir.Global{Name: "g", Typ: ir.I32})
		fb := ir.NewFunc(m, "bump", "a.c", ir.I32)
		loop := fb.NewBlock("loop")
		done := fb.NewBlock("done")
		i := fb.Alloca(ir.I32)
		fb.Store(ir.I32, i, ir.CI(0))
		fb.Br(loop)
		fb.SetBlock(loop)
		v := fb.Load(ir.I32, g)
		fb.Store(ir.I32, g, fb.Add(v, ir.CI(2)))
		iv := fb.Load(ir.I32, i)
		nx := fb.Add(iv, ir.CI(1))
		fb.Store(ir.I32, i, nx)
		fb.CondBr(fb.Lt(nx, ir.CI(10)), loop, done)
		fb.SetBlock(done)
		fb.Ret(fb.Load(ir.I32, g))
		return m
	}

	// Build a full-coverage certificate row for "bump": every load and
	// store certified. The test harness runs unprivileged so the fused
	// path is actually taken (machine-level: the MPU is off, so elision
	// is trivially sound here; the exactness claim is about counters
	// and values, soundness is absint's job).
	certRow := func(m *ir.Module) [][]byte {
		fn := m.MustFunc("bump")
		row := make([]byte, fn.NumRegs())
		fn.Instructions(func(_ *ir.Block, in *ir.Instr) {
			switch in.Op {
			case ir.OpLoad:
				row[in.ID()] |= mach.CertLoad
			case ir.OpStore:
				row[in.ID()] |= mach.CertStore
			}
		})
		certs := make([][]byte, fn.Index()+1)
		certs[fn.Index()] = row
		return certs
	}

	m := mkMod()
	prep := func(mm *mach.Machine) {
		mm.InstallProofs(certRow(mm.Mod))
		mm.Privileged = false
	}
	o := diffRun(t, m, "bump", prep)
	if !strings.Contains(o.counters, "mach.proofs.elided") {
		t.Fatalf("no elision counter in %q", o.counters)
	}

	// Same machine, same engine: certified -> cleared -> reinstated.
	// Each InstallProofs must re-key to the matching variant; the
	// cleared phase must elide nothing.
	m2 := mkMod()
	mm := newMachine(t, m2)
	mm.SetBackend(xlat.New())
	mm.Privileged = false
	certs := certRow(m2)

	elided := func() uint64 {
		for _, c := range mm.Counters() {
			if c.Name == "mach.proofs.elided" {
				return c.Value
			}
		}
		return 0
	}

	mm.InstallProofs(certs)
	if _, err := mm.Run(m2.MustFunc("bump")); err != nil {
		t.Fatal(err)
	}
	afterCertified := elided()
	if afterCertified == 0 {
		t.Fatal("certified run elided nothing")
	}

	mm.InstallProofs(nil) // the campaign Arm hook's clearing step
	mm.Halted = false
	if _, err := mm.Run(m2.MustFunc("bump")); err != nil {
		t.Fatal(err)
	}
	if got := elided(); got != afterCertified {
		t.Errorf("cleared certificates still elide: %d -> %d", afterCertified, got)
	}

	mm.InstallProofs(certs) // restore reinstates the same rows
	mm.Halted = false
	if _, err := mm.Run(m2.MustFunc("bump")); err != nil {
		t.Fatal(err)
	}
	if got := elided(); got <= afterCertified {
		t.Errorf("reinstated certificates elide nothing: %d -> %d", afterCertified, got)
	}
}

// TestXlatTraceExactness compares full event streams under tracing.
func TestXlatTraceExactness(t *testing.T) {
	m := ir.NewModule("traced")
	g := m.AddGlobal(&ir.Global{Name: "g", Typ: ir.I32})
	helper := ir.NewFunc(m, "helper", "a.c", ir.I32, ir.P("x", ir.I32))
	helper.Ret(helper.Add(helper.Arg("x"), ir.CI(1)))
	mb := ir.NewFunc(m, "main", "a.c", ir.I32)
	v := mb.Call(helper.F, ir.CI(41))
	mb.Store(ir.I32, g, v)
	mb.Ret(v)

	render := func(xl bool) string {
		mm := newMachine(t, m)
		if xl {
			mm.SetBackend(xlat.New())
		}
		buf := trace.NewBuffer(4096)
		mm.AttachTrace(buf)
		if _, err := mm.Run(m.MustFunc("main")); err != nil {
			t.Fatal(err)
		}
		return buf.RenderText()
	}
	ti, tx := render(false), render(true)
	if ti != tx {
		t.Errorf("trace streams diverge:\ninterp:\n%s\nxlat:\n%s", ti, tx)
	}
}

// BenchmarkBackendDispatch is the interp-vs-xlat A/B on a
// dispatch-bound workload (the same loop shape as the mach package's
// BenchmarkStepDispatch): instr_ns is seconds per simulated
// instruction, the quantity the BENCH_mach speedup gate is about.
func BenchmarkBackendDispatch(b *testing.B) {
	mkMod := func() *ir.Module {
		m := ir.NewModule("dispatch")
		g := m.AddGlobal(&ir.Global{Name: "g", Typ: ir.I32})
		fb := ir.NewFunc(m, "spin", "b.c", ir.I32, ir.P("n", ir.I32))
		loop := fb.NewBlock("loop")
		done := fb.NewBlock("done")
		iSlot := fb.Alloca(ir.I32)
		fb.Store(ir.I32, iSlot, ir.CI(0))
		fb.Br(loop)
		fb.SetBlock(loop)
		iv := fb.Load(ir.I32, iSlot)
		a := fb.Add(iv, ir.CI(3))
		c := fb.Xor(fb.Mul(a, ir.CI(5)), ir.CI(0x55))
		e := fb.Or(fb.Shr(c, ir.CI(2)), ir.CI(1))
		fb.Store(ir.I32, g, e)
		w := fb.Load(ir.I32, g)
		nx := fb.Add(iv, fb.And(w, ir.CI(1)))
		fb.Store(ir.I32, iSlot, nx)
		fb.CondBr(fb.Lt(nx, fb.Arg("n")), loop, done)
		fb.SetBlock(done)
		fb.Ret(fb.Load(ir.I32, g))
		return m
	}
	for _, backend := range []string{"interp", "xlat"} {
		b.Run(backend, func(b *testing.B) {
			m := mkMod()
			mm := newMachine(b, m)
			mm.MaxCycles = 1 << 62
			if backend == "xlat" {
				mm.SetBackend(xlat.New())
			}
			fn := m.MustFunc("spin")
			const iters = 10_000
			if _, err := mm.Run(fn, iters); err != nil {
				b.Fatal(err)
			}
			start := mm.InstrCount
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mm.Run(fn, iters); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			instr := float64(mm.InstrCount-start) / float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/instr, "instr_ns")
		})
	}
}
