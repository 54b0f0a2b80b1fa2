package mach

import (
	"math"
	"testing"

	"opec/internal/ir"
)

// benchModule is a dispatch-bound workload: a counting loop whose body
// mixes ALU chains, loads, stores and address arithmetic — the
// instruction profile the interpreter's step switch sees in the
// evaluation workloads, with no call or device traffic to dilute it.
func benchModule() *ir.Module {
	m := ir.NewModule("dispatch")
	m.AddGlobal(&ir.Global{Name: "g", Typ: ir.I32})
	g := m.Global("g")
	fb := ir.NewFunc(m, "spin", "b.c", ir.I32, ir.P("n", ir.I32))
	loop := fb.NewBlock("loop")
	done := fb.NewBlock("done")
	iSlot := fb.Alloca(ir.I32)
	fb.Store(ir.I32, iSlot, ir.CI(0))
	fb.Br(loop)
	fb.SetBlock(loop)
	iv := fb.Load(ir.I32, iSlot)
	a := fb.Add(iv, ir.CI(3))
	b := fb.Mul(a, ir.CI(5))
	c := fb.Xor(b, ir.CI(0x55))
	d := fb.Shr(c, ir.CI(2))
	e := fb.Or(d, ir.CI(1))
	fb.Store(ir.I32, g, e)
	w := fb.Load(ir.I32, g)
	nx := fb.Add(iv, fb.And(w, ir.CI(1)))
	fb.Store(ir.I32, iSlot, nx)
	fb.CondBr(fb.Lt(nx, fb.Arg("n")), loop, done)
	fb.SetBlock(done)
	fb.Ret(fb.Load(ir.I32, g))
	return m
}

func benchMachine(b *testing.B, m *ir.Module) *Machine {
	b.Helper()
	if err := ir.Verify(m); err != nil {
		b.Fatalf("verify: %v", err)
	}
	bus := newTestBus()
	mm := NewMachine(m, bus, FlashBase)
	addrs := make(map[*ir.Global]uint32)
	next := SRAMBase
	for _, g := range m.Globals {
		addrs[g] = next
		next += uint32((g.Size() + 3) &^ 3)
	}
	mm.GlobalAddr = func(g *ir.Global, _ bool) (uint32, *Fault) { return addrs[g], nil }
	mm.StackTop = SRAMBase + uint32(bus.SRAMSize())
	mm.StackLimit = mm.StackTop - 32<<10
	mm.Privileged = true
	mm.MaxCycles = math.MaxUint64
	return mm
}

// BenchmarkStepDispatch measures the interpreter's per-instruction
// dispatch cost; the reported instr_ns metric is the simulator's
// seconds-per-simulated-instruction, the quantity a dispatch
// optimisation (superinstructions, fused terminators) must lower.
func BenchmarkStepDispatch(b *testing.B) {
	m := benchModule()
	mm := benchMachine(b, m)
	fn := m.MustFunc("spin")
	const iters = 10_000
	if _, err := mm.Run(fn, iters); err != nil { // warm caches, fault early
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
	b.ReportMetric(instr, "instr/op")
}
