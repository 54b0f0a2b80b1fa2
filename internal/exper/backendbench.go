package exper

import (
	"time"

	"opec/internal/apps"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/run"
)

// This file produces the execution-backend section of BENCH_mach.json
// (schema v6): a translation-vs-interpreter A/B. The headline number is
// measured on a dispatch-bound workload — long unrolled pure-ALU blocks
// with independent lanes, the instruction mix the threaded-code engine
// exists to accelerate — because on the paper's application workloads
// the two backends are within noise of each other: what remains of
// those runs once both engines fast-forward device polls is calls,
// adjudicated memory traffic and gate round-trips, architected effects
// both engines route through the same machine primitives (DESIGN.md
// §12 and §15). The per-app rows record exactly that, along with the
// cycle-identity bit the differential suite enforces.

// BackendSpeedupFloor is the validation gate on the dispatch-bound
// sweep: the translation engine must beat the interpreter by at least
// this factor. The committed baseline measures ~4.5-5×; the floor
// leaves margin for slower CI hosts.
const BackendSpeedupFloor = 2.5

// BenchBackendApp is one application workload's backend A/B under the
// OPEC scheme: one timed fresh run per backend.
type BenchBackendApp struct {
	App           string  `json:"app"`
	InterpSimMIPS float64 `json:"interp_sim_mips"`
	XlatSimMIPS   float64 `json:"xlat_sim_mips"`
	Speedup       float64 `json:"speedup"`
	// CyclesEqual records the exactness invariant: both backends
	// finished the workload at the same absolute cycle count.
	CyclesEqual bool `json:"cycles_equal"`
}

// BenchBackend is the execution-backend section (schema v6).
type BenchBackend struct {
	// Dispatch* is the dispatch-bound sweep: simulated instructions,
	// per-backend throughput (best of three timed runs each), and the
	// headline speedup gated by BackendSpeedupFloor.
	DispatchInstrs        uint64  `json:"dispatch_instrs"`
	DispatchInterpSimMIPS float64 `json:"dispatch_interp_sim_mips"`
	DispatchXlatSimMIPS   float64 `json:"dispatch_xlat_sim_mips"`
	DispatchSpeedup       float64 `json:"dispatch_speedup"`
	// Apps is the per-workload A/B at the report's scale.
	Apps []BenchBackendApp `json:"apps"`
}

// dispatchIters sizes the dispatch workload: ~64 simulated
// instructions per iteration keeps the timed region in the tens of
// milliseconds on the interpreter.
const dispatchIters = 50_000

// dispatchModule builds the dispatch-bound workload: a counted loop
// over 60 unrolled pure ALU operations in four independent lanes, so
// both the translated micro-op loop and the host core can overlap
// work — peak dispatch throughput, no memory traffic to dilute it
// beyond the loop-carried counter.
func dispatchModule() *ir.Module {
	m := ir.NewModule("dispatch")
	fb := ir.NewFunc(m, "main", "main.c", nil)
	loop := fb.NewBlock("loop")
	done := fb.NewBlock("done")
	iSlot := fb.Alloca(ir.I32)
	fb.Store(ir.I32, iSlot, ir.CI(0))
	fb.Br(loop)
	fb.SetBlock(loop)
	iv := fb.Load(ir.I32, iSlot)
	lanes := [4]*ir.Instr{iv, iv, iv, iv}
	for k := 0; k < 60; k++ {
		src := lanes[k%4]
		var r *ir.Instr
		switch k % 5 {
		case 0:
			r = fb.Add(src, ir.CI(uint32(k+3)))
		case 1:
			r = fb.Mul(src, ir.CI(5))
		case 2:
			r = fb.Xor(src, iv)
		case 3:
			r = fb.Shr(src, ir.CI(3))
		case 4:
			r = fb.Or(src, ir.CI(1))
		}
		lanes[k%4] = r
	}
	fold := fb.Xor(fb.Xor(lanes[0], lanes[1]), fb.Xor(lanes[2], lanes[3]))
	nx := fb.Add(iv, fb.Add(fb.And(fold, ir.CI(0)), ir.CI(1)))
	fb.Store(ir.I32, iSlot, nx)
	fb.CondBr(fb.Lt(nx, ir.CI(dispatchIters)), loop, done)
	fb.SetBlock(done)
	fb.Halt()
	fb.RetVoid()
	return m
}

// timeDispatch runs the dispatch workload on one backend and returns
// the best throughput of three fresh timed runs (fresh machine each
// time, so the translation cost is inside the measurement).
func timeDispatch(backend string) (instrs uint64, simMIPS float64, err error) {
	for rep := 0; rep < 3; rep++ {
		inst := &apps.Instance{
			Mod:       dispatchModule(),
			Board:     mach.STM32F4Discovery(),
			Clk:       &mach.Clock{},
			MaxCycles: 200_000_000,
		}
		start := time.Now()
		res, rerr := run.VanillaWith(inst, run.Options{Backend: backend})
		wall := time.Since(start).Seconds()
		if rerr != nil {
			return 0, 0, rerr
		}
		instrs = res.Machine.InstrCount
		if wall > 0 {
			if mips := float64(instrs) / wall / 1e6; mips > simMIPS {
				simMIPS = mips
			}
		}
	}
	return instrs, simMIPS, nil
}

// measureBackend collects the execution-backend section at scale s.
func measureBackend(s AppSet) (*BenchBackend, error) {
	bb := &BenchBackend{}
	instrs, interpMIPS, err := timeDispatch(run.BackendInterp)
	if err != nil {
		return nil, err
	}
	_, xlatMIPS, err := timeDispatch(run.BackendXlat)
	if err != nil {
		return nil, err
	}
	bb.DispatchInstrs = instrs
	bb.DispatchInterpSimMIPS = interpMIPS
	bb.DispatchXlatSimMIPS = xlatMIPS
	if interpMIPS > 0 {
		bb.DispatchSpeedup = xlatMIPS / interpMIPS
	}

	saved := run.DefaultBackend
	defer func() { run.DefaultBackend = saved }()
	for _, app := range AppsFor(s) {
		row := BenchBackendApp{App: app.Name}
		run.DefaultBackend = run.BackendInterp
		wi, err := benchOne(app.Name, "opec", func() (*run.Result, error) { return run.OPEC(app.New()) })
		if err != nil {
			return nil, err
		}
		run.DefaultBackend = run.BackendXlat
		wx, err := benchOne(app.Name, "opec", func() (*run.Result, error) { return run.OPEC(app.New()) })
		if err != nil {
			return nil, err
		}
		row.InterpSimMIPS, row.XlatSimMIPS = wi.SimMIPS, wx.SimMIPS
		row.CyclesEqual = wi.Cycles == wx.Cycles && wi.Instrs == wx.Instrs
		if wi.SimMIPS > 0 {
			row.Speedup = wx.SimMIPS / wi.SimMIPS
		}
		bb.Apps = append(bb.Apps, row)
	}
	return bb, nil
}
