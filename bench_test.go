package opec

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation (Section 6), per-workload run benchmarks
// for the three build flavours, and ablation benchmarks for the design
// choices DESIGN.md calls out. Custom metrics surface the evaluation
// numbers themselves (overhead percentages, switch counts, PT/ET),
// so `go test -bench=. -benchmem` regenerates the paper's data.

import (
	"testing"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/dev"
	"opec/internal/exper"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/metrics"
	"opec/internal/monitor"
	"opec/internal/run"
	"opec/internal/trace"
)

// benchApps is the experiment harness's reduced-size workload set.
func benchApps() []*apps.App {
	return exper.AppsFor(exper.Quick)
}

// ---- Tables and figures ----

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table1(exper.Quick)
		if err != nil {
			b.Fatal(err)
		}
		avg := rows[len(rows)-1]
		b.ReportMetric(float64(avg.Ops), "ops")
		b.ReportMetric(avg.PriCodePct, "priCode%")
		b.ReportMetric(avg.AvgGVarsPct, "gvars%")
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Figure9(exper.Quick)
		if err != nil {
			b.Fatal(err)
		}
		avg := rows[len(rows)-1]
		b.ReportMetric(avg.RuntimePct, "runtime%")
		b.ReportMetric(avg.FlashPct, "flash%")
		b.ReportMetric(avg.SRAMPct, "sram%")
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table2(exper.Quick)
		if err != nil {
			b.Fatal(err)
		}
		var opecRO, acesRO float64
		var nOpec, nAces int
		for _, r := range rows {
			if r.Policy == "OPEC" {
				opecRO += r.RO
				nOpec++
			} else {
				acesRO += r.RO
				nAces++
			}
		}
		b.ReportMetric(opecRO/float64(nOpec), "opecRO")
		b.ReportMetric(acesRO/float64(nAces), "acesRO")
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := exper.Figure10(exper.Quick)
		if err != nil {
			b.Fatal(err)
		}
		// Aggregate over-privilege mass: mean PT across all ACES
		// compartments (OPEC's is zero by construction).
		sum, n := 0.0, 0
		for _, s := range series {
			if s.Strategy == "OPEC" {
				continue
			}
			for _, pt := range s.PTs {
				sum += pt
				n++
			}
		}
		b.ReportMetric(sum/float64(n), "acesMeanPT")
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := exper.Figure11(exper.Quick)
		if err != nil {
			b.Fatal(err)
		}
		agg := map[string][2]float64{}
		for _, s := range series {
			cur := agg[s.Strategy]
			for _, et := range s.ET {
				cur[0] += et
				cur[1]++
			}
			agg[s.Strategy] = cur
		}
		if v := agg["OPEC"]; v[1] > 0 {
			b.ReportMetric(v[0]/v[1], "opecMeanET")
		}
		if v := agg["ACES2"]; v[1] > 0 {
			b.ReportMetric(v[0]/v[1], "aces2MeanET")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table3(exper.Quick)
		if err != nil {
			b.Fatal(err)
		}
		icalls, svf := 0, 0
		for _, r := range rows {
			icalls += r.ICalls
			svf += r.SVF
		}
		b.ReportMetric(float64(icalls), "icalls")
		b.ReportMetric(float64(svf), "svfResolved")
	}
}

// ---- Harness sweep benchmarks ----

// sweep runs all six experiments on one harness, touching the results
// so nothing is optimized away.
func sweep(b *testing.B, h *exper.Harness) {
	b.Helper()
	if _, err := h.Table1(exper.Quick); err != nil {
		b.Fatal(err)
	}
	if _, err := h.Figure9(exper.Quick); err != nil {
		b.Fatal(err)
	}
	if _, err := h.Table2(exper.Quick); err != nil {
		b.Fatal(err)
	}
	if _, err := h.Figure10(exper.Quick); err != nil {
		b.Fatal(err)
	}
	if _, err := h.Figure11(exper.Quick); err != nil {
		b.Fatal(err)
	}
	if _, err := h.Table3(exper.Quick); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHarnessSerialUncached approximates the seed harness: every
// experiment gets its own cache (no cross-experiment reuse) and a
// single worker — the redundant-recompilation baseline the shared
// cache eliminates.
func BenchmarkHarnessSerialUncached(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, f := range []func(exper.AppSet) error{
			func(s exper.AppSet) error { _, err := exper.NewHarness(1).Table1(s); return err },
			func(s exper.AppSet) error { _, err := exper.NewHarness(1).Figure9(s); return err },
			func(s exper.AppSet) error { _, err := exper.NewHarness(1).Table2(s); return err },
			func(s exper.AppSet) error { _, err := exper.NewHarness(1).Figure10(s); return err },
			func(s exper.AppSet) error { _, err := exper.NewHarness(1).Figure11(s); return err },
			func(s exper.AppSet) error { _, err := exper.NewHarness(1).Table3(s); return err },
		} {
			if err := f(exper.Quick); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHarnessSerialCached shares one cache across the sweep but
// keeps a single worker — isolates the memoization win.
func BenchmarkHarnessSerialCached(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := exper.NewHarness(1)
		sweep(b, h)
		b.ReportMetric(float64(h.Cache.Misses()), "compiles")
	}
}

// BenchmarkHarnessParallel is the full pipeline: shared cache plus the
// GOMAXPROCS worker pool — the `opec-bench -exp all` configuration.
func BenchmarkHarnessParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := exper.NewHarness(0)
		sweep(b, h)
		b.ReportMetric(float64(h.Cache.Misses()), "compiles")
	}
}

// ---- Trace-path benchmarks ----

// BenchmarkTraceDisabled is BenchmarkHarnessSerialCached's twin, named
// for what it measures now that every simulator and monitor hot path
// carries nil-guarded emit sites: the full sweep with tracing off. The
// zero-cost-when-disabled contract is that this stays within noise of
// the committed BenchmarkHarnessSerialCached baseline.
func BenchmarkTraceDisabled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := exper.NewHarness(1)
		sweep(b, h)
	}
}

// BenchmarkTraceEmit measures the event path itself: the disabled
// (nil-buffer) emit that every untraced run pays at each site, and the
// enabled ring insertion for comparison. The disabled path must report
// 0 allocs/op.
func BenchmarkTraceEmit(b *testing.B) {
	ev := trace.Event{Cycle: 1, Kind: trace.EvIRQ, Op: -1}
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		var buf *trace.Buffer
		for i := 0; i < b.N; i++ {
			buf.Emit(ev)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		buf := trace.NewBuffer(1 << 12)
		for i := 0; i < b.N; i++ {
			buf.Emit(ev)
		}
	})
}

// BenchmarkTracedRunOPEC is BenchmarkRunOPEC/PinLock with the event
// bus attached — the cost of tracing when it is on.
func BenchmarkTracedRunOPEC(b *testing.B) {
	app := apps.PinLockN(5)
	for i := 0; i < b.N; i++ {
		inst := app.New()
		bld, err := CompileOPEC(inst)
		if err != nil {
			b.Fatal(err)
		}
		buf := trace.NewBuffer(0)
		res, err := run.OPECWith(inst, bld, run.Options{Trace: buf})
		if err != nil {
			b.Fatal(err)
		}
		if err := run.AndCheck(inst, res); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(buf.Emitted()), "events")
	}
}

// ---- Per-workload run benchmarks ----

func benchRun(b *testing.B, app *apps.App, f func(*apps.Instance) (*run.Result, error)) {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		inst := app.New()
		res, err := f(inst)
		if err != nil {
			b.Fatal(err)
		}
		if err := run.AndCheck(inst, res); err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "simCycles")
}

func BenchmarkRunVanilla(b *testing.B) {
	for _, app := range benchApps() {
		b.Run(app.Name, func(b *testing.B) { benchRun(b, app, run.Vanilla) })
	}
}

func BenchmarkRunOPEC(b *testing.B) {
	for _, app := range benchApps() {
		b.Run(app.Name, func(b *testing.B) { benchRun(b, app, run.OPEC) })
	}
}

func BenchmarkRunACES2(b *testing.B) {
	for _, app := range benchApps() {
		b.Run(app.Name, func(b *testing.B) {
			benchRun(b, app, func(i *apps.Instance) (*run.Result, error) {
				return run.ACES(i, aces.FilenameNoOpt)
			})
		})
	}
}

// ---- Compiler benchmarks ----

func BenchmarkCompileOPEC(b *testing.B) {
	for _, app := range benchApps() {
		b.Run(app.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inst := app.New()
				if _, err := CompileOPEC(inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablations (DESIGN.md Section 4) ----

// Ablation 1: global-data shadowing — what one operation switch costs
// in synchronization work. Reported as synced words and cycles per
// switch on the FatFs-uSD workload (large shared structures).
func BenchmarkAblation_Shadowing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inst := apps.FatFsUSD().New()
		res, err := run.OPEC(inst)
		if err != nil {
			b.Fatal(err)
		}
		s := res.Mon.Stats
		b.ReportMetric(float64(s.WordsSynced)/float64(s.Switches), "words/switch")
		b.ReportMetric(float64(s.Switches), "switches")
	}
}

// Ablation 2: operation vs code-module partitioning — domain switches
// per run on the same workload. OPEC switches at task boundaries;
// ACES2 switches at every cross-file call.
func BenchmarkAblation_SwitchCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		io := apps.PinLockN(5).New()
		ro, err := run.OPEC(io)
		if err != nil {
			b.Fatal(err)
		}
		ia := apps.PinLockN(5).New()
		ra, err := run.ACES(ia, aces.FilenameNoOpt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(ro.Mon.Stats.Switches), "opecSwitches")
		b.ReportMetric(float64(ra.ACES.Switches), "acesSwitches")
	}
}

// Ablation 3: MPU virtualization — fault-driven peripheral remaps. The
// seven evaluation workloads fit the four reserved regions after
// adjacent-range merging (so their remap count is zero, itself a
// result); this ablation uses a synthetic operation touching six
// scattered peripheral blocks in two rounds, forcing round-robin
// eviction and remapping.
func BenchmarkAblation_MPUVirt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := ir.NewModule("periph6")
		bases := []uint32{
			mach.USART1Base, mach.USART2Base, mach.SDIOBase,
			mach.GPIOABase, mach.CRCBase, mach.TIM2Base,
		}
		task := ir.NewFunc(m, "io_task", "t.c", nil)
		for round := 0; round < 2; round++ {
			for _, base := range bases {
				task.Store(ir.I32, ir.CI(base+0x10), ir.CI(uint32(round)))
			}
		}
		task.RetVoid()
		mb := ir.NewFunc(m, "main", "t.c", nil)
		mb.Call(task.F)
		mb.Halt()
		mb.RetVoid()

		bld, err := core.Compile(m, mach.STM32F4Discovery(), core.Config{Entries: []string{"io_task"}})
		if err != nil {
			b.Fatal(err)
		}
		bus := mach.NewBus(bld.Board.FlashSize, bld.Board.SRAMSize, &mach.Clock{})
		for _, base := range bases {
			if err := bus.Attach(&dev.Regs{DevName: "dev", BaseAddr: base}); err != nil {
				b.Fatal(err)
			}
		}
		mon, err := monitor.Boot(bld, bus)
		if err != nil {
			b.Fatal(err)
		}
		mon.M.MaxCycles = 10_000_000
		if err := mon.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(mon.Stats.PeriphRemaps), "periphRemaps")
		b.ReportMetric(float64(bus.MPU.Reconfigs()), "mpuWrites")
	}
}

// Ablation 4: PPB load/store emulation vs privileged lifting — how
// many emulations keep the application unprivileged where ACES lifts
// whole compartments.
func BenchmarkAblation_PPBEmulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inst := apps.CoreMarkN(2).New()
		res, err := run.OPEC(inst)
		if err != nil {
			b.Fatal(err)
		}
		ia := apps.CoreMarkN(2).New()
		ab, err := CompileACES(ia, ACES2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Mon.Stats.Emulations), "opecEmulations")
		b.ReportMetric(float64(ab.PrivilegedCodeBytes()), "acesPrivBytes")
	}
}

// Ablation 5: the points-to solve itself (Table 3's Time column).
func BenchmarkPointsToSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inst := apps.TCPEchoN(1, 1).New()
		bb, err := CompileOPEC(inst)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(bb.Analysis.PTS.Iterations), "solveIters")
	}
}

// Ablation 6: MPU vs RISC-V PMP backend — same workload, same policy,
// both protection units (Section 7 portability).
func BenchmarkAblation_MPUvsPMP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		im := apps.PinLockN(5).New()
		rm, err := run.OPEC(im)
		if err != nil {
			b.Fatal(err)
		}
		ip := apps.PinLockN(5).New()
		rp, err := run.OPECPMP(ip)
		if err != nil {
			b.Fatal(err)
		}
		if err := run.AndCheck(ip, rp); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rm.Cycles), "mpuCycles")
		b.ReportMetric(float64(rp.Cycles), "pmpCycles")
	}
}

// ---- Metric microbenchmarks ----

func BenchmarkTraceTasks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inst := apps.PinLockN(2).New()
		if _, err := metrics.TraceTasks(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Simulator hot-path microbenchmarks ----

// BenchmarkMPUAllows measures the per-access cost of MPU adjudication:
// repeated hits on one block (micro-TLB steady state), a spread over
// many blocks, and the uncached architectural scan for comparison.
func BenchmarkMPUAllows(b *testing.B) {
	setup := func(noCache bool) *mach.MPU {
		var m mach.MPU
		m.NoCache = noCache
		m.SetEnabled(true)
		m.MustSetRegion(0, mach.Region{Enabled: true, Base: mach.SRAMBase, SizeLog2: 18, Perm: mach.APRW})
		m.MustSetRegion(7, mach.Region{Enabled: true, Base: mach.SRAMBase, SizeLog2: 10, Perm: mach.APPrivRW, SRD: 0xAA})
		return &m
	}
	b.Run("hit", func(b *testing.B) {
		m := setup(false)
		for i := 0; i < b.N; i++ {
			m.Allows(mach.SRAMBase+0x40, false, false)
		}
	})
	b.Run("spread", func(b *testing.B) {
		m := setup(false)
		for i := 0; i < b.N; i++ {
			m.Allows(mach.SRAMBase+uint32(i%(1<<15)), false, false)
		}
	})
	b.Run("notlb", func(b *testing.B) {
		m := setup(true)
		for i := 0; i < b.N; i++ {
			m.Allows(mach.SRAMBase+0x40, false, false)
		}
	})
}

// BenchmarkBusLoad measures the one-pass bus resolution: SRAM words and
// the peripheral polling pattern the last-device cache targets.
func BenchmarkBusLoad(b *testing.B) {
	newBenchBus := func() *mach.Bus {
		bus := mach.NewBus(1<<20, 192<<10, &mach.Clock{})
		if err := bus.Attach(&dev.Regs{DevName: "uart", BaseAddr: mach.USART2Base}); err != nil {
			b.Fatal(err)
		}
		return bus
	}
	b.Run("sram", func(b *testing.B) {
		bus := newBenchBus()
		for i := 0; i < b.N; i++ {
			if _, f := bus.Load(mach.SRAMBase+uint32(i&0xFFC), 4, true); f != nil {
				b.Fatal(f)
			}
		}
	})
	b.Run("device-poll", func(b *testing.B) {
		bus := newBenchBus()
		for i := 0; i < b.N; i++ {
			if _, f := bus.Load(mach.USART2Base+0x00, 4, true); f != nil {
				b.Fatal(f)
			}
		}
	})
}

// BenchmarkCallDispatch measures steady-state call overhead (pooled
// frames, precomputed metadata): a tight caller/callee ping-pong.
func BenchmarkCallDispatch(b *testing.B) {
	m := ir.NewModule("calls")
	leaf := ir.NewFunc(m, "leaf", "a.c", ir.I32, ir.P("x", ir.I32))
	leaf.Ret(leaf.Add(leaf.Arg("x"), ir.CI(1)))
	drv := ir.NewFunc(m, "drv", "a.c", ir.I32, ir.P("n", ir.I32))
	loop := drv.NewBlock("loop")
	done := drv.NewBlock("done")
	acc := drv.Alloca(ir.I32)
	drv.Store(ir.I32, acc, ir.CI(0))
	drv.Br(loop)
	drv.SetBlock(loop)
	v := drv.Call(m.MustFunc("leaf"), drv.Load(ir.I32, acc))
	drv.Store(ir.I32, acc, v)
	drv.CondBr(drv.Lt(v, drv.Arg("n")), loop, done)
	drv.SetBlock(done)
	drv.Ret(drv.Load(ir.I32, acc))
	if err := ir.Verify(m); err != nil {
		b.Fatal(err)
	}

	const callsPerRun = 10_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus := mach.NewBus(1<<20, 192<<10, &mach.Clock{})
		mm := mach.NewMachine(m, bus, mach.FlashBase)
		mm.StackTop = mach.SRAMBase + uint32(bus.SRAMSize())
		mm.StackLimit = mm.StackTop - (32 << 10)
		mm.Privileged = true
		mm.MaxCycles = 1 << 40
		got, err := mm.Run(m.MustFunc("drv"), callsPerRun)
		if err != nil {
			b.Fatal(err)
		}
		if got != callsPerRun {
			b.Fatalf("dispatch result = %d", got)
		}
	}
	b.ReportMetric(callsPerRun, "calls/op")
}

// BenchmarkSimMIPS reports simulated instruction throughput per
// workload under the vanilla image; layerbench's mach.sim_mips.*
// metrics track the same figure over repeated passes.
func BenchmarkSimMIPS(b *testing.B) {
	for _, app := range benchApps() {
		b.Run(app.Name, func(b *testing.B) {
			var instrs uint64
			for i := 0; i < b.N; i++ {
				inst := app.New()
				res, err := run.Vanilla(inst)
				if err != nil {
					b.Fatal(err)
				}
				instrs += res.Machine.InstrCount
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(instrs)/secs/1e6, "MIPS")
			}
		})
	}
}
