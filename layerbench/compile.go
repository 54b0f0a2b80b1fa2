package main

import (
	"fmt"
	"time"

	"opec"
	"opec/internal/analysis"
	"opec/internal/core"
	"opec/internal/ir"
	"opec/internal/run"
)

// compileProbe times the compiler's sub-phases on a fresh instance of
// app: ir.Verify, the points-to solve, the full analysis (which solves
// points-to again) and partitioning. core.Compile runs all of them and
// then lays out, instruments and certifies; the benchmark reports that
// remainder as core.layout_certify_ms.
func compileProbe(ph *phase, app *opec.App) error {
	r := ph.rec
	inst, _ := call(r, "apps.new", func() (*opec.Instance, error) { return app.New(), nil })
	if _, err := call(r, "ir.verify", func() (int, error) { return 0, ir.Verify(inst.Mod) }); err != nil {
		return fmt.Errorf("%s: verify: %w", app.Name, err)
	}
	pts, _ := call(r, "analysis.pointsto", func() (*analysis.PointsTo, error) {
		return analysis.SolvePointsTo(inst.Mod), nil
	})
	res, _ := call(r, "analysis.analyze", func() (*analysis.Result, error) {
		return analysis.Analyze(inst.Mod, inst.Board), nil
	})
	if _, err := call(r, "core.partition", func() ([]*core.Operation, error) { return core.Partition(res, inst.Cfg) }); err != nil {
		return fmt.Errorf("%s: partition: %w", app.Name, err)
	}
	ph.add("analysis.pointsto_iters", float64(pts.Iterations))
	ph.add("analysis.solves", 1)
	return nil
}

// compileOPEC builds a fresh instance of app and compiles it under
// OPEC, recording the proof engine's coverage.
func compileOPEC(ph *phase, app *opec.App) (*opec.Instance, *opec.Build, error) {
	inst, _ := call(ph.rec, "apps.new", func() (*opec.Instance, error) { return app.New(), nil })
	b, err := call(ph.rec, "core.compile", func() (*opec.Build, error) { return opec.CompileOPEC(inst) })
	if err != nil {
		return nil, nil, fmt.Errorf("compile: %w", err)
	}
	ph.add("absint.proven", float64(b.Proofs.Proven()))
	ph.add("absint.static", float64(b.Proofs.Static()))
	return inst, b, nil
}

// bootOPEC boots a compiled instance under the monitor.
func bootOPEC(ph *phase, inst *opec.Instance, b *opec.Build) (*run.OPECContext, error) {
	ctx, err := call(ph.rec, "monitor.boot", func() (*run.OPECContext, error) { return run.BootOPEC(inst, b) })
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	return ctx, nil
}

// bootACES builds a fresh instance of app, compiles it under an ACES
// strategy and boots it under the ACES runtime.
func bootACES(ph *phase, app *opec.App, s opec.Strategy) (*opec.Instance, *run.ACESContext, error) {
	inst, _ := call(ph.rec, "apps.new", func() (*opec.Instance, error) { return app.New(), nil })
	b, err := call(ph.rec, "aces.compile", func() (*opec.ACESBuild, error) { return opec.CompileACES(inst, s) })
	if err != nil {
		return nil, nil, fmt.Errorf("compile under %v: %w", s, err)
	}
	ctx, err := call(ph.rec, "aces.boot", func() (*run.ACESContext, error) { return run.BootACES(inst, b) })
	if err != nil {
		return nil, nil, fmt.Errorf("boot under %v: %w", s, err)
	}
	return inst, ctx, nil
}

// runSpan names each scheme's run phase: the interpreter alone
// (vanilla), under the monitor (OPEC) or under the ACES runtime.
var runSpan = map[string]string{"vanilla": "mach.run", "opec": "monitor.run", "aces": "aces.run"}

// execute runs a booted instance to completion, tallies the scheme's
// run phase and checks the instance's output.
func execute(ph *phase, scheme string, inst *opec.Instance, start func() (*opec.Result, error)) (*opec.Result, error) {
	t := time.Now()
	res, err := call(ph.rec, runSpan[scheme], start)
	d := time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	ph.tally(scheme, d, res.Machine.InstrCount)
	if _, err := call(ph.rec, "apps.check", func() (int, error) { return 0, opec.Check(inst, res) }); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	return res, nil
}

// cleanOPEC boots a compiled instance and runs it to completion once,
// checked: one pipeline of simulate, and the calibration run the other
// workloads derive their cycle budgets from.
func cleanOPEC(ph *phase, inst *opec.Instance, b *opec.Build) (*opec.Result, error) {
	ctx, err := bootOPEC(ph, inst, b)
	if err != nil {
		return nil, err
	}
	return execute(ph, "opec", inst, func() (*opec.Result, error) { return ctx.Fork(opec.RunOptions{}) })
}

// cleanACES is cleanOPEC under an ACES strategy, from a fresh instance.
func cleanACES(ph *phase, app *opec.App, s opec.Strategy) (*opec.Result, error) {
	inst, ctx, err := bootACES(ph, app, s)
	if err != nil {
		return nil, err
	}
	return execute(ph, "aces", inst, func() (*opec.Result, error) { return ctx.Fork(opec.RunOptions{}) })
}

// machCounters adds a finished run's simulator, monitor and ACES
// runtime counters to the phase.
func machCounters(ph *phase, res *opec.Result) {
	for _, c := range res.Machine.Counters() {
		ph.add(c.Name, float64(c.Value))
	}
	if res.Mon != nil {
		for _, c := range res.Mon.Stats.Counters() {
			ph.add(c.Name, float64(c.Value))
		}
	}
	if res.ACES != nil {
		for _, c := range res.ACES.Counters() {
			ph.add(c.Name, float64(c.Value))
		}
	}
}
