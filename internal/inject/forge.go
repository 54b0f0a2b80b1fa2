package inject

import (
	"fmt"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/run"
	"opec/internal/trace"
)

// Forge is the trial engine. A Forge compiles and boots one (app,
// scheme) pair into a checkpointed run.Context, then runs every trial
// by forking the checkpoint instead of rebuilding from power-on — the
// expensive per-trial work (app construction, compilation, static proof
// search, boot-time memory initialization) is paid once per campaign
// row.
//
// Correctness contract: a power-on trial is a fresh forge running one
// trial (RunOPEC, RunACES), and a fork equals a power-on run by
// construction of run.Context, so any trial on a long-lived forge
// returns an Outcome byte-identical to its power-on run — verdict,
// error text, cycle count and recovery counters. cmd/opec-bench's
// differential mode asserts this over whole campaigns.
//
// The snapshot ID plus a spec string is a complete replay coordinate:
// `opec-run -replay '<id>@<spec>'` rebuilds the forge (compilation is
// deterministic), verifies the ID matches, and re-runs the single
// trial.
type Forge struct {
	App *apps.App

	ctx   *run.Context
	build *core.Build // OPEC forges
	acesB *aces.Build // ACES forges: injections resolve globals by its fixed layout
}

// NewForge compiles and boots app under OPEC and checkpoints it.
func NewForge(app *apps.App) (*Forge, error) {
	inst := app.New()
	b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
	if err != nil {
		return nil, fmt.Errorf("inject: compile %s: %w", app.Name, err)
	}
	ctx, err := run.BootOPEC(inst, b)
	if err != nil {
		return nil, fmt.Errorf("inject: boot %s: %w", app.Name, err)
	}
	return &Forge{App: app, ctx: ctx, build: b}, nil
}

// NewACESForge compiles and boots app under the ACES baseline with the
// given strategy and checkpoints it.
func NewACESForge(app *apps.App, strat aces.Strategy) (*Forge, error) {
	inst := app.New()
	b, err := aces.Compile(inst.Mod, inst.Board, strat)
	if err != nil {
		return nil, fmt.Errorf("inject: compile %s under %v: %w", app.Name, strat, err)
	}
	ctx, err := run.BootACES(inst, b)
	if err != nil {
		return nil, fmt.Errorf("inject: boot %s: %w", app.Name, err)
	}
	return &Forge{App: app, ctx: ctx, acesB: b}, nil
}

// SnapshotID identifies the checkpoint all trials fork from.
func (f *Forge) SnapshotID() string { return f.ctx.SnapshotID() }

// Reset rewinds to the checkpoint without running a trial — the
// fork-latency benchmark times this in isolation.
func (f *Forge) Reset() error { return f.ctx.Reset() }

// Build returns the compiled OPEC build, nil for an ACES forge.
func (f *Forge) Build() *core.Build { return f.build }

// Instance returns the booted workload instance. Trials fork from a
// checkpoint, so its device and memory state is the boot-time state —
// the fuzzing engine reads its seed corpus (the scripted frame queue)
// from here.
func (f *Forge) Instance() *apps.Instance { return f.ctx.Inst }

// Run executes one trial from the checkpoint. A maxCycles of 0 keeps
// the instance's own budget.
func (f *Forge) Run(spec Spec, pol monitor.Policy, maxCycles uint64) (Outcome, error) {
	return f.Trial(&spec, pol, maxCycles, nil, false, nil)
}

// TraceRun is Run with an event trace attached to the trial; with cov
// set the machine also emits per-block coverage events into it — the
// fuzzing engine's feedback channel.
func (f *Forge) TraceRun(spec Spec, pol monitor.Policy, maxCycles uint64, buf *trace.Buffer, cov bool) (Outcome, error) {
	return f.Trial(&spec, pol, maxCycles, buf, cov, nil)
}

// ObservedRun is TraceRun with a machine observer (see Trial).
func (f *Forge) ObservedRun(spec Spec, pol monitor.Policy, maxCycles uint64, buf *trace.Buffer, cov bool, observe func(*mach.Machine)) (Outcome, error) {
	return f.Trial(&spec, pol, maxCycles, buf, cov, observe)
}

// Trial forks one run from the checkpoint and classifies it. spec, when
// non-nil, is armed at its trigger; a nil spec runs the workload clean,
// with its proofs in place, and a clean outcome is classified as a
// trial whose fault fired and did nothing. pol is the recovery policy
// (OPEC only), maxCycles the budget (0 keeps the instance's own), buf
// the event trace (nil for none) and cov adds per-block coverage events
// to it. observe, when non-nil, receives the forked machine after the
// arming and before the run — the time-travel debugger binds its
// keyframe checkpointer and data watchpoints there, observation points
// that must attach after the restore that would otherwise clear them.
// The observer must not perturb architected state; trials stay
// byte-identical with and without one.
func (f *Forge) Trial(spec *Spec, pol monitor.Policy, maxCycles uint64, buf *trace.Buffer, cov bool, observe func(*mach.Machine)) (out Outcome, err error) {
	inst := f.ctx.Inst
	state := &fireState{fired: true}
	var inj *mach.Injection
	if spec != nil {
		out.Spec = *spec
		if f.acesB != nil && spec.Kind == BadGate {
			// ACES has no supervisor-call gate to attack.
			return out, nil
		}
		var fire func(*mach.Machine) error
		if fire, state, err = buildFire(*spec, inst, inst.Board, f.acesB); err != nil {
			return out, err
		}
		trigger := inst.Mod.Func(spec.Func)
		if trigger == nil {
			return out, fmt.Errorf("inject: %s: no trigger function %q", f.App.Name, spec.Func)
		}
		inj = &mach.Injection{Func: trigger, N: spec.N, Fire: fire}
	}

	defer func() {
		if r := recover(); r != nil {
			out.Verdict = CrashedMonitor
			out.Err = fmt.Sprintf("panic: %v", r)
			err = nil
		}
	}()
	res, runErr := f.ctx.Fork(run.Options{
		Policy:    pol,
		MaxCycles: maxCycles,
		Trace:     buf,
		Arm: func(m *mach.Machine) {
			if inj != nil {
				// Campaigns run fully adjudicated: an injected bit-flip
				// can steer a certified access outside its proven
				// interval, and real hardware checks every access
				// regardless of proofs. The restore that preceded this
				// call reinstated the boot-time certificate table;
				// clearing it here, after restore, is what keeps a later
				// in-trial restart from resurrecting elision for the
				// corrupted run.
				m.InstallProofs(nil)
				m.Arm(inj)
			}
			// The assignment (not a conditional set) matters: CovEvents is
			// host-side machine state the snapshot doesn't rewind, so a
			// coverage-traced trial must not leak the flag into the next
			// plain trial on the same forge.
			m.CovEvents = cov
			if observe != nil {
				observe(m)
			}
		},
	})
	var checkErr error
	if runErr == nil {
		checkErr = run.AndCheck(inst, res)
	}
	if res != nil {
		out.Cycles = res.Cycles
		if res.Mon != nil {
			out.Restarts = res.Mon.Stats.Restarts
			out.Quarantines = res.Mon.Stats.Quarantines
			out.RestartCycles = res.Mon.Stats.RestartCycles
			out.RejectNonEntry = res.Mon.Stats.GateRejectNonEntry
			out.RejectQuarantined = res.Mon.Stats.GateRejectQuarantined
		}
	}
	out.Verdict, out.Err = classify(state, out.Restarts+out.Quarantines, runErr, checkErr)
	return out, nil
}
