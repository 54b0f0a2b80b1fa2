package inject

import (
	"errors"
	"fmt"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/trace"
)

// Outcome is one finished trial.
type Outcome struct {
	Spec    Spec
	Verdict Verdict
	Err     string // the run error, when there was one
	// Cycles is the run's final cycle count (0 when the run panicked
	// before producing a result). Forked and power-on-booted trials of
	// the same spec report the same value — the determinism invariant
	// the differential mode checks.
	Cycles uint64
	// Recovery-policy activity observed during the trial (OPEC only).
	Restarts    uint64
	Quarantines uint64
	// RestartCycles is the total modeled cost of the restarts.
	RestartCycles uint64
	// Gate rejections by reason during the trial (OPEC only) — the
	// monitor's per-reason counters, surfaced per trial so campaigns can
	// aggregate which defense answered each probe.
	RejectNonEntry    uint64
	RejectQuarantined uint64
}

// RunOPEC executes one trial under OPEC with the given recovery policy
// from power-on: a fresh forge running one trial. A maxCycles of 0
// keeps the instance's own budget.
func RunOPEC(app *apps.App, spec Spec, pol monitor.Policy, maxCycles uint64) (Outcome, error) {
	return TraceOPEC(app, spec, pol, maxCycles, nil)
}

// TraceOPEC is RunOPEC with an event trace attached to the trial's run
// (nil buf behaves exactly like RunOPEC). The golden-trace exploit
// tests use it to assert the gate-fault-containment event sequence.
func TraceOPEC(app *apps.App, spec Spec, pol monitor.Policy, maxCycles uint64, buf *trace.Buffer) (Outcome, error) {
	f, err := NewForge(app)
	if err != nil {
		return Outcome{Spec: spec}, err
	}
	return f.TraceRun(spec, pol, maxCycles, buf, false)
}

// RunACES executes one trial under the ACES baseline with the given
// compartmentalization strategy from power-on. BadGate specs are
// reported Untriggered: ACES has no supervisor-call gate to attack.
func RunACES(app *apps.App, spec Spec, strat aces.Strategy, maxCycles uint64) (Outcome, error) {
	f, err := NewACESForge(app, strat)
	if err != nil {
		return Outcome{Spec: spec}, err
	}
	return f.Run(spec, monitor.Policy{}, maxCycles)
}

// fireState is what the Fire hook observed, read after the run for
// classification.
type fireState struct {
	fired  bool
	landed bool // the perturbation reached its victim unimpeded
}

// buildFire compiles a Spec into the machine hook that performs it. The
// aces build, when non-nil, resolves globals by their fixed ACES
// layout; under OPEC resolution goes through the machine (relocation
// table semantics, exactly like program code).
func buildFire(spec Spec, inst *apps.Instance, board *mach.Board, ab *aces.Build) (func(*mach.Machine) error, *fireState, error) {
	st := &fireState{}
	// Targets resolve when the trial is built, so a spec naming nothing
	// is an input error, never a trial outcome.
	bad := func(format string, a ...any) error {
		return fmt.Errorf("inject: spec %q: %s", spec, fmt.Sprintf(format, a...))
	}
	var periph *mach.PeriphInfo
	var glob *ir.Global
	switch spec.Kind {
	case RogueStore:
		if periph = board.PeriphByName(spec.Target); periph == nil {
			if glob = inst.Mod.Global(spec.Target); glob == nil {
				return nil, nil, bad("no global or peripheral %q", spec.Target)
			}
		}
	case BitFlip:
		if glob = inst.Mod.Global(spec.Target); glob == nil {
			return nil, nil, bad("no global %q", spec.Target)
		}
	}
	resolveGlobal := func(m *mach.Machine) (uint32, error) {
		if ab != nil {
			return ab.GlobalAddr[glob] + spec.Off, nil
		}
		addr, f := m.GlobalAddr(glob, m.Privileged)
		if f != nil {
			// Resolution itself faulted at the attacker's privilege:
			// the protection unit stopped the probe.
			return 0, f
		}
		return addr + spec.Off, nil
	}

	switch spec.Kind {
	case RogueStore:
		return func(m *mach.Machine) error {
			st.fired = true
			var addr uint32
			if periph != nil {
				addr = periph.Base + spec.Off
			} else {
				a, err := resolveGlobal(m)
				if err != nil {
					return err
				}
				addr = a
			}
			if err := m.InjectStore(addr, 1, spec.Value); err != nil {
				return err
			}
			st.landed = true
			return nil
		}, st, nil

	case BitFlip:
		return func(m *mach.Machine) error {
			st.fired = true
			// Soft error: flips the bit wherever the variable currently
			// lives, beneath the protection unit (hardware, not code).
			addr, err := resolveGlobal(m)
			if err != nil {
				return err
			}
			v, f := m.Bus.RawLoad(addr, 1)
			if f != nil {
				return f
			}
			m.Bus.RawStore(addr, 1, v^(1<<uint(spec.Bit)))
			return nil
		}, st, nil

	case BadGate:
		entry := inst.Mod.Func(spec.Target)
		if entry == nil {
			return nil, nil, bad("no gate target %q", spec.Target)
		}
		return func(m *mach.Machine) error {
			st.fired = true
			if _, err := m.InjectSvc(entry, spec.Args); err != nil {
				return err
			}
			return nil
		}, st, nil

	case StackExhaust:
		return func(m *mach.Machine) error {
			st.fired = true
			m.SP = m.StackLimit + 16
			return nil
		}, st, nil

	case PeriphCorrupt:
		p := board.PeriphByName(spec.Target)
		if p == nil {
			return nil, nil, bad("no peripheral %q", spec.Target)
		}
		return func(m *mach.Machine) error {
			st.fired = true
			m.Bus.RawStore(p.Base+spec.Off, 4, spec.Value)
			return nil
		}, st, nil

	case FuzzFrame, FuzzFrames:
		segs, err := spec.FrameSegs()
		if err != nil {
			return nil, nil, err
		}
		return func(m *mach.Machine) error {
			// The hostile peer swaps queued receive frames for its own
			// bytes. Never an error: a fire error would classify as
			// CrashedMonitor, but a missing device, out-of-range slot or
			// frame the MAC's validation rejects are all no-ops the wire
			// could produce (the frame simply never arrives). `landed`
			// stays false — whether the hostile frames escape is judged by
			// what the stack then does with them, not by their delivery.
			st.fired = true
			for _, d := range m.Bus.Devices() {
				if d.Name() != spec.Target {
					continue
				}
				if r, ok := d.(interface{ ReplaceFrame(int, []byte) bool }); ok {
					for _, seg := range segs {
						r.ReplaceFrame(seg.Slot, seg.Data)
					}
				}
				break
			}
			return nil
		}, st, nil
	}
	return nil, nil, fmt.Errorf("inject: unknown fault kind %d", spec.Kind)
}

// classify maps a trial's observations to its verdict. Precedence: a
// write that landed is an escape no matter how the run ended; a clean
// finish is judged by recovery activity and the workload's own
// correctness check; failures are bucketed by which mechanism caught
// them.
func classify(st *fireState, recoveries uint64, runErr, checkErr error) (Verdict, string) {
	if !st.fired {
		return Untriggered, ""
	}
	if st.landed {
		msg := ""
		if runErr != nil {
			msg = runErr.Error()
		}
		return Escaped, msg
	}
	if runErr == nil {
		if recoveries > 0 {
			if checkErr != nil {
				return Corrupted, checkErr.Error()
			}
			return Recovered, ""
		}
		if checkErr != nil {
			return Corrupted, checkErr.Error()
		}
		return Benign, ""
	}
	msg := runErr.Error()
	switch {
	case errors.Is(runErr, monitor.ErrSanitization):
		return ContainedSanitize, msg
	case isAbort(runErr):
		return ContainedGate, msg
	case isFault(runErr) || errors.Is(runErr, mach.ErrStackOverflow):
		return ContainedMPU, msg
	case errors.Is(runErr, mach.ErrCycleLimit):
		return Hung, msg
	}
	return CrashedMonitor, msg
}

func isAbort(err error) bool {
	var a *monitor.AbortError
	return errors.As(err, &a)
}

func isFault(err error) bool {
	var f *mach.Fault
	return errors.As(err, &f)
}
