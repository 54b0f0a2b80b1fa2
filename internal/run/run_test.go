package run_test

import (
	"errors"
	"strings"
	"testing"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/run"
)

func TestRunIsDeterministic(t *testing.T) {
	// Two independent OPEC runs of the same workload must agree on
	// cycles, switches and final state — the simulator has no hidden
	// nondeterminism.
	r1, err := run.OPEC(apps.PinLockN(3).New())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := run.OPEC(apps.PinLockN(3).New())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles {
		t.Errorf("cycles differ: %d vs %d", r1.Cycles, r2.Cycles)
	}
	if r1.Mon.Stats != r2.Mon.Stats {
		t.Errorf("monitor stats differ: %+v vs %+v", r1.Mon.Stats, r2.Mon.Stats)
	}
	if r1.Read("unlock_count", 0, 4) != r2.Read("unlock_count", 0, 4) {
		t.Error("final state differs")
	}
}

// The three builds must agree on every observable global of PinLock
// after the run — isolation must not change functional state.
func TestCrossBuildStateEquivalence(t *testing.T) {
	names := []string{"unlock_count", "lock_count", "lock_state", "KEY", "rx_byte_count"}

	rv, err := run.Vanilla(apps.PinLockN(3).New())
	if err != nil {
		t.Fatal(err)
	}
	ro, err := run.OPEC(apps.PinLockN(3).New())
	if err != nil {
		t.Fatal(err)
	}
	ra, err := run.ACES(apps.PinLockN(3).New(), aces.FilenameNoOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		v, o, a := rv.Read(n, 0, 4), ro.Read(n, 0, 4), ra.Read(n, 0, 4)
		if v != o || v != a {
			t.Errorf("%s diverges: vanilla=%d opec=%d aces=%d", n, v, o, a)
		}
	}
}

func TestReaderPanicsOnUnknownGlobal(t *testing.T) {
	res, err := run.Vanilla(apps.CoreMarkN(1).New())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown global did not panic")
		}
	}()
	res.Read("no_such_global", 0, 4)
}

func TestPrecompiledMatchesStandardRun(t *testing.T) {
	// OPECWith on an untouched, separately compiled build must behave
	// exactly like the standard OPEC runner.
	inst1 := apps.CoreMarkN(2).New()
	r1, err := run.OPEC(inst1)
	if err != nil {
		t.Fatal(err)
	}
	inst2 := apps.CoreMarkN(2).New()
	b2, err := compileFor(inst2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := run.OPECWith(inst2, b2, run.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles {
		t.Errorf("cycles: %d vs %d", r1.Cycles, r2.Cycles)
	}
	if r1.Read("benchmark_result", 0, 4) != r2.Read("benchmark_result", 0, 4) {
		t.Error("results differ")
	}
}

// compileFor mirrors what run.OPEC does internally, for the
// precompiled-path comparison.
func compileFor(inst *apps.Instance) (*core.Build, error) {
	return core.Compile(inst.Mod, inst.Board, inst.Cfg)
}

// A contained fault must come back located: the faulting operation from
// the run wrapper, the faulting function and PC from the interpreter.
func TestFaultErrorNamesOperationAndPC(t *testing.T) {
	inst := apps.PinLockN(1).New()
	b, err := compileFor(inst)
	if err != nil {
		t.Fatal(err)
	}
	// The §6.1 compromise: an arbitrary write to KEY prepended to
	// Lock_Task after compilation.
	lt := inst.Mod.MustFunc("Lock_Task")
	key := inst.Mod.Global("KEY")
	in := &ir.Instr{Op: ir.OpStore, Typ: ir.I8, Args: []ir.Value{key, ir.CI(0xEE)}}
	lt.Entry().Instrs = append([]*ir.Instr{in}, lt.Entry().Instrs...)

	_, err = run.OPECWith(inst, b, run.Options{})
	if err == nil {
		t.Fatal("attack unexpectedly survived")
	}
	if !strings.Contains(err.Error(), "operation Lock_Task") {
		t.Errorf("error %q does not name the faulting operation", err)
	}
	var ee *mach.ExecError
	if !errors.As(err, &ee) || ee.Fn != "Lock_Task" {
		t.Errorf("error %q does not locate the faulting function", err)
	}
	if !strings.Contains(err.Error(), "pc 0x") {
		t.Errorf("error %q does not mention the faulting PC", err)
	}
	var f *mach.Fault
	if !errors.As(err, &f) || f.Kind != mach.FaultMemManage {
		t.Errorf("underlying fault lost: %v", err)
	}
}

// OPECWith must hand back the partial result on a contained fault so
// callers can read monitor stats post-mortem, and the restart policy
// must flow through Options.
func TestOPECWithReturnsPartialResultAndPolicy(t *testing.T) {
	inst := apps.PinLockN(1).New()
	b, err := compileFor(inst)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.OPECWith(inst, b, run.Options{
		Arm: func(m *mach.Machine) {
			m.Arm(&mach.Injection{
				Func: inst.Mod.MustFunc("Lock_Task"),
				N:    1,
				Fire: func(mm *mach.Machine) error {
					addr := b.PublicAddr[inst.Mod.Global("KEY")]
					return mm.InjectStore(addr, 1, 0xEE)
				},
			})
		},
	})
	if err == nil {
		t.Fatal("abort policy should propagate the injected fault")
	}
	if res == nil || res.Mon == nil {
		t.Fatal("no partial result on contained fault")
	}
	if res.Mon.Stats.Switches == 0 {
		t.Error("partial result has empty stats")
	}
}

// Options.MaxCycles bounds every scheme's run, the vanilla baseline's
// included.
func TestVanillaWithHonoursMaxCycles(t *testing.T) {
	res, err := run.VanillaWith(apps.PinLockN(5).New(), run.Options{MaxCycles: 1000})
	if !errors.Is(err, mach.ErrCycleLimit) {
		t.Fatalf("run under a 1000-cycle budget returned %v, want the cycle limit", err)
	}
	if res == nil {
		t.Error("no partial result for the stopped run")
	}
}
