// Package run executes workload instances under the build flavours the
// evaluation compares: the vanilla baseline (privileged, MPU off), OPEC
// (operation isolation under the monitor, on the MPU or the RISC-V PMP)
// and ACES (compartment isolation under its runtime).
//
// Every flavour runs through one path. A Boot constructor builds the
// instance's bus, boots the scheme's runtime on it and checkpoints the
// machine and the runtime's own state, giving a Context. Context.Fork
// restores the checkpoint and runs it once under Options, as many times
// as the caller likes: the fault-injection forge and the debugger fork
// every trial from one boot. The power-on entry points (Vanilla, OPEC,
// ACES and their With forms) are a Boot followed by one Fork, so a
// forked run equals a power-on run by construction.
package run

import (
	"fmt"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/dev"
	"opec/internal/image"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/trace"
)

// Result captures one finished run.
type Result struct {
	Cycles  uint64
	Machine *mach.Machine
	Read    apps.ReadGlobal

	// Exactly one of the following is set, matching the flavour.
	Van   *image.Vanilla
	Mon   *monitor.Monitor
	Build *core.Build // OPEC compile output (set with Mon)
	ACES  *aces.Runtime
	ABld  *aces.Build
}

// newBus builds the bus for an instance and attaches its devices.
func newBus(inst *apps.Instance) (*mach.Bus, error) {
	bus := mach.NewBus(inst.Board.FlashSize, inst.Board.SRAMSize, inst.Clk)
	// Every board has the flash-interface block the clock bring-up
	// programs, plus the GPIO ports the pin-mux table touches that the
	// workloads don't model behaviourally.
	if err := bus.Attach(dev.NewFlashIF()); err != nil {
		return nil, err
	}
	if err := bus.Attach(dev.NewGPIO(mach.GPIOBBase, inst.Clk)); err != nil {
		return nil, err
	}
	if err := bus.Attach(dev.NewGPIO(mach.GPIOCBase, inst.Clk)); err != nil {
		return nil, err
	}
	for _, d := range inst.Devices {
		if err := bus.Attach(d); err != nil {
			return nil, err
		}
	}
	if inst.NeedsDMA2D {
		if err := bus.Attach(dev.NewDMA2D(inst.Clk, bus)); err != nil {
			return nil, err
		}
	}
	return bus, nil
}

func reader(m *mach.Machine, inst *apps.Instance) apps.ReadGlobal {
	return func(name string, off uint32, size int) uint32 {
		g := inst.Mod.Global(name)
		if g == nil {
			panic(fmt.Sprintf("run: no global %q", name))
		}
		addr, f := m.GlobalAddr(g, true)
		if f != nil {
			panic(f)
		}
		v, f := m.Bus.RawLoad(addr+off, size)
		if f != nil {
			panic(f)
		}
		return v
	}
}

// Options tunes a run beyond the paper's defaults.
type Options struct {
	// Policy selects the monitor's fault-recovery policy (OPEC only).
	Policy monitor.Policy
	// Arm, when non-nil, runs right before execution starts — the
	// fault-injection campaign uses it to arm a mach.Injection.
	Arm func(m *mach.Machine)
	// Trace, when non-nil, receives the run's event stream: exception
	// entries, gate crossings, MPU programming, faults, recovery
	// actions. Attached right after the restore, before execution
	// starts; nil keeps every emit site on its zero-cost path.
	Trace *trace.Buffer
	// MaxCycles, when non-zero, overrides the instance's cycle budget
	// for this run.
	MaxCycles uint64
}

// Context is a booted instance of one scheme, checkpointed before its
// first instruction. Fork runs it from the checkpoint; a Context is
// serial, one Fork at a time.
type Context struct {
	Inst *apps.Instance

	rt      runtime
	snap    *mach.Snapshot
	restore func() // rewinds the runtime's own state
}

// OPECContext and ACESContext are the names Context had when each
// scheme had its own.
type (
	OPECContext = Context
	ACESContext = Context
)

// BootOPEC boots a compiled OPEC build under the monitor on the MPU.
func BootOPEC(inst *apps.Instance, b *core.Build) (*Context, error) {
	return boot(inst, func(bus *mach.Bus) (runtime, error) {
		mon, err := monitor.Boot(b, bus)
		return opecRuntime{mon}, err
	})
}

// BootOPECPMP is BootOPEC on the RISC-V PMP backend (the paper's
// Section 7 portability target).
func BootOPECPMP(inst *apps.Instance, b *core.Build) (*Context, error) {
	return boot(inst, func(bus *mach.Bus) (runtime, error) {
		mon, err := monitor.BootPMP(b, bus)
		return opecRuntime{mon}, err
	})
}

// BootACES boots a compiled ACES build under the ACES runtime.
func BootACES(inst *apps.Instance, b *aces.Build) (*Context, error) {
	return boot(inst, func(bus *mach.Bus) (runtime, error) {
		rt, err := aces.Boot(b, bus)
		return acesRuntime{rt}, err
	})
}

// BootVanilla boots the instance as the unprotected baseline binary.
func BootVanilla(inst *apps.Instance) (*Context, error) {
	van, err := image.BuildVanilla(inst.Mod, inst.Board)
	if err != nil {
		return nil, err
	}
	return boot(inst, func(bus *mach.Bus) (runtime, error) {
		return vanillaRuntime{van, van.Instantiate(bus)}, nil
	})
}

// boot builds the instance's bus, boots a runtime on it with start and
// checkpoints the machine and the runtime together.
func boot(inst *apps.Instance, start func(*mach.Bus) (runtime, error)) (*Context, error) {
	bus, err := newBus(inst)
	if err != nil {
		return nil, err
	}
	rt, err := start(bus)
	if err != nil {
		return nil, err
	}
	snap, err := rt.machine().Snapshot()
	if err != nil {
		return nil, err
	}
	return &Context{Inst: inst, rt: rt, snap: snap, restore: rt.checkpoint()}, nil
}

// SnapshotID identifies the checkpoint's machine state; together with
// an injection spec it is a complete replay coordinate.
func (c *Context) SnapshotID() string { return c.snap.ID() }

// Reset rewinds machine and runtime to the checkpoint without running
// anything (the fork-latency benchmark times exactly this).
func (c *Context) Reset() error {
	if err := c.rt.machine().Restore(c.snap); err != nil {
		return err
	}
	c.restore()
	return nil
}

// Fork restores the checkpoint and runs it once under opts. It returns
// the partial Result alongside a run error, so callers can inspect
// runtime stats and memory after a contained fault.
func (c *Context) Fork(opts Options) (*Result, error) {
	if err := c.Reset(); err != nil {
		return nil, err
	}
	m := c.rt.machine()
	m.MaxCycles = c.Inst.MaxCycles
	if opts.MaxCycles > 0 {
		m.MaxCycles = opts.MaxCycles
	}
	c.rt.setPolicy(opts.Policy)
	// A finished run lets go of its observers — the trace bus and any
	// watch hook Arm set — instead of pinning them until the next
	// fork's restore clears them.
	if opts.Trace != nil {
		c.rt.AttachTrace(opts.Trace)
		defer c.rt.AttachTrace(nil)
	}
	if opts.Arm != nil {
		opts.Arm(m)
		defer func() {
			m.SetStoreWatch(nil)
			m.Bus.SetRawWatch(nil)
		}()
	}
	res := &Result{Machine: m, Read: reader(m, c.Inst)}
	c.rt.result(res)
	err := c.rt.Run()
	res.Cycles = m.Clock.Now()
	if err != nil {
		// Name where the program was when it failed — the faulting
		// operation or compartment — on top of the interpreter's
		// ExecError, which names the faulting function and PC.
		if where := c.rt.where(); where != "" {
			err = fmt.Errorf("run: in %s: %w", where, err)
		}
		return res, err
	}
	if !m.Halted {
		return res, fmt.Errorf("run: program returned without reaching its halt point")
	}
	return res, nil
}

// OPECWith runs a compiled OPEC build from power-on under opts.
func OPECWith(inst *apps.Instance, b *core.Build, opts Options) (*Result, error) {
	c, err := BootOPEC(inst, b)
	if err != nil {
		return nil, err
	}
	return c.Fork(opts)
}

// OPECPMPWith runs a compiled OPEC build from power-on on the RISC-V
// PMP backend under opts.
func OPECPMPWith(inst *apps.Instance, b *core.Build, opts Options) (*Result, error) {
	c, err := BootOPECPMP(inst, b)
	if err != nil {
		return nil, err
	}
	return c.Fork(opts)
}

// ACESWith runs a compiled ACES build from power-on under opts (Policy
// does not apply: the baseline runtime has no recovery).
func ACESWith(inst *apps.Instance, b *aces.Build, opts Options) (*Result, error) {
	c, err := BootACES(inst, b)
	if err != nil {
		return nil, err
	}
	return c.Fork(opts)
}

// VanillaWith runs the instance as the unprotected baseline binary
// under opts (Policy does not apply; Trace still records exceptions,
// IRQs and calls even with the MPU off).
func VanillaWith(inst *apps.Instance, opts Options) (*Result, error) {
	c, err := BootVanilla(inst)
	if err != nil {
		return nil, err
	}
	return c.Fork(opts)
}

// Vanilla runs the instance as the unprotected baseline binary.
func Vanilla(inst *apps.Instance) (*Result, error) {
	return VanillaWith(inst, Options{})
}

// OPEC compiles the instance with OPEC-Compiler and runs it under
// OPEC-Monitor.
func OPEC(inst *apps.Instance) (*Result, error) {
	b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
	if err != nil {
		return nil, err
	}
	return OPECWith(inst, b, Options{})
}

// OPECPMP is OPEC on the RISC-V PMP backend.
func OPECPMP(inst *apps.Instance) (*Result, error) {
	b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
	if err != nil {
		return nil, err
	}
	return OPECPMPWith(inst, b, Options{})
}

// ACES compiles the instance with the baseline's strategy and runs it
// under the ACES runtime.
func ACES(inst *apps.Instance, strat aces.Strategy) (*Result, error) {
	b, err := aces.Compile(inst.Mod, inst.Board, strat)
	if err != nil {
		return nil, err
	}
	return ACESWith(inst, b, Options{})
}

// AndCheck runs the instance's correctness check against a result.
func AndCheck(inst *apps.Instance, res *Result) error {
	if inst.Check == nil {
		return nil
	}
	return inst.Check(res.Read)
}
