package mach

import "opec/internal/ir"

// This file is the execution-backend seam. The machine's reference
// execution engine is the interpreter (exec/step/eval in cpu.go); a
// Backend replaces only the instruction-dispatch loop of one function
// activation, while everything observable — cycle accounting, memory
// routing, fault handling, gates, IRQ dispatch, tracing, counters,
// injection triggers — stays in the Machine's primitives, reached
// through an Env. A backend that routes every architected effect
// through Env is cycle- and trace-exact by construction, which is what
// lets the translated engine (internal/xlat) be differentially checked
// against the interpreter byte for byte.

// Backend is an alternative instruction-dispatch engine. Exec runs one
// function activation to completion (the translated analogue of
// Machine.exec) and must produce exactly the interpreter's observable
// behaviour: same Clock advancement, same fault identities, same trace
// events and counters, same return value and error chain.
type Backend interface {
	// Name identifies the backend ("xlat"); run.Options selects by it.
	Name() string
	// Exec executes the activation described by e.
	Exec(e *Env) (uint32, error)
}

// SetBackend installs an execution backend; nil selects the
// interpreter. Install before running — the backend takes effect at
// the next function activation.
func (m *Machine) SetBackend(b Backend) { m.backend = b }

// ExecBackend returns the installed backend (nil = interpreter).
func (m *Machine) ExecBackend() Backend { return m.backend }

// Env is one function activation as seen by a Backend: the operand
// accessors, cost/injection prologues and architected operations of
// the interpreter, factored out so a translated function is forced
// through the same primitives. An Env is embedded in the pooled frame
// and valid only for the duration of the Exec call it was passed to.
type Env struct {
	m         *Machine
	fr        *frame
	fm        *funcMeta
	localBase uint32
	priv      bool
}

// Func returns the executing function.
func (e *Env) Func() *ir.Function { return e.fm.fn }

// Certs returns the function's access-certificate row (nil when the
// function runs fully checked). The row is immutable; InstallProofs
// swaps whole rows, so row identity keys a translation variant.
func (e *Env) Certs() []byte { return e.fm.certs }

// Privileged reports the privilege level captured at activation entry.
// The level is constant at every instruction boundary within one
// activation (gates, fault handlers and IRQ entries that escalate all
// restore it before returning control), which is what makes
// privilege-specialized translations sound.
func (e *Env) Privileged() bool { return e.priv }

// Reg reads virtual-register slot id.
func (e *Env) Reg(id int) uint32 { return e.fr.regs[id] }

// SetReg writes virtual-register slot id.
func (e *Env) SetReg(id int, v uint32) { e.fr.regs[id] = v }

// Regs exposes the activation's register file for micro-op loops.
// The slice identity is stable for the whole activation.
func (e *Env) Regs() []uint32 { return e.fr.regs }

// RegsN grows the activation's register file to n slots and returns
// it. A translation variant uses the slots past the function's own
// virtual registers as an extended file holding its constant pool and
// pooled parameter copies; their contents are undefined until the
// caller initializes them. The first NumRegs slots are preserved, and
// the growth is retained by the pooled frame, so a hot function pays
// any allocation once per call depth.
func (e *Env) RegsN(n int) []uint32 {
	fr := e.fr
	if cap(fr.regs) >= n {
		fr.regs = fr.regs[:n]
	} else {
		grown := make([]uint32, n)
		copy(grown, fr.regs)
		fr.regs = grown
	}
	return fr.regs
}

// Args exposes the four register-passed arguments.
func (e *Env) Args() *[4]uint32 { return &e.fr.args }

// SpilledArg loads parameter index i (i >= 4) from the simulated
// stack — a real checked memory access, exactly as eval does.
func (e *Env) SpilledArg(i int) (uint32, error) {
	return e.m.loadChecked(e.fr.argBase+uint32(4*(i-4)), 4)
}

// LocalBase returns the activation's alloca base address.
func (e *Env) LocalBase() uint32 { return e.localBase }

// AllocaOff returns the frame offset of the alloca with instruction
// id, as laid out by buildFuncMeta.
func (e *Env) AllocaOff(id int) int32 { return e.fm.allocaOff[id] }

// GlobalAddr resolves a global operand — under OPEC a real, checked
// memory read through the relocation table that can fault and advance
// the clock, exactly as eval's Global case.
func (e *Env) GlobalAddr(g *ir.Global) (uint32, error) {
	addr, f := e.m.GlobalAddr(g, e.m.Privileged)
	if f != nil {
		return e.m.handleFault(f)
	}
	return addr, nil
}

// FuncAddr resolves a function operand to its code address.
func (e *Env) FuncAddr(fn *ir.Function) uint32 { return e.m.FuncAddr(fn) }

// Step is the interpreter's per-instruction prologue: the
// instruction-count injection trigger, then one CostInstr cycle.
func (e *Env) Step() error {
	m := e.m
	if inj := m.inj; inj != nil && inj.Func == nil && m.InstrCount >= inj.At {
		m.inj = nil
		if err := inj.Fire(m); err != nil {
			return err
		}
	}
	m.Clock.Advance(CostInstr)
	m.InstrCount++
	return nil
}

// StepN batches n instruction prologues into one clock advance. Legal
// only across instructions with no observable effects (no memory,
// calls, faults or trace emissions) — the clock is unobservable
// between them, so only the totals at the next observation point
// matter. It refuses (returns false) while an injection is armed: the
// per-instruction At trigger must then be evaluated exactly, so the
// caller takes the Step-per-instruction path instead.
func (e *Env) StepN(n uint64) bool {
	m := e.m
	if m.inj != nil {
		return false
	}
	m.Clock.Advance(n * CostInstr)
	m.InstrCount += n
	return true
}

// TermStep is the terminator prologue: one CostInstr cycle and an
// instruction count, with no injection trigger (matching exec, which
// checks triggers only on block-body instructions).
func (e *Env) TermStep() {
	e.m.Clock.Advance(CostInstr)
	e.m.InstrCount++
}

// Tick runs the block-boundary duties: the cycle-budget check and
// pending-IRQ dispatch. Errors are returned to the caller unwrapped,
// exactly as exec treats tick errors.
func (e *Env) Tick() error { return e.m.tick() }

// LoopBack is the fast-forward primitive (fastforward.go), called when
// the block just finished branches back to itself. n counts this
// activation's consecutive back edges of that block (0 the first
// time); the result is the count to pass at the next one. The clock
// and instruction count must be exact when it is called, as they are
// after a terminator.
func (e *Env) LoopBack(n int) int { return e.m.loopBack(e.fr, n) }

// Block records the per-block coverage event for block index bi,
// exactly as exec does after its tick (no-op unless the machine has a
// trace attached with CovEvents set). A backend calls it between Tick
// and the block body so the event's cycle stamp matches the
// interpreter's.
func (e *Env) Block(bi int) {
	if m := e.m; m.Trace != nil && m.CovEvents {
		m.emitBlock(e.fm.fn, bi)
	}
}

// Load performs a fully adjudicated load.
func (e *Env) Load(addr uint32, size int) (uint32, error) {
	return e.m.loadChecked(addr, size)
}

// Store performs a fully adjudicated store.
func (e *Env) Store(addr uint32, size int, v uint32) error {
	return e.m.storeChecked(addr, size, v)
}

// LoadProven performs a certificate-elided load, falling back to the
// adjudicated path while the kill switch is thrown. The caller has
// already established the certificate bit and the unprivileged level
// at translation time; DisableProofs stays a dynamic test because the
// proof benchmarks toggle it mid-process.
func (e *Env) LoadProven(addr uint32, size int) (uint32, error) {
	if DisableProofs {
		return e.m.loadChecked(addr, size)
	}
	return e.m.loadProven(addr, size)
}

// StoreProven performs a certificate-elided store (see LoadProven).
func (e *Env) StoreProven(addr uint32, size int, v uint32) error {
	if DisableProofs {
		return e.m.storeChecked(addr, size, v)
	}
	return e.m.storeProven(addr, size, v)
}

// ArgBuf returns the frame's call-argument scratch buffer, sized to n.
// Like evalArgs' result it is valid only until this frame's next call.
func (e *Env) ArgBuf(n int) []uint32 {
	if cap(e.fr.argbuf) < n {
		e.fr.argbuf = make([]uint32, n)
	}
	return e.fr.argbuf[:n]
}

// Call dispatches a direct call with OnCall/OnReturn interposition and
// trace events, exactly as step's OpCall case.
func (e *Env) Call(callee *ir.Function, args []uint32) (uint32, error) {
	return e.m.dispatchCall(e.fm.fn, callee, args)
}

// ICallee resolves an indirect-call target address, escalating to a
// usage fault on a corrupted code pointer exactly as step's OpICall
// case (fault raised before argument evaluation).
func (e *Env) ICallee(target uint32) (*ir.Function, error) {
	callee := e.m.funcAt[target]
	if callee == nil {
		f := &Fault{Kind: FaultUsage, Addr: target, Privileged: e.m.Privileged}
		if e.m.Trace != nil {
			e.m.emitFault(f)
		}
		return nil, f
	}
	return callee, nil
}

// Svc dispatches a gated operation entry (exception entry, monitor
// enter, body, monitor exit), exactly as step's OpSvc case.
func (e *Env) Svc(entry *ir.Function, args []uint32) (uint32, error) {
	return e.m.svcCall(entry, args)
}

// Halt returns the interpreter's halt sentinel; Locate passes it
// through unwrapped and Machine.Run converts it to a clean stop.
func (e *Env) Halt() error { return errHalt }

// Locate wraps an instruction-level error with the innermost faulting
// frame, exactly once (see Machine.locate).
func (e *Env) Locate(err error) error { return e.m.locate(e.fr, e.fm, err) }

// Interp falls back to the interpreter for this activation — the
// escape hatch for functions a backend declines to translate.
func (e *Env) Interp() (uint32, error) {
	return e.m.exec(e.fr, e.localBase, e.fm)
}
