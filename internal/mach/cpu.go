package mach

import (
	"errors"
	"fmt"

	"opec/internal/ir"
	"opec/internal/trace"
)

// Cycle costs of the execution model. The absolute values approximate
// Cortex-M4 figures; only their ratios matter for overhead shapes.
const (
	CostInstr     = 1
	CostMem       = 2
	CostCall      = 3
	CostRet       = 2
	CostExcEntry  = 12 // exception entry (SVC, fault)
	CostExcReturn = 12
	CostMPUWrite  = 4 // one region register write
	CostWordCopy  = 2 // one word moved by a monitor routine
)

// FaultAction tells the interpreter how a fault handler resolved a
// fault.
type FaultAction uint8

// Fault resolutions.
const (
	FaultAbort    FaultAction = iota // terminate the program
	FaultRetry                       // retry the access (handler fixed the MPU)
	FaultEmulated                    // handler performed the access itself
)

// FaultResolution is the result of a fault handler.
type FaultResolution struct {
	Action FaultAction
	Value  uint32 // loaded value when Action == FaultEmulated on a read
}

// Handlers are the runtime hooks a protection scheme installs. All are
// optional; a nil handler means the default (faults abort, SVCs are
// plain calls, no call interposition).
type Handlers struct {
	// SvcEnter runs at an operation-entry supervisor call, privileged.
	// It receives the evaluated call arguments and may rewrite them
	// (stack-argument relocation, Figure 8). Returning an error aborts.
	SvcEnter func(entry *ir.Function, args []uint32) ([]uint32, error)
	// SvcExit runs at the matching operation-exit supervisor call.
	SvcExit func(entry *ir.Function, ret uint32) error
	// MemManage handles MPU violations (MPU virtualization lives here).
	MemManage func(f *Fault) FaultResolution
	// BusFault handles bus errors (PPB load/store emulation lives here).
	BusFault func(f *Fault) FaultResolution
	// OnCall is invoked before every direct or resolved indirect call;
	// the ACES runtime switches compartments here. Errors abort.
	//
	// OnCall and OnReturn may keep private bookkeeping, but any change
	// they make that execution can observe must go through the machine:
	// MPU regions, privilege or the clock. The busy-wait fast-forward
	// (fastforward.go) relies on this to prove that a loop iteration
	// calling through these hooks repeats exactly. The ACES runtime
	// meets it: a same-compartment call pushes and pops a nil marker,
	// and a compartment switch always reprograms the MPU.
	OnCall func(caller, callee *ir.Function) error
	// OnReturn is invoked after the call returns, under the same
	// contract as OnCall.
	OnReturn func(caller, callee *ir.Function) error
	// OnFuncEnter observes every function entry (the tracing hook that
	// substitutes for the paper's GDB single-stepping).
	OnFuncEnter func(fn *ir.Function)
	// SvcFault is consulted, privileged, when a gated operation body
	// fails. It decides between propagating, retrying the body
	// (RestartOperation) and returning a sentinel (Quarantine). Halts
	// never reach it.
	SvcFault func(entry *ir.Function, err error) SvcFaultResolution
}

// Machine executes an ir.Module against a Bus with a privilege state
// and a simulated call stack in SRAM.
type Machine struct {
	Mod      *ir.Module
	Bus      *Bus
	Clock    *Clock
	Handlers Handlers

	// cpuState is what a checkpoint restores of the CPU; its fields
	// are promoted (m.SP, m.InstrCount, ...).
	cpuState

	// GlobalAddr resolves a global operand to its address. OPEC images
	// route external globals through the variables relocation table
	// here (a real, checked memory read).
	GlobalAddr func(g *ir.Global, privileged bool) (uint32, *Fault)

	// Per-function metadata (code address, frame size, alloca offsets)
	// precomputed at NewMachine. metaByIdx is keyed by Function.Index()
	// so the call hot path is a bounds check plus an identity compare,
	// no map hashing; lateMeta catches functions registered after
	// NewMachine or belonging to another module. funcAt resolves
	// indirect-call targets.
	metaByIdx []funcMeta
	lateMeta  map[*ir.Function]*funcMeta
	funcAt    map[uint32]*ir.Function

	// MaxCycles guards against runaway programs in tests.
	MaxCycles uint64

	irqs []irqBinding

	// inj is the armed fault injection, if any (see Arm).
	inj *Injection

	// frames is the activation-record pool, indexed by call depth, so
	// steady-state execution allocates nothing per call.
	frames []*frame

	// Trace is the event bus. Nil (the default) disables tracing: every
	// emission site is guarded by a nil check, so the untraced hot path
	// is a pointer compare and the event path allocates nothing.
	// Install with AttachTrace so function names are pre-interned.
	Trace *trace.Buffer

	// CovEvents opts the traced run into per-block EvBranch events (one
	// per basic block entered, after the block-boundary tick) — the
	// branch-coverage feed the fuzzing engine folds into its edge map.
	// Off by default: block events multiply trace volume and ordinary
	// traced runs only need the call/gate/fault stream.
	CovEvents bool

	// traceIDs caches interned function-name ids by Function.Index(),
	// filled by AttachTrace.
	traceIDs []uint32

	// watch, when non-nil, observes every attempted data store issued
	// through the store seam (watch.go). Nil — the default — keeps the
	// store hot path at one pointer compare, mirroring Trace.
	watch func(WatchedStore)

	// exceptions counts exception entries (faults, SVCs, IRQs); ff is
	// the busy-wait fast-forward state (fastforward.go).
	exceptions uint64
	ff         ffState
}

// cpuRegs is the CPU's architected state, the part of cpuState a
// state digest covers (stateframe.go).
type cpuRegs struct {
	// Privileged is the current execution level.
	Privileged bool

	// SP is the stack pointer; StackTop/StackLimit bound the stack.
	SP         uint32
	StackTop   uint32
	StackLimit uint32

	// Halted is set when the program executed an OpHalt.
	Halted bool

	// InstrCount is the number of instructions executed.
	InstrCount uint64
}

// cpuState is the CPU's share of a checkpoint: its registers, its
// statistics counters, and the host call depth and IRQ flag, which are
// zero at every checkpoint because Snapshot refuses otherwise.
type cpuState struct {
	cpuRegs

	SwitchCount  uint64 // operation/compartment switches observed
	frameReuse   uint64 // pooled-frame register reuses (vs. fresh allocations)
	proofElided  uint64 // accesses satisfied by a static certificate
	proofChecked uint64 // accesses dynamically adjudicated

	depth int
	inIRQ bool
}

// funcMeta is the per-function execution metadata computed once in
// NewMachine. allocaOff is dense, indexed by instruction ID; it is nil
// for functions without allocas. fn guards slice slots against index
// collisions with functions from other modules. certs is the function's
// access-certificate row (InstallProofs); nil means fully checked.
type funcMeta struct {
	fn         *ir.Function
	addr       uint32
	localBytes uint32
	allocaOff  []int32
	certs      []byte
}

type irqBinding struct {
	src     IRQSource
	handler *ir.Function
}

// errHalt unwinds the interpreter on OpHalt.
var errHalt = errors.New("halt")

// ErrCycleLimit reports that MaxCycles was exceeded.
var ErrCycleLimit = errors.New("mach: cycle limit exceeded")

// ErrStackOverflow reports stack exhaustion.
var ErrStackOverflow = errors.New("mach: stack overflow")

const maxCallDepth = 256

// NewMachine creates a machine for mod. Function addresses are assigned
// from codeBase in declaration order (matching the image layout's code
// placement).
func NewMachine(mod *ir.Module, bus *Bus, codeBase uint32) *Machine {
	m := &Machine{
		Mod:       mod,
		Bus:       bus,
		Clock:     bus.Clock,
		MaxCycles: 1 << 40,
		metaByIdx: make([]funcMeta, len(mod.Functions)),
		funcAt:    make(map[uint32]*ir.Function, len(mod.Functions)),
	}
	addr := codeBase
	for i, f := range mod.Functions {
		m.metaByIdx[i] = buildFuncMeta(f, addr)
		m.funcAt[addr] = f
		addr += uint32(f.CodeSize())
	}
	m.GlobalAddr = func(g *ir.Global, _ bool) (uint32, *Fault) {
		return 0, &Fault{Kind: FaultBus, Addr: 0}
	}
	return m
}

// buildFuncMeta lays out fn's alloca slots and records its code address.
func buildFuncMeta(fn *ir.Function, addr uint32) funcMeta {
	fm := funcMeta{fn: fn, addr: addr}
	off := int32(0)
	fn.Instructions(func(_ *ir.Block, in *ir.Instr) {
		if in.Op != ir.OpAlloca {
			return
		}
		if fm.allocaOff == nil {
			fm.allocaOff = make([]int32, fn.NumRegs())
		}
		if id := in.ID(); id >= len(fm.allocaOff) {
			grown := make([]int32, id+1)
			copy(grown, fm.allocaOff)
			fm.allocaOff = grown
		}
		fm.allocaOff[in.ID()] = off
		off += int32((in.Off + 3) &^ 3)
	})
	fm.localBytes = uint32(off)
	return fm
}

// metaFor returns fn's metadata, building it on demand for functions
// registered after NewMachine (test harnesses do this). Such late
// functions keep the zero address, matching the historical funcAddr-map
// behavior.
func (m *Machine) metaFor(fn *ir.Function) *funcMeta {
	if i := fn.Index(); uint(i) < uint(len(m.metaByIdx)) {
		if fm := &m.metaByIdx[i]; fm.fn == fn {
			return fm
		}
	}
	fm := m.lateMeta[fn]
	if fm == nil {
		late := buildFuncMeta(fn, 0)
		fm = &late
		if m.lateMeta == nil {
			m.lateMeta = make(map[*ir.Function]*funcMeta)
		}
		m.lateMeta[fn] = fm
	}
	return fm
}

// FuncAddr returns the code address of fn.
func (m *Machine) FuncAddr(fn *ir.Function) uint32 {
	if i := fn.Index(); uint(i) < uint(len(m.metaByIdx)) {
		if fm := &m.metaByIdx[i]; fm.fn == fn {
			return fm.addr
		}
	}
	if fm := m.lateMeta[fn]; fm != nil {
		return fm.addr
	}
	return 0
}

// FuncAt returns the function whose code starts at addr, or nil.
func (m *Machine) FuncAt(addr uint32) *ir.Function { return m.funcAt[addr] }

// AttachTrace installs the event bus on the machine and its protection
// unit, pre-interning every module function so traced call dispatch
// never hashes a string.
func (m *Machine) AttachTrace(buf *trace.Buffer) {
	m.Trace = buf
	m.traceIDs = make([]uint32, len(m.Mod.Functions))
	for i, f := range m.Mod.Functions {
		m.traceIDs[i] = buf.Intern(f.Name)
	}
	if m.Bus != nil && m.Bus.MPU != nil {
		m.Bus.MPU.Trace = buf
	}
}

// traceID resolves fn's interned name id, interning on demand for
// functions outside the module (late registrations, other modules).
func (m *Machine) traceID(fn *ir.Function) uint32 {
	if i := fn.Index(); uint(i) < uint(len(m.traceIDs)) && m.metaByIdx[i].fn == fn {
		return m.traceIDs[i]
	}
	return m.Trace.Intern(fn.Name)
}

// emitExc records one exception entry/return cost event. Callers guard
// with m.Trace != nil and emit immediately after the matching
// Clock.Advance, so the event's Dur mirrors the architected cost.
func (m *Machine) emitExc(kind trace.Kind, class uint32, cost uint64) {
	m.Trace.Emit(trace.Event{Cycle: m.Clock.Now(), Dur: cost, Kind: kind, Op: -1, Arg: class})
}

// emitBlock records one per-block coverage event (see CovEvents).
// Callers guard with m.Trace != nil && m.CovEvents and emit immediately
// after the block-boundary tick, where the clock is exact.
func (m *Machine) emitBlock(fn *ir.Function, idx int) {
	m.Trace.Emit(trace.Event{
		Cycle: m.Clock.Now(), Kind: trace.EvBranch, Op: -1,
		Arg: m.traceID(fn), Arg2: uint32(idx),
	})
}

// emitFault records a fault event with the protection unit's region
// verdict for the faulting address (-1 background map, -2 when a
// non-MPU protection backend adjudicated).
func (m *Machine) emitFault(f *Fault) {
	region := -2
	if mpu, ok := m.Bus.Prot.(*MPU); ok {
		region = mpu.RegionFor(f.Addr)
	}
	m.Trace.Emit(trace.Event{
		Cycle: m.Clock.Now(), Kind: trace.EvFault, Op: -1,
		Arg: f.Addr, Arg2: trace.PackFaultInfo(uint8(f.Kind), f.Write, region),
	})
}

// Counters implements trace.CounterSource for the machine, folding in
// the bus and protection-unit counters.
func (m *Machine) Counters() []trace.Counter {
	cs := []trace.Counter{
		{Name: "mach.instrs", Value: m.InstrCount},
		{Name: "mach.switches", Value: m.SwitchCount},
		{Name: "mach.frame_reuse", Value: m.frameReuse},
		{Name: "mach.proofs.elided", Value: m.proofElided},
		{Name: "mach.proofs.checked", Value: m.proofChecked},
		{Name: "mach.ff.episodes", Value: m.ff.episodes},
		{Name: "mach.ff.skipped_instrs", Value: m.ff.skipped},
	}
	if m.Bus != nil {
		cs = append(cs, m.Bus.Counters()...)
	}
	return cs
}

// BindIRQ routes the device's interrupt line to an IR handler function,
// which executes privileged (hardware escalates on exception entry).
func (m *Machine) BindIRQ(src IRQSource, handler *ir.Function) {
	m.irqs = append(m.irqs, irqBinding{src: src, handler: handler})
}

// Run executes fn with the given arguments until it returns, the
// program halts, or an unrecoverable fault occurs.
func (m *Machine) Run(fn *ir.Function, args ...uint32) (uint32, error) {
	if m.SP == 0 {
		m.SP = m.StackTop
	}
	ret, err := m.call(fn, args)
	if errors.Is(err, errHalt) {
		m.Halted = true
		return ret, nil
	}
	return ret, err
}

// frame is one activation record. The first four arguments live in
// "registers"; the rest are spilled to the simulated stack by the
// caller (AAPCS), so they are subject to MPU stack protection. Frames
// are pooled per call depth: regs/argbuf storage is reused across
// calls, with regs zeroed on reuse so behavior matches a fresh file.
type frame struct {
	fn      *ir.Function
	regs    []uint32
	ncap    int // nominal file size: running max of NumRegs at this depth
	args    [4]uint32
	nargs   int
	argBase uint32   // address of spilled args
	argbuf  []uint32 // evalArgs scratch; valid until this frame's next call
	ff      loopWitness
}

// frameAt returns the pooled frame for one-based call depth d.
func (m *Machine) frameAt(d int) *frame {
	for len(m.frames) < d {
		m.frames = append(m.frames, &frame{})
	}
	return m.frames[d-1]
}

func (m *Machine) call(fn *ir.Function, args []uint32) (uint32, error) {
	if m.depth++; m.depth > maxCallDepth {
		m.depth--
		return 0, fmt.Errorf("mach: call depth exceeded at %s", fn.Name)
	}
	defer func() { m.depth-- }()

	m.Clock.Advance(CostCall)
	if m.Handlers.OnFuncEnter != nil {
		m.Handlers.OnFuncEnter(fn)
	}

	fm := m.metaFor(fn)
	fr := m.frameAt(m.depth)
	fr.fn = fn
	// The reuse counter tracks the nominal file size (running max of
	// NumRegs at this depth since the last Restore), not raw slice
	// capacity: Restore keeps the storage but resets the nominal size,
	// so every run from a checkpoint counts the same reuses.
	n := fn.NumRegs()
	if fr.ncap >= n {
		m.frameReuse++
	} else {
		fr.ncap = n
	}
	if cap(fr.regs) < n {
		fr.regs = make([]uint32, n)
	} else {
		fr.regs = fr.regs[:n]
		for i := range fr.regs {
			fr.regs[i] = 0
		}
	}
	fr.args = [4]uint32{}
	for i := 0; i < len(args) && i < 4; i++ {
		fr.args[i] = args[i]
	}
	fr.nargs = len(args)

	// Spill arguments beyond the fourth to the stack (checked stores:
	// the stack MPU region governs them).
	savedSP := m.SP
	if len(args) > 4 {
		for i := len(args) - 1; i >= 4; i-- {
			m.SP -= 4
			if err := m.storeChecked(m.SP, 4, args[i]); err != nil {
				m.SP = savedSP
				return 0, err
			}
		}
	}
	fr.argBase = m.SP

	// Reserve locals.
	locals := fm.localBytes
	if m.SP-locals < m.StackLimit {
		m.SP = savedSP
		return 0, fmt.Errorf("%w in %s", ErrStackOverflow, fn.Name)
	}
	m.SP -= locals
	localBase := m.SP

	// Entry-count injection trigger: fire with the frame established,
	// so the hook's perturbation executes in this function's context.
	if inj := m.inj; inj != nil && inj.Func == fn {
		if inj.N--; inj.N <= 0 {
			m.inj = nil
			if err := inj.Fire(m); err != nil {
				m.SP = savedSP
				return 0, m.locate(fr, fm, err)
			}
		}
	}

	ret, err := m.exec(fr, localBase, fm)
	m.SP = savedSP
	m.Clock.Advance(CostRet)
	return ret, err
}

// exec runs the block graph of fr.fn.
func (m *Machine) exec(fr *frame, localBase uint32, fm *funcMeta) (uint32, error) {
	blk := fr.fn.Entry()
	// Hoisted out of the per-instruction path: the certificate row and
	// alloca offsets are activation constants, and reading them through
	// fm on every load/store costs a dependent pointer chase in the
	// hottest loop the simulator has.
	certs, allocaOff := fm.certs, fm.allocaOff
	loops := 0 // consecutive back edges of blk (loopBack)
	for {
		if err := m.tick(); err != nil {
			return 0, err
		}
		if m.Trace != nil && m.CovEvents {
			m.emitBlock(fr.fn, blk.Index())
		}
		for _, in := range blk.Instrs {
			if err := m.step(fr, in, localBase, certs, allocaOff); err != nil {
				return 0, m.locate(fr, fm, err)
			}
		}
		m.Clock.Advance(CostInstr) // terminator
		m.InstrCount++
		next := blk
		switch blk.Term.Op {
		case ir.TermBr:
			next = blk.Term.Succs[0]
		case ir.TermCondBr:
			c, err := m.eval(fr, blk.Term.Cond)
			if err != nil {
				return 0, m.locate(fr, fm, err)
			}
			if c != 0 {
				next = blk.Term.Succs[0]
			} else {
				next = blk.Term.Succs[1]
			}
		case ir.TermRet:
			if blk.Term.Val == nil {
				return 0, nil
			}
			v, err := m.eval(fr, blk.Term.Val)
			if err != nil {
				return 0, m.locate(fr, fm, err)
			}
			return v, nil
		default:
			return 0, fmt.Errorf("mach: unterminated block %s in %s", blk.Name, fr.fn.Name)
		}
		if next == blk {
			loops = m.loopBack(fr, loops)
		} else {
			loops = 0
		}
		blk = next
	}
}

// tick enforces the cycle budget and dispatches pending IRQs at block
// boundaries.
func (m *Machine) tick() error {
	if m.Clock.Now() > m.MaxCycles {
		return ErrCycleLimit
	}
	if m.inIRQ || len(m.irqs) == 0 {
		return nil
	}
	for _, b := range m.irqs {
		if b.src.IRQPending() {
			b.src.IRQAck()
			m.exceptions++
			m.inIRQ = true
			wasPriv := m.Privileged
			m.Privileged = true // hardware escalates for exception entry
			m.Clock.Advance(CostExcEntry)
			if m.Trace != nil {
				m.emitExc(trace.EvExcEntry, trace.ExcIRQ, CostExcEntry)
				m.Trace.Emit(trace.Event{
					Cycle: m.Clock.Now(), Kind: trace.EvIRQ, Op: -1, Arg: m.traceID(b.handler),
				})
			}
			_, err := m.call(b.handler, nil)
			m.Clock.Advance(CostExcReturn)
			if m.Trace != nil {
				m.emitExc(trace.EvExcReturn, trace.ExcIRQ, CostExcReturn)
			}
			m.Privileged = wasPriv
			m.inIRQ = false
			if err != nil {
				return fmt.Errorf("mach: IRQ handler %s: %w", b.handler.Name, err)
			}
		}
	}
	return nil
}

// locate wraps err with the innermost faulting frame (function, code
// address, instruction count), exactly once: outer frames pass an
// existing ExecError through untouched. Halts and cycle-limit hits are
// program outcomes, not located failures.
func (m *Machine) locate(fr *frame, fm *funcMeta, err error) error {
	if errors.Is(err, errHalt) || errors.Is(err, ErrCycleLimit) {
		return err
	}
	var ee *ExecError
	if errors.As(err, &ee) {
		return err
	}
	return &ExecError{Fn: fr.fn.Name, PC: fm.addr, Instr: m.InstrCount, Err: err}
}

func (m *Machine) step(fr *frame, in *ir.Instr, localBase uint32, certs []byte, allocaOff []int32) error {
	// Instruction-count injection trigger (cycle-point perturbations
	// that are not tied to a function entry).
	if inj := m.inj; inj != nil && inj.Func == nil && m.InstrCount >= inj.At {
		m.inj = nil
		if err := inj.Fire(m); err != nil {
			return err
		}
	}
	m.Clock.Advance(CostInstr)
	m.InstrCount++
	switch in.Op {
	case ir.OpBin:
		a, err := m.eval(fr, in.Args[0])
		if err != nil {
			return err
		}
		b, err := m.eval(fr, in.Args[1])
		if err != nil {
			return err
		}
		fr.regs[in.ID()] = evalBin(in.Kind, a, b)

	case ir.OpLoad:
		addr, err := m.eval(fr, in.Args[0])
		if err != nil {
			return err
		}
		var v uint32
		if c := certs; c != nil && uint(in.ID()) < uint(len(c)) &&
			c[in.ID()]&CertLoad != 0 && !m.Privileged && !DisableProofs {
			v, err = m.loadProven(addr, in.Typ.Size())
		} else {
			v, err = m.loadChecked(addr, in.Typ.Size())
		}
		if err != nil {
			return err
		}
		fr.regs[in.ID()] = v

	case ir.OpStore:
		addr, err := m.eval(fr, in.Args[0])
		if err != nil {
			return err
		}
		v, err := m.eval(fr, in.Args[1])
		if err != nil {
			return err
		}
		if c := certs; c != nil && uint(in.ID()) < uint(len(c)) &&
			c[in.ID()]&CertStore != 0 && !m.Privileged && !DisableProofs {
			return m.storeProven(addr, in.Typ.Size(), v)
		}
		return m.storeChecked(addr, in.Typ.Size(), v)

	case ir.OpAlloca:
		fr.regs[in.ID()] = localBase + uint32(allocaOff[in.ID()])

	case ir.OpFieldAddr:
		base, err := m.eval(fr, in.Args[0])
		if err != nil {
			return err
		}
		fr.regs[in.ID()] = base + uint32(in.Off)

	case ir.OpIndexAddr:
		base, err := m.eval(fr, in.Args[0])
		if err != nil {
			return err
		}
		idx, err := m.eval(fr, in.Args[1])
		if err != nil {
			return err
		}
		fr.regs[in.ID()] = base + idx*uint32(in.Off)

	case ir.OpCall:
		args, err := m.evalArgs(fr, in.Args)
		if err != nil {
			return err
		}
		ret, err := m.dispatchCall(fr.fn, in.Fn, args)
		if err != nil {
			return err
		}
		fr.regs[in.ID()] = ret

	case ir.OpICall:
		target, err := m.eval(fr, in.Args[0])
		if err != nil {
			return err
		}
		callee := m.funcAt[target]
		if callee == nil {
			// The hardware model: branching to an address that is not a
			// function entry escalates to a usage fault (corrupted code
			// pointer), which the monitor's recovery policies can absorb
			// exactly like a memory fault.
			f := &Fault{Kind: FaultUsage, Addr: target, Privileged: m.Privileged}
			if m.Trace != nil {
				m.emitFault(f)
			}
			return f
		}
		args, err := m.evalArgs(fr, in.Args[1:])
		if err != nil {
			return err
		}
		ret, err := m.dispatchCall(fr.fn, callee, args)
		if err != nil {
			return err
		}
		fr.regs[in.ID()] = ret

	case ir.OpSvc:
		args, err := m.evalArgs(fr, in.Args)
		if err != nil {
			return err
		}
		ret, err := m.svcCall(in.Fn, args)
		if err != nil {
			return err
		}
		fr.regs[in.ID()] = ret

	case ir.OpHalt:
		return errHalt

	default:
		return fmt.Errorf("mach: unknown op %d in %s", in.Op, fr.fn.Name)
	}
	return nil
}

// dispatchCall runs the OnCall/OnReturn interposition (ACES compartment
// switching) around a plain call.
func (m *Machine) dispatchCall(caller, callee *ir.Function, args []uint32) (uint32, error) {
	if m.Trace != nil {
		m.Trace.Emit(trace.Event{
			Cycle: m.Clock.Now(), Kind: trace.EvCall, Op: -1,
			Arg: m.traceID(callee), Arg2: m.traceID(caller),
		})
	}
	if m.Handlers.OnCall != nil {
		if err := m.Handlers.OnCall(caller, callee); err != nil {
			return 0, err
		}
	}
	ret, err := m.call(callee, args)
	if err != nil {
		return 0, err
	}
	if m.Trace != nil {
		m.Trace.Emit(trace.Event{
			Cycle: m.Clock.Now(), Kind: trace.EvCallRet, Op: -1, Arg: m.traceID(callee),
		})
	}
	if m.Handlers.OnReturn != nil {
		if err := m.Handlers.OnReturn(caller, callee); err != nil {
			return 0, err
		}
	}
	return ret, nil
}

// svcCall implements the SVC-wrapped operation entry: exception entry,
// monitor enter (privileged), unprivileged body, exception for exit,
// monitor exit. A failing body consults the SvcFault handler, which may
// re-enter it (RestartOperation) or complete the SVC with a sentinel
// (Quarantine) instead of unwinding.
func (m *Machine) svcCall(entry *ir.Function, args []uint32) (uint32, error) {
	m.SwitchCount++
	m.exceptions++
	m.Clock.Advance(CostExcEntry)
	if m.Trace != nil {
		m.emitExc(trace.EvExcEntry, trace.ExcSVC, CostExcEntry)
	}
	wasPriv := m.Privileged
	if m.Handlers.SvcEnter != nil {
		m.Privileged = true
		newArgs, err := m.Handlers.SvcEnter(entry, args)
		// Drop privilege before acting on the result so an error return
		// cannot leak the exception-entry escalation to the caller.
		m.Privileged = wasPriv
		if err != nil {
			var skip *SvcSkip
			if errors.As(err, &skip) {
				m.Clock.Advance(CostExcReturn)
				if m.Trace != nil {
					m.emitExc(trace.EvExcReturn, trace.ExcSVC, CostExcReturn)
				}
				return skip.Ret, nil
			}
			return 0, fmt.Errorf("mach: svc enter %s: %w", entry.Name, err)
		}
		args = newArgs
	}
	m.Clock.Advance(CostExcReturn)
	if m.Trace != nil {
		m.emitExc(trace.EvExcReturn, trace.ExcSVC, CostExcReturn)
	}

	for {
		ret, err := m.call(entry, args)
		if err != nil {
			if m.Handlers.SvcFault == nil || errors.Is(err, errHalt) {
				return 0, err
			}
			m.Clock.Advance(CostExcEntry)
			if m.Trace != nil {
				m.emitExc(trace.EvExcEntry, trace.ExcSVC, CostExcEntry)
			}
			m.Privileged = true
			res := m.Handlers.SvcFault(entry, err)
			m.Privileged = wasPriv
			m.Clock.Advance(CostExcReturn)
			if m.Trace != nil {
				m.emitExc(trace.EvExcReturn, trace.ExcSVC, CostExcReturn)
			}
			switch res.Action {
			case SvcRetry:
				continue
			case SvcReturn:
				// The handler already unwound the operation context;
				// running the exit hook would unwind it twice.
				return res.Ret, nil
			default:
				return 0, err
			}
		}

		m.Clock.Advance(CostExcEntry)
		if m.Trace != nil {
			m.emitExc(trace.EvExcEntry, trace.ExcSVC, CostExcEntry)
		}
		if m.Handlers.SvcExit != nil {
			m.Privileged = true
			err := m.Handlers.SvcExit(entry, ret)
			m.Privileged = wasPriv
			if err != nil {
				return 0, fmt.Errorf("mach: svc exit %s: %w", entry.Name, err)
			}
		}
		m.Clock.Advance(CostExcReturn)
		if m.Trace != nil {
			m.emitExc(trace.EvExcReturn, trace.ExcSVC, CostExcReturn)
		}
		return ret, nil
	}
}

// evalArgs evaluates call operands into the frame's scratch buffer.
// The returned slice aliases fr.argbuf and is valid only until this
// frame issues its next call; callees consume it immediately (register
// args are copied, the rest are spilled to the simulated stack) and the
// monitor's SvcEnter copies before retaining.
func (m *Machine) evalArgs(fr *frame, vals []ir.Value) ([]uint32, error) {
	if cap(fr.argbuf) < len(vals) {
		fr.argbuf = make([]uint32, len(vals))
	}
	args := fr.argbuf[:len(vals)]
	for i, v := range vals {
		a, err := m.eval(fr, v)
		if err != nil {
			return nil, err
		}
		args[i] = a
	}
	return args, nil
}

// eval resolves an operand to a machine word.
func (m *Machine) eval(fr *frame, v ir.Value) (uint32, error) {
	switch v := v.(type) {
	case ir.Const:
		return v.V, nil
	case *ir.Instr:
		return fr.regs[v.ID()], nil
	case *ir.Param:
		if v.Index < 4 {
			return fr.args[v.Index], nil
		}
		return m.loadChecked(fr.argBase+uint32(4*(v.Index-4)), 4)
	case *ir.Global:
		addr, f := m.GlobalAddr(v, m.Privileged)
		if f != nil {
			return m.handleFault(f)
		}
		return addr, nil
	case *ir.Function:
		return m.FuncAddr(v), nil
	}
	return 0, fmt.Errorf("mach: cannot evaluate operand %T", v)
}

// loadChecked performs a load with privilege/MPU checks, routing faults
// to the installed handlers.
func (m *Machine) loadChecked(addr uint32, size int) (uint32, error) {
	m.Clock.Advance(CostMem)
	m.proofChecked++
	v, f := m.Bus.Load(addr, size, m.Privileged)
	if f == nil {
		return v, nil
	}
	return m.handleFault(f)
}

// storeChecked performs a store with privilege/MPU checks.
func (m *Machine) storeChecked(addr uint32, size int, v uint32) error {
	m.Clock.Advance(CostMem)
	m.proofChecked++
	f := m.Bus.Store(addr, size, v, m.Privileged)
	if m.watch != nil {
		m.notifyStore(addr, size, v, false, f)
	}
	if f == nil {
		return nil
	}
	_, err := m.handleFault(f)
	return err
}

// handleFault routes a fault to the matching handler; the handler runs
// privileged (hardware exception entry).
func (m *Machine) handleFault(f *Fault) (uint32, error) {
	m.exceptions++
	if m.Trace != nil {
		m.emitFault(f)
	}
	var h func(*Fault) FaultResolution
	switch f.Kind {
	case FaultMemManage:
		h = m.Handlers.MemManage
	case FaultBus:
		h = m.Handlers.BusFault
	}
	if h == nil {
		return 0, f
	}
	m.Clock.Advance(CostExcEntry)
	if m.Trace != nil {
		m.emitExc(trace.EvExcEntry, trace.ExcFault, CostExcEntry)
	}
	wasPriv := m.Privileged
	m.Privileged = true
	res := h(f)
	m.Privileged = wasPriv
	m.Clock.Advance(CostExcReturn)
	if m.Trace != nil {
		m.emitExc(trace.EvExcReturn, trace.ExcFault, CostExcReturn)
		m.Trace.Emit(trace.Event{
			Cycle: m.Clock.Now(), Kind: trace.EvFaultHandled, Op: -1, Arg: uint32(res.Action),
		})
	}

	switch res.Action {
	case FaultRetry:
		if f.Write {
			return 0, m.retryStore(f)
		}
		return m.retryLoad(f)
	case FaultEmulated:
		return res.Value, nil
	default:
		return 0, f
	}
}

func (m *Machine) retryLoad(f *Fault) (uint32, error) {
	v, f2 := m.Bus.Load(f.Addr, f.Size, m.Privileged)
	if f2 != nil {
		return 0, f2 // no second chance: avoids handler livelock
	}
	return v, nil
}

func (m *Machine) retryStore(f *Fault) error {
	if f2 := m.Bus.Store(f.Addr, f.Size, f.Val, m.Privileged); f2 != nil {
		return f2
	}
	return nil
}

func evalBin(k ir.BinKind, a, b uint32) uint32 {
	switch k {
	case ir.Add:
		return a + b
	case ir.Sub:
		return a - b
	case ir.Mul:
		return a * b
	case ir.Div:
		if b == 0 {
			return 0 // ARM UDIV returns 0 on divide-by-zero by default
		}
		return a / b
	case ir.Rem:
		if b == 0 {
			return 0
		}
		return a % b
	case ir.And:
		return a & b
	case ir.Or:
		return a | b
	case ir.Xor:
		return a ^ b
	case ir.Shl:
		return a << (b & 31)
	case ir.Shr:
		return a >> (b & 31)
	case ir.Eq:
		return b2u(a == b)
	case ir.Ne:
		return b2u(a != b)
	case ir.Lt:
		return b2u(a < b)
	case ir.Le:
		return b2u(a <= b)
	case ir.Gt:
		return b2u(a > b)
	case ir.Ge:
		return b2u(a >= b)
	}
	return 0
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
