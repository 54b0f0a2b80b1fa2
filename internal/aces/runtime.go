package aces

import (
	"fmt"

	"opec/internal/image"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/trace"
)

// Runtime is the ACES reference monitor: it interposes on every call
// and, when the callee lives in a different compartment, performs a
// compartment switch — save context, reprogram the MPU for the callee's
// compartment, adjust the privilege level (lifted compartments run
// privileged). Returns switch back.
type Runtime struct {
	B   *Build
	Bus *mach.Bus
	M   *mach.Machine

	cur   *Compartment
	stack []*Compartment

	// Stats for the comparison experiments.
	Switches     uint64
	EmulatorHits uint64

	tr          *trace.Buffer
	compNameIDs []uint32

	// Derived once at boot and never written after: each compartment's
	// switch-time plan, indexed by Compartment.ID, and each function's
	// compartment, indexed by ir.Function.Index.
	plans  []plan
	compOf []*Compartment
}

// Runtime MPU region roles.
const (
	regionBackground = 0
	regionCode       = 1
	regionStack      = 2
	regionData0      = 3 // 3..6: variable groups
	regionPeriph     = 7 // merged peripheral window
)

// planSlots are the regions a compartment switch writes: background,
// code, stack, the DataRegionLimit data slots and the peripheral
// window. The data slots past the limit (5 and 6) are never written.
const planSlots uint8 = 1<<regionBackground | 1<<regionCode | 1<<regionStack |
	(1<<DataRegionLimit-1)<<regionData0 | 1<<regionPeriph

// plan is one compartment's switch-time protection: the regions a
// switch writes into planSlots, and whether the compartment touches
// heap pools, which decides both its heap fallback region and whether
// memManage emulates a heap access.
type plan struct {
	regions [mach.NumRegions]mach.Region
	heap    bool
}

// SwitchCost approximates one ACES compartment switch: the dispatcher
// trampoline, context save/restore, and reprogramming the data and
// peripheral regions — several hundred cycles on the reference
// implementation, which is why ACES's per-call switching dominates its
// runtime overhead (Table 2).
const SwitchCost = 600

// Boot initializes memory, configures the MPU for main's compartment,
// and drops privilege (unless main's compartment is lifted).
func Boot(b *Build, bus *mach.Bus) (*Runtime, error) {
	mainFn := b.Mod.Func("main")
	if mainFn == nil {
		return nil, fmt.Errorf("aces: no main")
	}
	rt := &Runtime{B: b, Bus: bus, plans: make([]plan, len(b.Comps))}
	for _, c := range b.Comps {
		p, err := b.planFor(c)
		if err != nil {
			return nil, err
		}
		rt.plans[c.ID] = p
	}
	rt.compOf = make([]*Compartment, len(b.Mod.Functions))
	for i, f := range b.Mod.Functions {
		rt.compOf[i] = b.CompOf[f]
	}
	if rt.cur = rt.compartment(mainFn); rt.cur == nil {
		return nil, fmt.Errorf("aces: main has no compartment")
	}
	m := mach.NewMachine(b.Mod, bus, mach.FlashBase)
	rt.M = m

	for g, addr := range b.GlobalAddr {
		for i := 0; i < g.Size(); i++ {
			var v uint32
			if i < len(g.Init) {
				v = uint32(g.Init[i])
			}
			bus.RawStore(addr+uint32(i), 1, v)
		}
	}
	m.GlobalAddr = image.FixedGlobals(b.Mod, b.GlobalAddr)
	m.StackTop = b.StackTop
	m.StackLimit = b.StackLimit
	m.SP = b.StackTop

	m.Handlers.OnCall = rt.onCall
	m.Handlers.OnReturn = rt.onReturn
	m.Handlers.MemManage = rt.memManage

	rt.applyMPU(rt.cur)
	bus.MPU.SetEnabled(true)
	m.Privileged = rt.cur.Privileged
	return rt, nil
}

// AttachTrace connects the runtime and its machine to a trace buffer.
// Compartment switches appear as OpActivate events keyed by compartment
// ID, so the same profiler that attributes OPEC operations attributes
// ACES compartments.
func (rt *Runtime) AttachTrace(buf *trace.Buffer) {
	rt.tr = buf
	rt.M.AttachTrace(buf)
	rt.compNameIDs = make([]uint32, len(rt.B.Comps))
	for i, c := range rt.B.Comps {
		rt.compNameIDs[i] = buf.Intern("comp:" + c.Name)
	}
	rt.emitActivate(rt.cur)
}

// compName returns the interned name id for a compartment.
func (rt *Runtime) compName(c *Compartment) uint32 {
	if c.ID >= 0 && c.ID < len(rt.compNameIDs) {
		return rt.compNameIDs[c.ID]
	}
	return rt.tr.Intern("comp:" + c.Name)
}

// emitActivate records that c's compartment now owns the CPU.
func (rt *Runtime) emitActivate(c *Compartment) {
	if rt.tr == nil {
		return
	}
	rt.tr.Emit(trace.Event{
		Cycle: rt.M.Clock.Now(), Kind: trace.EvOpActivate,
		Op: int32(c.ID), Arg: rt.compName(c),
	})
}

// switchSpan records one compartment-switch span of dur cycles ending
// now, mirroring the OPEC monitor's PhaseSwitch accounting.
func (rt *Runtime) switchSpan(dur uint64) {
	if rt.tr == nil {
		return
	}
	rt.tr.Emit(trace.Event{
		Cycle: rt.M.Clock.Now(), Dur: dur, Kind: trace.EvPhase,
		Op: -1, Arg: uint32(trace.PhaseSwitch),
	})
}

// emuSpan records one micro-emulator span of dur cycles ending now.
func (rt *Runtime) emuSpan(dur uint64) {
	if rt.tr == nil {
		return
	}
	rt.tr.Emit(trace.Event{
		Cycle: rt.M.Clock.Now(), Dur: dur, Kind: trace.EvPhase,
		Op: -1, Arg: uint32(trace.PhaseEmu),
	})
}

// Counters implements trace.CounterSource for the comparison runtime.
func (rt *Runtime) Counters() []trace.Counter {
	return []trace.Counter{
		{Name: "aces.switches", Value: rt.Switches},
		{Name: "aces.emulator_hits", Value: rt.EmulatorHits},
	}
}

// Run executes main under the runtime.
func (rt *Runtime) Run() error {
	_, err := rt.M.Run(rt.B.Mod.MustFunc("main"))
	return err
}

// Current returns the executing compartment.
func (rt *Runtime) Current() *Compartment { return rt.cur }

// compartment returns f's compartment, the one b.CompOf[f] names. A
// function the boot-time table does not hold at its index is looked up
// in the map.
func (rt *Runtime) compartment(f *ir.Function) *Compartment {
	if i := f.Index(); i >= 0 && i < len(rt.compOf) && rt.B.Mod.Functions[i] == f {
		return rt.compOf[i]
	}
	return rt.B.CompOf[f]
}

func (rt *Runtime) onCall(caller, callee *ir.Function) error {
	next := rt.compartment(callee)
	if next == nil || next == rt.cur {
		rt.stack = append(rt.stack, nil) // no switch marker
		return nil
	}
	rt.stack = append(rt.stack, rt.cur)
	rt.Switches++
	rt.emitActivate(next) // entering compartment owns the switch-in cost
	rt.M.Clock.Advance(SwitchCost)
	rt.cur = next
	rt.applyMPU(next)
	rt.M.Privileged = next.Privileged
	rt.switchSpan(SwitchCost)
	if rt.tr != nil {
		rt.tr.Emit(trace.Event{
			Cycle: rt.M.Clock.Now(), Kind: trace.EvGateEnter,
			Op: int32(next.ID), Arg: rt.tr.Intern(callee.Name),
		})
	}
	return nil
}

func (rt *Runtime) onReturn(caller, callee *ir.Function) error {
	if len(rt.stack) == 0 {
		return fmt.Errorf("aces: unbalanced compartment return")
	}
	prev := rt.stack[len(rt.stack)-1]
	rt.stack = rt.stack[:len(rt.stack)-1]
	if prev == nil {
		return nil
	}
	if rt.tr != nil {
		rt.tr.Emit(trace.Event{
			Cycle: rt.M.Clock.Now(), Kind: trace.EvGateExit,
			Op: int32(rt.cur.ID), Arg: rt.tr.Intern(callee.Name),
		})
	}
	rt.M.Clock.Advance(SwitchCost)
	rt.cur = prev
	rt.applyMPU(prev)
	rt.M.Privileged = prev.Privileged
	rt.switchSpan(SwitchCost)
	rt.emitActivate(prev) // exiting compartment owns the switch-out cost
	return nil
}

// memManage models the ACES micro-emulator for stack accesses: an
// access inside the stack reservation that the region setup rejected is
// checked against the (profiled) allow list — modeled as always-allowed
// within the stack — emulated, and charged its considerable cost.
func (rt *Runtime) memManage(f *mach.Fault) mach.FaultResolution {
	// Heap access by a heap-using compartment whose group regions are
	// already full: handled like the stack, via emulation.
	if f.Addr >= rt.B.HeapBase && f.Addr < rt.B.HeapBase+rt.B.HeapSize && rt.plans[rt.cur.ID].heap {
		rt.EmulatorHits++
		rt.M.Clock.Advance(60)
		rt.emuSpan(60)
		if f.Write {
			rt.Bus.RawStore(f.Addr, f.Size, f.Val)
			return mach.FaultResolution{Action: mach.FaultEmulated}
		}
		v, _ := rt.Bus.RawLoad(f.Addr, f.Size)
		return mach.FaultResolution{Action: mach.FaultEmulated, Value: v}
	}
	if f.Addr >= rt.B.StackLimit && f.Addr < rt.B.StackTop {
		rt.EmulatorHits++
		rt.M.Clock.Advance(60) // decode + allowlist walk + emulation
		rt.emuSpan(60)
		if f.Write {
			rt.Bus.RawStore(f.Addr, f.Size, f.Val)
			return mach.FaultResolution{Action: mach.FaultEmulated}
		}
		v, _ := rt.Bus.RawLoad(f.Addr, f.Size)
		return mach.FaultResolution{Action: mach.FaultEmulated, Value: v}
	}
	return mach.FaultResolution{Action: mach.FaultAbort}
}

// applyMPU programs the compartment's region set, one write per plan
// slot.
func (rt *Runtime) applyMPU(c *Compartment) {
	rt.Bus.MPU.Program(&rt.plans[c.ID].regions, planSlots)
}

// planFor derives c's plan: the background read-only map, code, the
// full stack (micro-emulator abstraction), up to DataRegionLimit
// variable-group regions with the heap as the fallback for the first
// free one, and the merged peripheral window. Every written slot is
// validated here, so a bad plan fails boot instead of the first switch
// into the compartment.
func (b *Build) planFor(c *Compartment) (plan, error) {
	p := plan{heap: c.heapRegionNeeded()}
	r := &p.regions
	r[regionBackground] = mach.Region{
		Enabled: true, Base: 0, SizeLog2: 32, Perm: mach.APPrivRWUnprivRO,
	}
	r[regionCode] = mach.Region{
		Enabled: true, Base: mach.FlashBase,
		SizeLog2: mach.RegionSizeFor(b.FlashUsed), Perm: mach.APRO,
	}
	r[regionStack] = mach.Region{
		Enabled: true, Base: b.StackLimit,
		SizeLog2: mach.RegionSizeFor(int(b.StackTop - b.StackLimit)), Perm: mach.APRW,
	}
	for i := 0; i < DataRegionLimit; i++ {
		slot := regionData0 + i
		if i < len(c.Groups) {
			s := c.Groups[i].Section()
			r[slot] = mach.Region{
				Enabled: true, Base: s.Addr, SizeLog2: s.RegionLog2, Perm: mach.APRW,
			}
		} else if i == len(c.Groups) && p.heap {
			r[slot] = mach.Region{
				Enabled: true, Base: b.HeapBase,
				SizeLog2: mach.RegionSizeFor(int(b.HeapSize)), Perm: mach.APRW,
			}
		}
	}
	if c.PeriphWindow != nil {
		r[regionPeriph] = *c.PeriphWindow
	}
	for i := range r {
		if err := r[i].Validate(); err != nil {
			return p, fmt.Errorf("aces: compartment %s: MPU slot %d: %w", c.Name, i, err)
		}
	}
	return p, nil
}

// heapRegionNeeded reports whether the compartment touches heap pools.
func (c *Compartment) heapRegionNeeded() bool {
	for g := range c.Deps.Globals {
		if g.HeapPool {
			return true
		}
	}
	return false
}
