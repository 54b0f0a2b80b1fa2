// Package monitor implements OPEC-Monitor, the privileged reference
// monitor of Section 5. It is "linked" with the application by
// installing itself as the machine's SVC, MemManage and BusFault
// handlers. At boot it initializes shadow copies and the variables
// relocation table, configures the MPU for the default operation and
// drops privilege. At every operation switch it sanitizes and
// synchronizes shared shadow variables, redirects recorded pointer
// fields, relocates stack-resident entry arguments across stack
// sub-regions, and reprograms the MPU. At runtime faults it virtualizes
// the four peripheral MPU regions (round-robin) and emulates
// unprivileged load/store accesses to core peripherals on the PPB.
package monitor

import (
	"errors"
	"fmt"

	"opec/internal/core"
	"opec/internal/image"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/trace"
)

// Stats counts monitor activity; the evaluation and the ablation
// benchmarks read these.
type Stats struct {
	Switches     uint64 // operation enters (SVC)
	WordsSynced  uint64 // 32-bit words moved during synchronization
	RelocUpdates uint64 // relocation-table slot writes
	PtrRedirects uint64 // pointer fields redirected across sections
	StackRelocs  uint64 // argument buffers relocated across sub-regions
	PeriphRemaps uint64 // MPU virtualization events (region swaps)
	Emulations   uint64 // PPB load/store emulations

	// SanitizeRejects counts critical-variable range checks that failed
	// at a gate (each one aborts or triggers recovery); SvcFaults counts
	// policy consultations for faulting operation bodies.
	SanitizeRejects uint64
	SvcFaults       uint64

	// Gate rejections by reason, counted unconditionally (the trace
	// events carrying the same distinction are emitted only when a trace
	// is attached). The fuzzing campaigns aggregate these per trial.
	GateRejectNonEntry    uint64 // forged SVC into a non-entry function
	GateRejectQuarantined uint64 // SVC for an operation the policy disabled

	// Recovery-policy activity (zero under the abort baseline).
	Restarts      uint64 // operation restarts (RestartOperation policy)
	Quarantines   uint64 // operations disabled (Quarantine policy)
	Escapes       uint64 // faults the policy gave up on (retries exhausted)
	RestartCycles uint64 // modeled cycles spent re-initializing + backoff
}

// Counters implements trace.CounterSource; the slice is pre-sorted by
// name, so it renders stably without callers re-sorting.
func (s *Stats) Counters() []trace.Counter {
	return []trace.Counter{
		{Name: "monitor.emulations", Value: s.Emulations},
		{Name: "monitor.escapes", Value: s.Escapes},
		{Name: "monitor.gate_reject_nonentry", Value: s.GateRejectNonEntry},
		{Name: "monitor.gate_reject_quarantined", Value: s.GateRejectQuarantined},
		{Name: "monitor.periph_remaps", Value: s.PeriphRemaps},
		{Name: "monitor.ptr_redirects", Value: s.PtrRedirects},
		{Name: "monitor.quarantines", Value: s.Quarantines},
		{Name: "monitor.reloc_updates", Value: s.RelocUpdates},
		{Name: "monitor.restart_cycles", Value: s.RestartCycles},
		{Name: "monitor.restarts", Value: s.Restarts},
		{Name: "monitor.sanitize_rejects", Value: s.SanitizeRejects},
		{Name: "monitor.stack_relocs", Value: s.StackRelocs},
		{Name: "monitor.svc_faults", Value: s.SvcFaults},
		{Name: "monitor.switches", Value: s.Switches},
		{Name: "monitor.words_synced", Value: s.WordsSynced},
	}
}

// switchBookkeeping is the fixed cycle cost charged at each gate enter
// and exit for context save/restore bookkeeping.
const switchBookkeeping = 32

// ModeledSwitchCycles is the fixed, data-independent monitor cost of
// one complete operation activation on the MPU backend: exception
// entry/return around both monitor legs, enter/exit bookkeeping, the
// stack sub-region write and the full region-file program (enter) and
// restore (exit). Synchronization, relocation and emulation costs are
// data-dependent and excluded; the profiler's switch bucket measures
// exactly this quantity from live runs (the Table 4 consistency check).
const ModeledSwitchCycles = 2 * (mach.CostExcEntry + mach.CostExcReturn +
	switchBookkeeping + mach.CostMPUWrite + mach.NumRegions*mach.CostMPUWrite)

// AbortError is a monitor-initiated program abort (policy violation).
type AbortError struct {
	Reason string
	Cause  error // sentinel classifying the violation, if any
}

func (e *AbortError) Error() string { return "opec-monitor: abort: " + e.Reason }

func (e *AbortError) Unwrap() error { return e.Cause }

// ErrSanitization is wrapped by aborts caused by a critical global
// failing its developer-provided range check (Section 5.3).
var ErrSanitization = errors.New("sanitization check failed")

// Monitor is the runtime reference monitor for one booted image.
type Monitor struct {
	B   *core.Build
	Bus *mach.Bus
	M   *mach.Machine

	Stats Stats

	// Policy selects the reaction to faults contained inside an
	// operation (recovery.go). May be set any time before the faulting
	// gate unwinds; the zero value aborts, as the paper does.
	Policy Policy

	cur *core.Operation
	// ctxs is the operation context stack, pooled by gate depth as the
	// machine pools frames: ctxs[:depth] are live, and a gate entering
	// at a depth resets and reuses the context left there.
	ctxs  []*opContext
	depth int

	restarts    map[*core.Operation]int  // consecutive-fault counters
	quarantined map[*core.Operation]bool // disabled operations

	srd    uint8 // current stack sub-region disable mask (MPU backend)
	rrNext int   // round-robin cursor over the peripheral regions

	// pmp, when non-nil, selects the RISC-V PMP backend (BootPMP): the
	// plan comes from Build.PMPFor and stack hiding uses a precise TOR
	// boundary instead of sub-regions.
	pmp *mach.PMP

	// Derived once at boot and never written after (plan.go): each
	// operation's switch plan by op.ID, the relocation-table slot
	// addresses in ExternalList order, each function's entered
	// operation by ir.Function.Index and each global's resolution by
	// ir.Global.Index.
	plans      []opPlan
	relocSlots []uint32
	entryOps   []*core.Operation
	globals    []globalRes

	// Tracing state (AttachTrace). tr is nil when disabled; every
	// emission site checks it. The span fields measure the gate
	// enter/exit legs: span cycles minus the sync spans emitted inside
	// give the fixed switch cost, so the profiler's buckets partition
	// the monitor's clock advances exactly. syncMute suppresses sync
	// spans while a recovery span covers the same cycles.
	tr        *trace.Buffer
	opNameIDs []uint32 // interned op names by op.ID
	spanStart uint64
	spanSync  uint64
	spanOpen  bool
	syncMute  bool
}

// AttachTrace installs the event bus on the monitor and its machine
// (which forwards to the protection unit), interning operation names
// and emitting the initial activation of the default operation.
func (mon *Monitor) AttachTrace(buf *trace.Buffer) {
	mon.tr = buf
	mon.M.AttachTrace(buf)
	maxID := 0
	for _, op := range mon.B.Ops {
		if op.ID > maxID {
			maxID = op.ID
		}
	}
	mon.opNameIDs = make([]uint32, maxID+1)
	for _, op := range mon.B.Ops {
		mon.opNameIDs[op.ID] = buf.Intern(op.Name)
	}
	mon.emitActivate(mon.cur)
}

// opName returns op's interned name id.
func (mon *Monitor) opName(op *core.Operation) uint32 {
	if op.ID >= 0 && op.ID < len(mon.opNameIDs) {
		return mon.opNameIDs[op.ID]
	}
	return mon.tr.Intern(op.Name)
}

// emitActivate marks op as the owner of subsequent cycles.
func (mon *Monitor) emitActivate(op *core.Operation) {
	if mon.tr == nil {
		return
	}
	mon.tr.Emit(trace.Event{
		Cycle: mon.M.Clock.Now(), Kind: trace.EvOpActivate,
		Op: int32(op.ID), Arg: mon.opName(op),
	})
}

// spanBegin opens a gate-leg measurement at the current cycle.
func (mon *Monitor) spanBegin() {
	if mon.tr == nil {
		return
	}
	mon.spanStart = mon.M.Clock.Now()
	mon.spanSync = 0
	mon.spanOpen = true
}

// spanEnd closes the open gate leg, emitting its fixed switch cost:
// the leg's total cycles minus the sync spans emitted inside it.
func (mon *Monitor) spanEnd() {
	if mon.tr == nil || !mon.spanOpen {
		return
	}
	mon.spanOpen = false
	now := mon.M.Clock.Now()
	mon.tr.Emit(trace.Event{
		Cycle: now, Dur: now - mon.spanStart - mon.spanSync,
		Kind: trace.EvPhase, Op: -1, Arg: uint32(trace.PhaseSwitch),
	})
}

// syncSpan emits one synchronization span of dur cycles, accounting it
// against the open gate leg. Recovery paths mute it: their single
// recovery span already covers these cycles.
func (mon *Monitor) syncSpan(dur uint64) {
	if mon.tr == nil || mon.syncMute || dur == 0 {
		return
	}
	mon.tr.Emit(trace.Event{
		Cycle: mon.M.Clock.Now(), Dur: dur,
		Kind: trace.EvPhase, Op: -1, Arg: uint32(trace.PhaseSync),
	})
	if mon.spanOpen {
		mon.spanSync += dur
	}
}

// emuSpan emits one emulation/virtualization span of dur cycles.
func (mon *Monitor) emuSpan(dur uint64) {
	if mon.tr == nil {
		return
	}
	mon.tr.Emit(trace.Event{
		Cycle: mon.M.Clock.Now(), Dur: dur,
		Kind: trace.EvPhase, Op: -1, Arg: uint32(trace.PhaseEmu),
	})
}

// opContext is the saved execution context of the previous operation
// (Section 5.3): it lives in privileged-only monitor memory.
type opContext struct {
	op           *core.Operation
	savedSP      uint32
	savedSRD     uint8
	savedRegions [mach.NumRegions]mach.Region
	savedPMP     [mach.NumPMPEntries]mach.PMPEntry
	savedRR      int
	relocs       []argReloc
	args         []uint32 // the entry's arguments, as relocated
}

// argReloc records one relocated pointer-argument buffer for copy-back
// at operation exit (Figure 8(e)). fixups restore original pointer
// values inside the relocated copy before it is copied back, so nested
// deep-copied fields do not leak relocated addresses to the caller.
type argReloc struct {
	oldAddr, newAddr uint32
	size             int
	fixups           []ptrFixup
}

type ptrFixup struct {
	off  uint32
	orig uint32
}

// Boot builds a machine for the compiled image, initializes memory per
// Section 5.1 (shadow copies, exception handling, privilege drop) and
// returns the monitor ready to Run, enforcing with the ARMv7-M MPU.
func Boot(b *core.Build, bus *mach.Bus) (*Monitor, error) {
	return boot(b, bus, false)
}

// BootPMP is Boot on the RISC-V PMP backend (the paper's Section 7
// portability target): same compiler output, same monitor logic, with
// the protection plan translated to PMP entries and stack hiding done
// with a precise TOR boundary.
func BootPMP(b *core.Build, bus *mach.Bus) (*Monitor, error) {
	return boot(b, bus, true)
}

func boot(b *core.Build, bus *mach.Bus, usePMP bool) (*Monitor, error) {
	mon := &Monitor{B: b, Bus: bus}
	if err := mon.derivePlans(usePMP); err != nil {
		return nil, err
	}
	m := mach.NewMachine(b.Mod, bus, b.CodeBase)
	mon.M = m

	mon.initMemory()

	m.GlobalAddr = mon.resolveGlobal
	m.Handlers.SvcEnter = mon.svcEnter
	m.Handlers.SvcExit = mon.svcExit
	m.Handlers.SvcFault = mon.svcFault
	m.Handlers.MemManage = mon.memManage
	m.Handlers.BusFault = mon.busFault

	m.StackTop = b.StackTop
	m.StackLimit = b.StackLimit
	m.SP = b.StackTop

	// Configure the protection unit for the default operation and drop
	// privilege.
	mon.cur = b.Ops[0]
	if usePMP {
		mon.pmp = &mach.PMP{}
		bus.Prot = mon.pmp
		mon.applyPMP(mon.cur)
		mon.pmp.Enabled = true
	} else {
		mon.applyMPU(mon.cur)
		mon.setSRD(0)
		bus.MPU.SetEnabled(true)
		// Certificates are proven against the ARMv7-M region plans; they
		// do not transfer to the PMP backend's different layout.
		if b.Proofs != nil {
			m.InstallProofs(b.Proofs.Certs)
		}
	}
	m.Privileged = false
	return mon, nil
}

// Run executes the program from main under the monitor.
func (mon *Monitor) Run() error {
	_, err := mon.M.Run(mon.B.Mod.MustFunc("main"))
	return err
}

// Current returns the operation currently executing.
func (mon *Monitor) Current() *core.Operation { return mon.cur }

// initMemory writes initial values: const globals in Flash, public
// originals, every shadow copy (initialized from the variable's initial
// value, Section 5.1), heap pools, and the relocation table pointing at
// the default operation's view.
func (mon *Monitor) initMemory() {
	b := mon.B
	for g, a := range b.StaticAddr {
		mon.writeInit(a, g)
	}
	for g, a := range b.PublicAddr {
		mon.writeInit(a, g)
	}
	for _, op := range b.Ops {
		for g, a := range b.ShadowAddr[op.ID] {
			mon.writeInit(a, g)
		}
	}
	mon.updateRelocTable(b.Ops[0])
}

// writeInit stores g's boot-image initial value at addr.
func (mon *Monitor) writeInit(addr uint32, g *ir.Global) {
	for i := 0; i < g.Size(); i++ {
		var v uint32
		if i < len(g.Init) {
			v = uint32(g.Init[i])
		}
		mon.Bus.RawStore(addr+uint32(i), 1, v)
	}
}

// resolveGlobal implements the image's symbol semantics: fixed-home
// globals resolve directly; external globals resolve through their
// relocation-table slot with a real (checked, cycle-charged) memory
// read at the accessor's privilege. The boot-time table answers by
// ir.Global.Index; a global it does not hold at its index resolves
// through the build's maps.
func (mon *Monitor) resolveGlobal(g *ir.Global, privileged bool) (uint32, *mach.Fault) {
	var r globalRes
	if i := g.Index(); uint(i) < uint(len(mon.globals)) && mon.globals[i].g == g {
		r = mon.globals[i]
	} else {
		r = mon.resolution(g)
	}
	switch r.kind {
	case resFixed:
		return r.addr, nil
	case resSlot:
		mon.M.Clock.Advance(mach.CostMem)
		return mon.Bus.Load(r.addr, 4, privileged)
	}
	return 0, &mach.Fault{Kind: mach.FaultBus, Privileged: privileged}
}

// svcEnter is the operation-switch entry path (Section 5.3).
func (mon *Monitor) svcEnter(entry *ir.Function, args []uint32) ([]uint32, error) {
	b := mon.B
	next := mon.entryOp(entry)
	if next == nil {
		mon.Stats.GateRejectNonEntry++
		if mon.tr != nil {
			mon.tr.Emit(trace.Event{
				Cycle: mon.M.Clock.Now(), Kind: trace.EvGateReject, Op: -1,
				Arg: mon.M.TraceID(entry), Arg2: trace.RejectNonEntry,
			})
		}
		return nil, &AbortError{Reason: fmt.Sprintf("SVC for non-entry %s", entry.Name)}
	}
	if mon.quarantined[next] {
		// The operation was disabled by the Quarantine policy: answer
		// the gate call immediately with the sentinel, never switching.
		mon.Stats.GateRejectQuarantined++
		mon.M.Clock.Advance(8)
		if mon.tr != nil {
			mon.tr.Emit(trace.Event{
				Cycle: mon.M.Clock.Now(), Kind: trace.EvGateReject, Op: int32(next.ID),
				Arg: mon.M.TraceID(entry), Arg2: trace.RejectQuarantined,
			})
			mon.tr.Emit(trace.Event{
				Cycle: mon.M.Clock.Now(), Dur: 8,
				Kind: trace.EvPhase, Op: -1, Arg: uint32(trace.PhaseSwitch),
			})
		}
		return nil, &mach.SvcSkip{Ret: QuarantineSentinel}
	}
	prev := mon.cur
	mon.Stats.Switches++
	// The entering operation owns the switch-in cost from here on.
	mon.emitActivate(next)
	mon.spanBegin()
	mon.M.Clock.Advance(switchBookkeeping)

	// Write back the previous operation's shadows (with sanitization),
	// then fill the next operation's shadows from the public originals.
	if err := mon.syncOut(prev); err != nil {
		return nil, err
	}
	mon.syncIn(next)
	mon.updateRelocTable(next)
	mon.redirectPointerFields(next)

	// The context pooled at this gate depth, every field reset.
	ctx := mon.ctxAt(mon.depth)
	*ctx = opContext{
		op:           prev,
		savedSP:      mon.M.SP,
		savedSRD:     mon.srd,
		savedRegions: mon.Bus.MPU.Regions,
		savedRR:      mon.rrNext,
		relocs:       ctx.relocs[:0],
		args:         append(ctx.args[:0], args...),
	}
	if mon.pmp != nil {
		ctx.savedPMP = mon.pmp.Entries
	}

	// Stack-argument relocation (Figure 8): copy buffers that live in
	// the previous operation's stack into the entering operation's
	// reach, rewrite the pointer arguments, then disable the
	// sub-regions covering the previous frames.
	newArgs := ctx.args
	for i, spec := range next.StackArgs {
		if i >= len(args) || !spec.IsPtr || spec.PointeeBytes == 0 {
			continue
		}
		p := args[i]
		if p < mon.M.SP || p >= b.StackTop {
			continue // not in a previous stack frame (global, heap, …)
		}
		dst, relIdx, err := mon.relocateBuffer(ctx, p, spec.PointeeBytes)
		if err != nil {
			return nil, err
		}
		newArgs[i] = dst

		// Deep copy (Section 5.2's future-work extension): relocate
		// nested pointer fields that also live on the previous stack,
		// rewriting the fields inside the relocated copy and recording
		// the originals for restore at exit. The parent record is
		// addressed by index: nested relocations may grow ctx.relocs.
		if spec.Elem != nil {
			for _, pf := range ir.PointerFields(spec.Elem) {
				fieldAddr := dst + uint32(pf.Off)
				q, _ := mon.Bus.RawLoad(fieldAddr, 4)
				if q < mon.M.SP && q >= b.StackLimit {
					continue // already within reach
				}
				if q < b.StackLimit || q >= b.StackTop {
					continue // not stack memory at all
				}
				ndst, _, err := mon.relocateBuffer(ctx, q, pf.Elem.Size())
				if err != nil {
					return nil, err
				}
				mon.Bus.RawStore(fieldAddr, 4, ndst)
				ctx.relocs[relIdx].fixups = append(ctx.relocs[relIdx].fixups,
					ptrFixup{off: uint32(pf.Off), orig: q})
			}
		}
	}

	// Hide the previous operations' frames. MPU backend: disable every
	// sub-region fully above the current stack pointer. PMP backend:
	// lower the TOR boundary to the pre-relocation stack pointer
	// (relocated buffers sit below it) — byte-precise, no sub-region
	// granularity loss.
	if mon.pmp != nil {
		mon.applyPMP(next)
		mon.setStackBoundary(ctx.savedSP)
	} else {
		mon.setSRD(srdAbove(mon.M.SP, b.StackBase, b.StackRegionLog2))
		mon.applyMPU(next)
	}
	mon.depth++
	mon.cur = next
	mon.spanEnd()
	if mon.tr != nil {
		mon.tr.Emit(trace.Event{
			Cycle: mon.M.Clock.Now(), Kind: trace.EvGateEnter, Op: int32(next.ID),
			Arg: mon.M.TraceID(entry), Arg2: uint32(len(ctx.relocs)),
		})
	}
	return newArgs, nil
}

// ctxAt returns the pooled context for zero-based gate depth d.
func (mon *Monitor) ctxAt(d int) *opContext {
	for len(mon.ctxs) <= d {
		mon.ctxs = append(mon.ctxs, &opContext{})
	}
	return mon.ctxs[d]
}

// svcExit is the operation-switch exit path (Section 5.3).
func (mon *Monitor) svcExit(entry *ir.Function, _ uint32) error {
	if mon.depth == 0 {
		return &AbortError{Reason: "operation exit without matching enter"}
	}
	mon.depth--
	ctx := mon.ctxs[mon.depth]
	if mon.tr != nil {
		mon.tr.Emit(trace.Event{
			Cycle: mon.M.Clock.Now(), Kind: trace.EvGateExit, Op: int32(mon.cur.ID),
			Arg: mon.M.TraceID(entry),
		})
	}
	mon.spanBegin()
	mon.M.Clock.Advance(switchBookkeeping)

	// Sanitize + write back the exiting operation's shadows, then
	// restore the previous operation's view.
	exited := mon.cur
	if err := mon.syncOut(exited); err != nil {
		return err
	}
	// A clean exit resets the operation's consecutive-fault counter.
	delete(mon.restarts, exited)
	mon.syncIn(ctx.op)
	mon.updateRelocTable(ctx.op)
	mon.redirectPointerFields(ctx.op)

	// Copy relocated argument buffers back (Figure 8(e)), restoring any
	// deep-copied pointer fields to their original targets first so the
	// caller never sees relocated addresses. Reverse order: nested
	// buffers were recorded after their parents.
	var copyBack uint64
	for i := len(ctx.relocs) - 1; i >= 0; i-- {
		r := ctx.relocs[i]
		for _, fx := range r.fixups {
			mon.Bus.RawStore(r.newAddr+fx.off, 4, fx.orig)
		}
		mon.Bus.CopyMem(r.oldAddr, r.newAddr, r.size)
		mon.M.Clock.Advance(uint64((r.size + 3) / 4 * mach.CostWordCopy))
		copyBack += uint64((r.size + 3) / 4 * mach.CostWordCopy)
	}
	mon.syncSpan(copyBack)

	// Restore stack pointer, protection-unit state and the
	// virtualization cursor; general-purpose registers are cleared by
	// the hardware exception return in the prototype (frames are
	// per-activation in this model, so there is no residue to clear).
	mon.M.SP = ctx.savedSP
	if mon.pmp != nil {
		mon.pmp.Entries = ctx.savedPMP
		mon.M.Clock.Advance(mach.NumPMPEntries * mach.CostMPUWrite)
	} else {
		mon.Bus.MPU.RestoreRegions(ctx.savedRegions)
		mon.setSRD(ctx.savedSRD)
		mon.M.Clock.Advance(mach.NumRegions * mach.CostMPUWrite)
	}
	mon.rrNext = ctx.savedRR
	mon.cur = ctx.op
	mon.spanEnd()
	// Execution resumes in the previous operation; everything after this
	// point (including the exception return) is attributed to it.
	mon.emitActivate(ctx.op)
	return nil
}

// relocateBuffer copies size bytes from a previous stack frame to the
// entering operation's reach below the current SP, records the move for
// copy-back, and returns the new address plus the record's index in
// ctx.relocs (an index, not a pointer: later relocations may grow the
// slice).
func (mon *Monitor) relocateBuffer(ctx *opContext, src uint32, size int) (uint32, int, error) {
	dst := (mon.M.SP - uint32(size)) &^ 3
	if dst < mon.B.StackLimit {
		return 0, 0, &AbortError{Reason: "stack exhausted during argument relocation"}
	}
	mon.Bus.CopyMem(dst, src, size)
	mon.M.Clock.Advance(uint64((size + 3) / 4 * mach.CostWordCopy))
	mon.syncSpan(uint64((size + 3) / 4 * mach.CostWordCopy))
	mon.M.SP = dst
	ctx.relocs = append(ctx.relocs, argReloc{oldAddr: src, newAddr: dst, size: size})
	mon.Stats.StackRelocs++
	return dst, len(ctx.relocs) - 1, nil
}

// syncOut writes op's shadow copies back to the public originals,
// sanitizing critical variables first (Section 5.3).
func (mon *Monitor) syncOut(op *core.Operation) error {
	sync := mon.plans[op.ID].sync
	for i := range sync {
		s := &sync[i]
		if s.critical != nil {
			v, _ := mon.Bus.RawLoad(s.shadow, 4)
			ok := s.critical.Contains(v)
			if mon.tr != nil {
				verdict := uint32(0)
				if !ok {
					verdict = 1
				}
				mon.tr.Emit(trace.Event{
					Cycle: mon.M.Clock.Now(), Kind: trace.EvSanitize,
					Op: int32(op.ID), Arg: mon.tr.Intern(s.g.Name), Arg2: verdict,
				})
			}
			if !ok {
				mon.Stats.SanitizeRejects++
				return &AbortError{Reason: fmt.Sprintf(
					"%v: %s=%d outside [%d,%d] leaving operation %s",
					ErrSanitization, s.g.Name, v, s.critical.Min, s.critical.Max, op.Name),
					Cause: ErrSanitization}
			}
		}
		mon.Bus.CopyMem(s.public, s.shadow, s.size)
		mon.chargeSync(s.size)
	}
	return nil
}

// syncIn fills op's shadow copies from the public originals.
func (mon *Monitor) syncIn(op *core.Operation) {
	sync := mon.plans[op.ID].sync
	for i := range sync {
		s := &sync[i]
		mon.Bus.CopyMem(s.shadow, s.public, s.size)
		mon.chargeSync(s.size)
	}
}

func (mon *Monitor) chargeSync(bytes int) {
	words := uint64((bytes + 3) / 4)
	mon.Stats.WordsSynced += words
	mon.M.Clock.Advance(words * mach.CostWordCopy)
	mon.syncSpan(words * mach.CostWordCopy)
}

// updateRelocTable points every external variable's slot at the
// operation's shadow copy, or at the public original when the
// operation does not access the variable (writes there still fault:
// the public section is unprivileged-read-only).
func (mon *Monitor) updateRelocTable(op *core.Operation) {
	var cycles uint64
	for i, addr := range mon.plans[op.ID].reloc {
		mon.Bus.RawStore(mon.relocSlots[i], 4, addr)
		mon.Stats.RelocUpdates++
		mon.M.Clock.Advance(mach.CostMem)
		cycles += mach.CostMem
	}
	mon.syncSpan(cycles)
}

// redirectPointerFields walks the recorded pointer fields of op's
// shadow variables (Section 4.2): a field still pointing into another
// operation's data section is redirected to op's own shadow of the
// same variable (Section 5.3).
func (mon *Monitor) redirectPointerFields(op *core.Operation) {
	b := mon.B
	sync := mon.plans[op.ID].sync
	for i := range sync {
		base := sync[i].shadow
		for _, off := range sync[i].ptrFields {
			p, _ := mon.Bus.RawLoad(base+uint32(off), 4)
			tgtG, tgtOp, tgtOff := mon.findShadow(p)
			if tgtG == nil || tgtOp == op.ID {
				continue
			}
			if own, ok := b.ShadowAddr[op.ID][tgtG]; ok {
				mon.Bus.RawStore(base+uint32(off), 4, own+tgtOff)
				mon.Stats.PtrRedirects++
				mon.M.Clock.Advance(2 * mach.CostMem)
				mon.syncSpan(2 * mach.CostMem)
			}
		}
	}
}

// findShadow locates the external variable and operation whose shadow
// copy contains addr.
func (mon *Monitor) findShadow(addr uint32) (*ir.Global, int, uint32) {
	b := mon.B
	for _, op := range b.Ops {
		sec := b.OpSections[op.ID]
		if sec.Size == 0 || addr < sec.Addr || addr >= sec.Addr+sec.RegionBytes() {
			continue
		}
		for g, a := range b.ShadowAddr[op.ID] {
			if addr >= a && addr < a+uint32(g.Size()) {
				return g, op.ID, addr - a
			}
		}
	}
	return nil, -1, 0
}

// memManage handles MPU violations. Legitimate peripheral accesses of
// the current operation are resolved by virtualizing the four reserved
// peripheral regions with round-robin replacement (Section 5.2,
// Peripherals); everything else aborts the access.
func (mon *Monitor) memManage(f *mach.Fault) mach.FaultResolution {
	if f.Addr >= mach.PeriphBase && f.Addr < mach.PeriphEnd &&
		mon.cur.AllowsPeriphAddr(mon.B.Board, f.Addr) {
		if mon.pmp != nil {
			for _, e := range mon.plans[mon.cur.ID].pmp.Pool {
				if e.Mode == mach.PMPNAPOT && f.Addr >= e.Addr && f.Addr-e.Addr < 1<<e.SizeLog2 {
					nres := core.PMPPoolLast - core.PMPPool0 + 1
					slot := core.PMPPool0 + mon.rrNext
					mon.rrNext = (mon.rrNext + 1) % nres
					mon.pmp.MustSetEntry(slot, e)
					mon.M.Clock.Advance(mach.CostMPUWrite)
					mon.emuSpan(mach.CostMPUWrite)
					mon.Stats.PeriphRemaps++
					return mach.FaultResolution{Action: mach.FaultRetry}
				}
			}
			return mach.FaultResolution{Action: mach.FaultAbort}
		}
		for _, r := range mon.plans[mon.cur.ID].mpu.Pool {
			if f.Addr >= r.Base && f.Addr-r.Base < 1<<r.SizeLog2 {
				slot := core.RegionPeriph0 + mon.rrNext
				mon.rrNext = (mon.rrNext + 1) % (mach.NumRegions - core.RegionPeriph0)
				mon.Bus.MPU.MustSetRegion(slot, r)
				mon.M.Clock.Advance(mach.CostMPUWrite)
				mon.emuSpan(mach.CostMPUWrite)
				mon.Stats.PeriphRemaps++
				return mach.FaultResolution{Action: mach.FaultRetry}
			}
		}
	}
	return mach.FaultResolution{Action: mach.FaultAbort}
}

// busFault emulates unprivileged load/store accesses to core
// peripherals on the PPB for operations whose policy allows the
// register (Section 5.2, Peripherals). This keeps application code
// unprivileged where ACES would lift the whole compartment.
func (mon *Monitor) busFault(f *mach.Fault) mach.FaultResolution {
	if !f.Privileged && mach.IsCorePeriphAddr(f.Addr) && mon.cur.AllowsCoreAddr(f.Addr) {
		mon.Stats.Emulations++
		mon.M.Clock.Advance(20) // decode + emulate cost
		mon.emuSpan(20)
		if f.Write {
			mon.Bus.RawStore(f.Addr, f.Size, f.Val)
			return mach.FaultResolution{Action: mach.FaultEmulated}
		}
		v, _ := mon.Bus.RawLoad(f.Addr, f.Size)
		return mach.FaultResolution{Action: mach.FaultEmulated, Value: v}
	}
	return mach.FaultResolution{Action: mach.FaultAbort}
}

// applyMPU programs regions 0–7 from op's plan in one MPU.Program
// call, the stack slot carrying the current sub-region mask.
func (mon *Monitor) applyMPU(op *core.Operation) {
	plan := mon.plans[op.ID].mpu.Static
	plan[core.RegionStack].SRD = mon.srd
	mon.Bus.MPU.Program(&plan, 0xFF)
	mon.M.Clock.Advance(mach.NumRegions * mach.CostMPUWrite)
	mon.rrNext = 0
}

// applyPMP programs the 16 PMP entries from op's plan.
func (mon *Monitor) applyPMP(op *core.Operation) {
	for i, e := range &mon.plans[op.ID].pmp.Static {
		mon.pmp.Entries[i] = mach.PMPEntry{} // clear
		if e.Mode != mach.PMPOff || i == core.PMPStackLo {
			mon.pmp.MustSetEntry(i, e)
		}
	}
	mon.M.Clock.Advance(mach.NumPMPEntries * mach.CostMPUWrite)
	mon.rrNext = 0
}

// setStackBoundary lowers the PMP TOR top so only [stack base,
// boundary) stays accessible — the PMP counterpart of sub-region
// disabling, without the granularity loss.
func (mon *Monitor) setStackBoundary(boundary uint32) {
	e := mon.pmp.Entries[core.PMPStackHi]
	e.Addr = boundary
	mon.pmp.MustSetEntry(core.PMPStackHi, e)
	mon.M.Clock.Advance(mach.CostMPUWrite)
}

// setSRD updates the stack region's sub-region disable mask.
func (mon *Monitor) setSRD(srd uint8) {
	mon.srd = srd
	r := mon.Bus.MPU.Regions[core.RegionStack]
	if r.Enabled {
		r.SRD = srd
		mon.Bus.MPU.MustSetRegion(core.RegionStack, r)
		mon.M.Clock.Advance(mach.CostMPUWrite)
	}
}

// srdAbove returns the sub-region disable mask hiding every sub-region
// that lies entirely at or above sp (previous operations' frames).
func srdAbove(sp, base uint32, sizeLog2 uint8) uint8 {
	sub := uint32(1) << (sizeLog2 - 3)
	var srd uint8
	for i := 0; i < 8; i++ {
		lo := base + uint32(i)*sub
		if lo >= sp {
			srd |= 1 << i
		}
	}
	return srd
}

// StackBytesFor reports how much stack the image reserves (exported for
// examples and experiments).
func StackBytesFor() int { return image.StackBytes }
