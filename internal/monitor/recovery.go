// Fault recovery policies. The paper's monitor aborts the whole image
// on any contained fault; production firmware wants to degrade
// gracefully instead (CompartOS-style partial relaunch). This file adds
// two recovery policies on top of the abort baseline:
//
//   - RestartOperation re-initializes the faulting operation's data and
//     stack from the boot image (internal globals) and the last
//     sanitized public state (shadows), then re-enters the entry with
//     bounded retries and exponential backoff.
//   - Quarantine disables the operation: its context is unwound without
//     syncing its (suspect) shadows out, its protection plan is never
//     applied again, and every later gate call into it completes
//     immediately with QuarantineSentinel.
//
// Recovery happens at the faulting operation's own gate (the machine's
// SvcFault hook): a fault in a nested operation unwinds to the SVC
// whose operation is current and is handled there, so non-faulting
// operations keep running.
package monitor

import (
	"errors"
	"fmt"

	"opec/internal/core"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/trace"
)

// PolicyKind selects the monitor's reaction to a fault contained
// inside an operation.
type PolicyKind uint8

const (
	// Abort terminates the program (the paper's behaviour).
	Abort PolicyKind = iota
	// RestartOperation re-initializes and re-enters the faulting
	// operation, with bounded retry and exponential backoff.
	RestartOperation
	// Quarantine disables the faulting operation and keeps the rest of
	// the image running.
	Quarantine
)

func (k PolicyKind) String() string {
	switch k {
	case RestartOperation:
		return "restart"
	case Quarantine:
		return "quarantine"
	}
	return "abort"
}

// ParsePolicy resolves a policy name ("abort", "restart", "quarantine")
// to a Policy with default bounds.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "abort", "":
		return Policy{Kind: Abort}, nil
	case "restart":
		return Policy{Kind: RestartOperation}, nil
	case "quarantine":
		return Policy{Kind: Quarantine}, nil
	}
	return Policy{}, fmt.Errorf("monitor: unknown recovery policy %q (want abort | restart | quarantine)", name)
}

// Policy configures fault recovery. The zero value is the abort
// baseline.
type Policy struct {
	Kind PolicyKind
	// MaxRestarts bounds RestartOperation retries per operation; the
	// counter resets when the operation exits cleanly. 0 selects
	// DefaultMaxRestarts.
	MaxRestarts int
	// BackoffBase is the modeled cycle cost of the first restart's
	// backoff delay; it doubles on every consecutive restart of the
	// same operation. 0 selects DefaultBackoffBase.
	BackoffBase uint64
}

// Recovery policy defaults.
const (
	DefaultMaxRestarts = 3
	DefaultBackoffBase = 1 << 10
)

func (p Policy) maxRestarts() int {
	if p.MaxRestarts > 0 {
		return p.MaxRestarts
	}
	return DefaultMaxRestarts
}

func (p Policy) backoffBase() uint64 {
	if p.BackoffBase > 0 {
		return p.BackoffBase
	}
	return DefaultBackoffBase
}

// QuarantineSentinel is the value a gate call into a quarantined
// operation returns instead of executing the entry.
const QuarantineSentinel uint32 = 0xD15AB1ED

// Quarantined reports whether op has been disabled by the Quarantine
// policy.
func (mon *Monitor) Quarantined(op *core.Operation) bool { return mon.quarantined[op] }

// svcFault implements the machine's SvcFault hook: it decides, at the
// faulting operation's own gate, whether the configured policy absorbs
// the failure.
func (mon *Monitor) svcFault(entry *ir.Function, err error) mach.SvcFaultResolution {
	mon.Stats.SvcFaults++
	op := mon.entryOp(entry)
	// Only the innermost faulting operation recovers: if the current
	// operation is not this gate's, the failure belongs to (or already
	// escaped) a nested context and must keep unwinding. Cycle-limit
	// hits are a global budget, not an operation fault.
	if mon.Policy.Kind == Abort || op == nil || op != mon.cur ||
		errors.Is(err, mach.ErrCycleLimit) {
		return mach.SvcFaultResolution{}
	}
	switch mon.Policy.Kind {
	case RestartOperation:
		if mon.restarts[op] >= mon.Policy.maxRestarts() {
			mon.Stats.Escapes++
			if mon.tr != nil {
				mon.tr.Emit(trace.Event{
					Cycle: mon.M.Clock.Now(), Kind: trace.EvRecovery,
					Op: int32(op.ID), Arg: trace.RecoveryEscape,
					Arg2: uint32(mon.restarts[op]),
				})
			}
			return mach.SvcFaultResolution{}
		}
		mon.restart(op)
		return mach.SvcFaultResolution{Action: mach.SvcRetry}
	case Quarantine:
		mon.quarantine(op)
		return mach.SvcFaultResolution{Action: mach.SvcReturn, Ret: QuarantineSentinel}
	}
	return mach.SvcFaultResolution{}
}

// restart re-initializes op and charges the exponential backoff delay.
// The caller re-enters the entry body afterwards (SvcRetry).
func (mon *Monitor) restart(op *core.Operation) {
	start := mon.M.Clock.Now()
	n := mon.restarts[op]
	if mon.restarts == nil {
		mon.restarts = make(map[*core.Operation]int)
	}
	mon.restarts[op] = n + 1
	mon.M.Clock.Advance(mon.Policy.backoffBase() << uint(n))
	// The recovery span below covers reinit end-to-end; mute the inner
	// sync-span emissions so the profiler doesn't count those cycles in
	// both the sync and recovery buckets.
	mon.syncMute = true
	mon.reinitOperation(op)
	mon.syncMute = false
	mon.Stats.Restarts++
	dur := mon.M.Clock.Now() - start
	mon.Stats.RestartCycles += dur
	if mon.tr != nil {
		mon.tr.Emit(trace.Event{
			Cycle: mon.M.Clock.Now(), Dur: dur, Kind: trace.EvRecovery,
			Op: int32(op.ID), Arg: trace.RecoveryRestart, Arg2: uint32(n + 1),
		})
	}
}

// reinitOperation restores op's view of memory to a re-enterable state:
// internal globals from the boot image, shadows from the last sanitized
// public originals, the operation's stack frames zeroed, relocated
// argument buffers re-copied pristine from their originals, and the
// protection plan re-programmed (the fault may have left round-robin
// peripheral regions swapped in).
func (mon *Monitor) reinitOperation(op *core.Operation) {
	b := mon.B
	for _, r := range mon.plans[op.ID].inits {
		mon.writeInit(r.addr, r.g)
		mon.chargeSync(r.g.Size())
	}
	mon.syncIn(op)
	mon.redirectPointerFields(op)

	// Zero the stack below the operation's entry frame. The machine
	// already unwound the failed body, so SP is back at its post-enter
	// value: everything below it is the operation's own dirty frames.
	for a := b.StackLimit; a+4 <= mon.M.SP; a += 4 {
		mon.Bus.RawStore(a, 4, 0)
	}
	mon.M.Clock.Advance(uint64(mon.M.SP-b.StackLimit) / 4 * mach.CostWordCopy)

	// Refresh relocated argument buffers from their (untouched)
	// originals, then re-apply the deep-copy pointer redirects.
	if mon.depth > 0 {
		ctx := mon.ctxs[mon.depth-1]
		for _, r := range ctx.relocs {
			mon.Bus.CopyMem(r.newAddr, r.oldAddr, r.size)
			mon.chargeSync(r.size)
		}
		for _, r := range ctx.relocs {
			for _, fx := range r.fixups {
				for _, nested := range ctx.relocs {
					if nested.oldAddr == fx.orig {
						mon.Bus.RawStore(r.newAddr+fx.off, 4, nested.newAddr)
						break
					}
				}
			}
		}
		if mon.pmp != nil {
			mon.applyPMP(op)
			mon.setStackBoundary(ctx.savedSP)
		} else {
			mon.applyMPU(op)
		}
	} else {
		if mon.pmp != nil {
			mon.applyPMP(op)
		} else {
			mon.applyMPU(op)
		}
	}
}

// quarantine disables op and unwinds its context as an exit would —
// but without syncing its suspect shadows out and without copying
// relocated argument buffers back (relocation copies; the originals
// were never modified). The operation's protection plan is never
// applied again, and svcEnter answers later gate calls with
// QuarantineSentinel.
func (mon *Monitor) quarantine(op *core.Operation) {
	start := mon.M.Clock.Now()
	if mon.quarantined == nil {
		mon.quarantined = make(map[*core.Operation]bool)
	}
	mon.quarantined[op] = true
	mon.Stats.Quarantines++
	delete(mon.restarts, op)

	if mon.depth == 0 {
		mon.emitRecovery(op, trace.RecoveryQuarantine, start)
		return
	}
	mon.depth--
	ctx := mon.ctxs[mon.depth]
	mon.M.Clock.Advance(32)

	// The previous operation's shadows and the public originals are
	// both untouched since this operation entered, so only the
	// relocation table needs to swing back. The recovery span covers the
	// whole unwind, so inner sync spans are muted against double counts.
	mon.syncMute = true
	mon.updateRelocTable(ctx.op)
	mon.syncMute = false

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
	mon.emitRecovery(op, trace.RecoveryQuarantine, start)
	mon.emitActivate(ctx.op)
}

// emitRecovery traces one recovery action spanning [start, now].
func (mon *Monitor) emitRecovery(op *core.Operation, action uint32, start uint64) {
	if mon.tr == nil {
		return
	}
	now := mon.M.Clock.Now()
	mon.tr.Emit(trace.Event{
		Cycle: now, Dur: now - start, Kind: trace.EvRecovery,
		Op: int32(op.ID), Arg: action,
	})
}
