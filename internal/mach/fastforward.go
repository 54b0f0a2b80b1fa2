package mach

// Busy-wait fast-forward. Peripheral waits are modelled the way polling
// firmware performs them: a loop re-reads a status register until the
// device's scheduled ready cycle passes. Those spins are most of the
// simulated instructions of every I/O-bound workload, and each of their
// iterations repeats the previous one exactly. This file skips the
// repetition in closed form while keeping the register-level device
// model and every cycle of its accounting.
//
// Both execution engines call loopBack whenever a block branches back
// to itself. The primitive watches three consecutive iterations and
// skips ahead only when all of them
//
//   - store nothing, take no exception (fault, SVC or IRQ) and do not
//     enter the function of an armed entry trigger, and
//   - read devices only at registers whose horizon (Quiescent) lies
//     ahead of the skipped span,
//
// and the last two leave the register file, SP, privilege and
// protection-unit generation exactly as the first left them.
//
// The IR has no phi nodes, so a value carried from one iteration to the
// next goes through memory, or through a register read before its
// definition in the block (ir.Verify does not enforce dominance), which
// the register comparison catches. An iteration that stores nothing and
// leaves its registers unchanged therefore recomputes exactly what the
// previous one did, and can only be waiting on a device or the clock.
// Such an iteration is a pure function of state that the skipped span
// does not change, so the next k iterations repeat it: the primitive
// advances the clock, the instruction count and every per-iteration
// counter by k times the last watched iteration's deltas, and has the
// attached trace, if any, repeat that iteration's events k times. That
// iteration follows an identical one, which is what makes its deltas
// repeat: the host-side caches reach a fixed point after one identical
// iteration — the direct-mapped micro-TLB and the last-device cache end
// each iteration holding the entries its final accesses installed, and
// every pooled frame it touches has grown to size. The first watched
// iteration is only screened, so loops that store pay a few compares
// per back edge and no register copy.
//
// k is the largest count of whole iterations that end strictly before
// the earliest horizon read in the window and whose block-boundary
// ticks stay within MaxCycles, so the first iteration that might see a
// changed device, or trip the cycle budget, runs for real.
//
// The events an iteration emits are one more per-iteration quantity:
// the trace's emitted count is captured with the counters, and
// trace.Buffer.Repeat appends k copies of the last iteration's events,
// each shifted by one more period. A handler that must see some event
// live (the debugger's keyframe checkpointer and seek verifier, which
// read machine state at it) is a trace.Limiter: Repeat then records
// fewer copies, ending before that event, and the skip takes exactly
// as many iterations as Repeat recorded, so the event is emitted by an
// iteration that runs. An armed entry-count trigger is screened like a
// store: each entry of its function counts it down, so a window that
// enters the function is watched again, while a loop that never enters
// it skips with the trigger armed. Store and raw-write watchpoints need
// no screen of their own: a skipped window holds no store, checked or
// raw, so a watch has nothing to see in it.
//
// The primitive declines whenever something observes individual
// iterations: an instruction-count (At) injection trigger, an
// OnFuncEnter hook, an IRQ binding, or a trace handler that is not a
// trace.Repeater. Runs traced through such a handler — the profiler,
// the task folder — therefore execute every iteration and serve as the
// reference that skipping runs are differentially checked against.

// Never is the horizon of a register whose value changes only through
// a store or a side-effecting access, never through the passage of
// time.
const Never = ^uint64(0)

// Quiescent is the device half of the fast-forward contract.
// QuiescentUntil(off) returns the first cycle at which a load of the
// register at offset off may return a different value than a load now,
// provided nothing stores to the device in between; Never when only a
// store can change it. A register whose load has a side effect (a FIFO
// pop, a generator step) must report the current cycle or earlier, so
// a loop that reads it always runs iteration by iteration. Devices
// that do not implement Quiescent are treated that way for every
// register.
type Quiescent interface {
	QuiescentUntil(off uint32) uint64
}

// horizonLogCap bounds the device-read log. A poll iteration reads one
// or two registers; a window that outgrows the log just stops being
// skippable.
const horizonLogCap = 64

// horizonLog records the horizon of every device read once the first
// fast-forward witness has started. Witnesses nest — a poll loop inside
// a function called from another self-loop — so the log is never
// cleared: each witness remembers the sequence number where its window
// starts, and only the oldest reads fall off the end.
type horizonLog struct {
	base uint64   // sequence number of h[0]
	h    []uint64 // horizons in read order
}

// note appends the horizon of one read at device register off.
func (l *horizonLog) note(d Device, off uint32) {
	h := uint64(0)
	if q, ok := d.(Quiescent); ok {
		h = q.QuiescentUntil(off)
	}
	l.add(h)
}

func (l *horizonLog) add(h uint64) {
	if len(l.h) == horizonLogCap {
		// Keep the newer half: inner witnesses' windows start there.
		half := horizonLogCap / 2
		copy(l.h, l.h[half:])
		l.h = l.h[:horizonLogCap-half]
		l.base += uint64(half)
	}
	l.h = append(l.h, h)
}

// seq is the sequence number the next read will get.
func (l *horizonLog) seq() uint64 { return l.base + uint64(len(l.h)) }

// minSince returns the earliest horizon read since sequence number s:
// Never when there was none, 0 when part of the window was dropped.
func (l *horizonLog) minSince(s uint64) uint64 {
	if s < l.base {
		return 0
	}
	min := Never
	for _, h := range l.h[s-l.base:] {
		if h < min {
			min = h
		}
	}
	return min
}

// ffState is the machine-wide half of the fast-forward state; the
// per-loop witness lives in the pooled frame. The device-read log is
// derived and dropped by Restore; the counters are checkpointed.
type ffState struct {
	ffCounts
	log horizonLog
}

// ffCounts is what a checkpoint restores of the fast-forward.
type ffCounts struct {
	episodes uint64 // skips taken
	skipped  uint64 // instructions skipped
}

// loopWitness is one activation's view of the self-loop it is in.
type loopWitness struct {
	// At the back edge where watching began: the store and exception
	// counts every later check compares against, and where the
	// window's device reads start in the log.
	writes, excs uint64
	logSeq       uint64
	// At the second back edge: the state each later iteration must
	// reproduce.
	gen  uint64 // protection-unit generation
	on   bool   // protection unit enabled
	sp   uint32
	priv bool
	regs []uint32
	// The armed injection and its entry trigger's remaining count at
	// the back edge where watching began (see triggerMoved).
	inj  *Injection
	injN int
	// At the third back edge: the ffCounted values and the trace's
	// emitted count that the last watched iteration's deltas are taken
	// from.
	at     [ffNumCounted]uint64
	events uint64
}

// ffNumCounted is the number of quantities ffCounted lists.
const ffNumCounted = 8

// ffCounted lists the quantities one loop iteration advances: the
// clock and the instruction count first, then every per-iteration
// counter in the registry. A skip adds k times each one's delta.
func (m *Machine) ffCounted() [ffNumCounted]*uint64 {
	b := m.Bus
	return [ffNumCounted]*uint64{
		&m.Clock.cycles, &m.InstrCount, &m.frameReuse, &m.proofElided, &m.proofChecked,
		&b.devCacheHits, &b.MPU.tlbHits, &b.MPU.tlbMisses,
	}
}

// protEpoch identifies the protection unit's configuration: any region
// or entry write changes gen. ok is false for protection units the
// primitive cannot observe.
func (b *Bus) protEpoch() (gen uint64, on, ok bool) {
	switch p := b.Prot.(type) {
	case *MPU:
		return p.gen, p.Enabled, true
	case *PMP:
		return p.reconfigs, p.Enabled, true
	}
	return 0, false, false
}

// loopBack is the fast-forward primitive. Both engines call it when a
// block branches back to itself; n is how many consecutive times this
// activation has done so for the same block (0 the first time), and
// the result is the count to pass at the next back edge. A run traced
// through a handler that needs every event pays this one test.
func (m *Machine) loopBack(fr *frame, n int) int {
	if !m.Trace.Repeatable() {
		return 0
	}
	return m.ffStep(fr, n)
}

// ffStep watches the loop one back edge at a time. The first watched
// iteration is checked only for stores, exceptions and entries of an
// armed trigger function, so a loop that stores — most loops — costs a
// few compares per iteration. After it, the register file and machine
// state are captured; the second iteration must reproduce them, making
// it a fixed point, and the third supplies the deltas that every later
// iteration repeats.
func (m *Machine) ffStep(fr *frame, n int) int {
	if m.Handlers.OnFuncEnter != nil || len(m.irqs) != 0 || m.inj != nil && m.inj.Func == nil {
		return 0
	}
	w := &fr.ff
	if n == 0 || m.Bus.writes != w.writes || m.exceptions != w.excs || m.triggerMoved(w) {
		return m.ffWatch(w)
	}
	if n == 1 {
		gen, on, ok := m.Bus.protEpoch()
		if !ok {
			return 0
		}
		w.gen, w.on, w.sp, w.priv = gen, on, m.SP, m.Privileged
		w.regs = append(w.regs[:0], fr.regs[:fr.fn.NumRegs()]...)
		return 2
	}
	if !m.ffSame(fr, w) {
		return m.ffWatch(w)
	}
	if n == 2 {
		for i, p := range m.ffCounted() {
			w.at[i] = *p
		}
		w.events = m.Trace.Emitted()
		return 3
	}
	m.ffSkip(w)
	return m.ffWatch(w)
}

// triggerMoved reports whether the armed entry trigger's function was
// entered since watching began: each entry counts the trigger down, and
// the one that fires it disarms it.
func (m *Machine) triggerMoved(w *loopWitness) bool {
	return m.inj != w.inj || m.inj != nil && m.inj.N != w.injN
}

// ffWatch starts watching at this back edge.
func (m *Machine) ffWatch(w *loopWitness) int {
	m.Bus.horizons = &m.ff.log
	w.writes, w.excs, w.logSeq = m.Bus.writes, m.exceptions, m.ff.log.seq()
	w.inj = m.inj
	if m.inj != nil {
		w.injN = m.inj.N
	}
	return 1
}

// ffSame reports whether the machine is back in the state captured at
// the second back edge.
func (m *Machine) ffSame(fr *frame, w *loopWitness) bool {
	gen, on, _ := m.Bus.protEpoch()
	if gen != w.gen || on != w.on || m.SP != w.sp || m.Privileged != w.priv {
		return false
	}
	regs := fr.regs[:len(w.regs)]
	for i, v := range w.regs {
		if regs[i] != v {
			return false
		}
	}
	return true
}

// ffSkip advances the machine by as many whole iterations as the
// horizon, the cycle budget and the trace's limiters allow, using the
// deltas of the iteration that just ended.
func (m *Machine) ffSkip(w *loopWitness) {
	now := m.Clock.Now()
	h := m.ff.log.minSince(w.logSeq)
	if h <= now || m.MaxCycles < now {
		return
	}
	// Skipped iterations end at now+d, now+2d, ...; each must end
	// before the horizon and within the budget the ticks enforce. An
	// iteration takes at least its terminator's cycle, so d > 0.
	d := now - w.at[0]
	k := (h - 1 - now) / d
	if kb := (m.MaxCycles - now) / d; kb < k {
		k = kb
	}
	if k == 0 {
		return
	}
	// The trace's emitted count is one more per-iteration counter: the
	// skipped iterations emit what the last one did, shifted by d. A
	// limiting handler may admit fewer copies; the skip takes as many
	// iterations as the trace recorded.
	if k = m.Trace.Repeat(m.Trace.Emitted()-w.events, k, d); k == 0 {
		return
	}
	m.ff.episodes++
	m.ff.skipped += k * (m.InstrCount - w.at[1])
	for i, p := range m.ffCounted() {
		*p += k * (*p - w.at[i])
	}
}
