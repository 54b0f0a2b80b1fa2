// Package trace is the simulator's observability layer: a typed,
// cycle-stamped event bus the machine, the reference monitor and the
// ACES runtime emit into, a fixed-capacity ring buffer with drop
// accounting, exporters (deterministic text, JSONL, Chrome trace_event
// for chrome://tracing / Perfetto), a profiler that folds the event
// stream into per-domain cycle attribution (the paper's Table 4
// breakdown, measured live instead of modeled), and a unified named
// counter registry that absorbs the ad-hoc statistics scattered across
// the packages.
//
// The bus is designed around two invariants:
//
//   - Zero cost when disabled: every emission site is guarded by a nil
//     check on the buffer pointer, so untraced runs execute the exact
//     pre-trace hot path with no allocations on the event path.
//   - Transparency when enabled: emitting only reads the cycle clock.
//     Cycle accounting, fault order and rendered experiment tables are
//     byte-identical with tracing on or off.
//
// Buffer.Repeat lets the machine's busy-wait fast-forward skip a
// traced poll loop: it appends k shifted copies of the loop
// iteration's events in closed form, exactly as emitting them would.
// It works only when every handler implements Repeater (the fuzzer's
// coverage sink and the debugger's recorders do); handlers that need
// each event one by one (the profiler, the task folder) make it
// refuse, so those runs still execute every iteration. A Repeater that
// must see some event live (a debugger checkpoint capturing machine
// state) also implements Limiter, and Repeat records only the copies
// before that event.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Kind is the event taxonomy (DESIGN.md §9).
type Kind uint8

// Event kinds.
const (
	EvNone         Kind = iota
	EvExcEntry          // exception entry; Arg = exception class, Dur = cost
	EvExcReturn         // exception return; Arg = exception class, Dur = cost
	EvIRQ               // IRQ dispatch; Arg = handler name id
	EvFault             // memory/usage fault; Arg = addr, Arg2 = packed fault info
	EvFaultHandled      // handler resolution; Arg = FaultAction code
	EvCall              // function call; Arg = callee name id, Arg2 = caller name id
	EvCallRet           // function return; Arg = callee name id
	EvGateEnter         // SVC gate switch-in complete; Arg = gate name id, Arg2 = stack-arg relocations, Op = entering op
	EvGateExit          // SVC gate switch-out begins; Arg = gate name id, Op = exiting op
	EvGateReject        // gate call answered without switching; Arg = gate name id, Arg2 = reason
	EvOpActivate        // domain activation; Op = domain id, Arg = domain name id
	EvMPURegion         // protection region programmed; Arg = region index, Arg2 = base
	EvMPUEnable         // protection unit enable toggle; Arg = 0/1
	EvTLBInval          // micro-TLB generation bump; Arg = low bits of the new generation
	EvSanitize          // critical-variable check; Arg = global name id, Arg2 = 0 ok / 1 reject
	EvPhase             // monitor phase span; Arg = Phase, Dur = cycles
	EvRecovery          // recovery action; Arg = RecoveryAction, Arg2 = attempt, Dur = cycles
	EvBranch            // basic-block entry (branch coverage); Arg = function name id, Arg2 = block index
)

var kindNames = [...]string{
	"none", "exc-entry", "exc-return", "irq", "fault", "fault-handled",
	"call", "call-ret", "gate-enter", "gate-exit", "gate-reject",
	"op-activate", "mpu-region", "mpu-enable", "tlb-inval", "sanitize",
	"phase", "recovery", "branch",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// KindByName resolves an event-kind name (the JSONL encoding).
func KindByName(name string) (Kind, bool) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), true
		}
	}
	return EvNone, false
}

// Exception classes (EvExcEntry/EvExcReturn Arg).
const (
	ExcSVC   uint32 = 1
	ExcFault uint32 = 2
	ExcIRQ   uint32 = 3
)

// Phase classifies one monitor span (EvPhase Arg) — the Table 4
// breakdown buckets.
type Phase uint32

// Monitor phases.
const (
	PhaseSwitch   Phase = iota // fixed switch bookkeeping + protection-unit programming
	PhaseSync                  // shadow word copies, relocation table, pointer redirects, stack relocation
	PhaseSanitize              // critical-variable range checks (zero modeled cycles)
	PhaseEmu                   // PPB load/store emulation + peripheral region virtualization
	PhaseRecovery              // restart/quarantine handling

	NumPhases = int(PhaseRecovery) + 1
)

var phaseNames = [...]string{"switch", "sync", "sanitize", "emu", "recovery"}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", p)
}

// Recovery actions (EvRecovery Arg).
const (
	RecoveryRestart    uint32 = 0
	RecoveryQuarantine uint32 = 1
	RecoveryEscape     uint32 = 2
)

// Gate-reject reasons (EvGateReject Arg2).
const (
	RejectNonEntry    uint32 = 1
	RejectQuarantined uint32 = 2
)

// PackFaultInfo encodes a fault's kind byte, write flag and region
// verdict (the protection-unit region that adjudicated the access, -1
// for the background map, -2 for "no verdict") into EvFault's Arg2.
func PackFaultInfo(kind uint8, write bool, region int) uint32 {
	w := uint32(0)
	if write {
		w = 1
	}
	return uint32(kind) | w<<8 | uint32(region+2)<<16
}

// UnpackFaultInfo is PackFaultInfo's inverse.
func UnpackFaultInfo(v uint32) (kind uint8, write bool, region int) {
	return uint8(v), v>>8&1 != 0, int(v>>16) - 2
}

// Event is one cycle-stamped record. The struct is fixed-size and
// string-free: names (functions, gates, operations, globals) are
// interned into the owning buffer's name table and referenced by id.
type Event struct {
	Cycle uint64 // Clock.Now() at emission (span end for Dur != 0)
	Dur   uint64 // span duration in cycles; 0 for instants
	Kind  Kind
	Op    int32 // owning domain id; -1 when not applicable
	Arg   uint32
	Arg2  uint32
}

// Handler consumes events as they are emitted, before ring insertion —
// a streaming consumer (the profiler, the task-trace folder) sees every
// event even when the ring wraps.
type Handler interface {
	HandleEvent(e Event)
}

// Repeater is a Handler that can absorb a repeated window in closed
// form. HandleRepeat(window, k, period) must leave the handler exactly
// as k·len(window) HandleEvent calls would, handing it copy j (1..k) of
// window with every cycle stamp shifted by j·period. A handler that
// needs every event delivered one by one does not implement it, and
// then Buffer.Repeat refuses; one that needs only some events live
// implements it together with Limiter.
type Repeater interface {
	Handler
	HandleRepeat(window []Event, k, period uint64)
}

// Limiter is implemented by a Repeater that can absorb only some
// copies of a window in closed form: one that must see a particular
// event live, while the machine that emits it stands at that event.
// RepeatLimit(window, period) returns how many shifted copies of
// window (copy j shifted by j·period, as for HandleRepeat) come before
// the first copy holding such an event; Buffer.Repeat records no more
// copies than any attached Limiter admits, so HandleRepeat is never
// handed more than that. RepeatLimit must not change the handler.
type Limiter interface {
	RepeatLimit(window []Event, period uint64) uint64
}

// Buffer is the event bus: a fixed-capacity ring with drop accounting,
// an interned name table and optional streaming handlers. A nil
// *Buffer is a valid, disabled bus: Emit on nil is a no-op, which is
// what makes the disabled hot path a single pointer compare.
type Buffer struct {
	ring  []Event
	head  uint64 // total events emitted into the ring
	names []string
	ids   map[string]uint32
	sinks []Handler
	// importedDrops carries the drop count of a trace reconstructed by
	// ImportJSONL, whose ring only ever held the surviving events.
	importedDrops uint64
	// lastCycle/cycleRegressions assert stream monotonicity: the cycle
	// clock only advances, so an event stamped earlier than its
	// predecessor means a restored machine was left attached to a buffer
	// from before the restore — exactly the bug the Snapshot/Restore
	// contract (detach on restore, re-attach per trial) exists to
	// prevent. The regression count is exposed as a counter and the
	// debugger's indexed store refuses non-monotonic recordings, whose
	// per-cycle binary search would silently misresolve.
	lastCycle        uint64
	cycleRegressions uint64
	// needsEvents is set once a handler that is not a Repeater is
	// attached, and limiters lists the attached Limiters; window is
	// Repeat's scratch copy of the repeated events.
	needsEvents bool
	limiters    []Limiter
	window      []Event
}

// DefaultCapacity is the ring size NewBuffer(0) selects.
const DefaultCapacity = 1 << 16

// NewBuffer returns a bus whose ring holds capacity events (0 selects
// DefaultCapacity). The zeroth name-table entry is reserved so id 0
// renders as "?" rather than aliasing a real name.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Buffer{
		ring:  make([]Event, capacity),
		names: []string{"?"},
		ids:   map[string]uint32{"?": 0},
	}
}

// Attach registers a streaming handler.
func (b *Buffer) Attach(h Handler) {
	if _, ok := h.(Repeater); !ok {
		b.needsEvents = true
	}
	if l, ok := h.(Limiter); ok {
		b.limiters = append(b.limiters, l)
	}
	b.sinks = append(b.sinks, h)
}

// Repeatable reports whether Repeat can record in closed form: every
// attached handler is a Repeater. A nil buffer is repeatable.
func (b *Buffer) Repeatable() bool { return b == nil || !b.needsEvents }

// Intern returns the stable id for name, assigning one on first use.
// A nil buffer interns nothing and returns 0, the id that renders as
// "?", so attaching a nil bus detaches the previous one.
func (b *Buffer) Intern(name string) uint32 {
	if b == nil {
		return 0
	}
	if id, ok := b.ids[name]; ok {
		return id
	}
	id := uint32(len(b.names))
	b.names = append(b.names, name)
	b.ids[name] = id
	return id
}

// Name resolves an interned id.
func (b *Buffer) Name(id uint32) string { return NameTable(b.names).Name(id) }

// Names returns the name table (index = id).
func (b *Buffer) Names() []string { return b.names }

// NameTable is a recorded stream's interned names, index = id: what
// rendering its events needs once the bus that interned them is gone.
type NameTable []string

// Name resolves an interned id ("?" for one the table does not hold).
func (t NameTable) Name(id uint32) string {
	if int(id) < len(t) {
		return t[id]
	}
	return "?"
}

// Emit records e. Nil receivers drop the event (tracing disabled); a
// full ring overwrites the oldest event and accounts the drop.
func (b *Buffer) Emit(e Event) {
	if b == nil {
		return
	}
	if e.Cycle < b.lastCycle {
		b.cycleRegressions++
	} else {
		b.lastCycle = e.Cycle
	}
	for _, h := range b.sinks {
		h.HandleEvent(e)
	}
	b.ring[b.head%uint64(len(b.ring))] = e
	b.head++
}

// Repeat records up to k more copies of the last n events, copy j
// (1..k) with every cycle stamp shifted by j·period, and returns how
// many it recorded: k, or less when an attached Limiter admits fewer.
// It leaves the ring, the emitted and dropped counts, the cycle
// regression count and every handler exactly as the matching Emit
// calls, n per copy, would, without making them. It returns 0 and
// changes nothing unless every attached handler is a Repeater (a
// ring-only buffer qualifies), the ring still holds the n events and
// every Limiter admits at least one copy. A nil buffer records
// nothing, as Emit does, and returns k.
func (b *Buffer) Repeat(n, k, period uint64) uint64 {
	if b == nil {
		return k
	}
	if b.needsEvents || n > uint64(b.Len()) {
		return 0
	}
	if n == 0 || k == 0 {
		return k
	}
	size := uint64(len(b.ring))
	w := b.window[:0]
	for i := b.head - n; i < b.head; i++ {
		w = append(w, b.ring[i%size])
	}
	b.window = w
	for _, l := range b.limiters {
		k = min(k, l.RepeatLimit(w, period))
	}
	if k == 0 {
		return 0
	}
	regressions, high := RepeatCycles(w, k, period, b.lastCycle)
	b.cycleRegressions += regressions
	b.lastCycle = high
	for _, h := range b.sinks {
		h.(Repeater).HandleRepeat(w, k, period)
	}
	// Of the k·n new events, only the last len(ring) stay in the ring.
	total := k * n
	first := uint64(0)
	if total > size {
		first = total - size
	}
	for t := first; t < total; t++ {
		e := w[t%n]
		e.Cycle += (t/n + 1) * period
		b.ring[(b.head+t)%size] = e
	}
	b.head += total
	return k
}

// RepeatCycles returns the cycle regressions that k shifted copies of
// w add to a stream whose high-water mark is last, and the high-water
// mark after them. A poll window adds none, but the count exists to
// expose a machine restored under a stale buffer, so it must come out
// as Emit would count it for any window. Emit keeps last at least as
// high as every event w holds. Event c of copy j regresses when c is
// below an earlier event of w (the same in every copy), when c+period
// is below w's latest event (copy j-1 ended above it), or while
// c+j·period is below last.
func RepeatCycles(w []Event, k, period, last uint64) (regressions, high uint64) {
	var top uint64
	for _, e := range w {
		if e.Cycle > top {
			top = e.Cycle
		}
	}
	var prefix uint64
	for _, e := range w {
		c := e.Cycle
		switch {
		case c < prefix || c+period < top:
			regressions += k
		case c >= last:
		case period == 0:
			regressions += k
		default:
			// Copies j with c + j·period <= last-1.
			if j := (last - 1 - c) / period; j < k {
				regressions += j
			} else {
				regressions += k
			}
		}
		if c > prefix {
			prefix = c
		}
	}
	high = last
	if h := top + k*period; h > high {
		high = h
	}
	return regressions, high
}

// CycleRegressions counts events whose cycle stamp went backward
// relative to their predecessor — zero on any correctly attached run
// (see the field comment).
func (b *Buffer) CycleRegressions() uint64 {
	if b == nil {
		return 0
	}
	return b.cycleRegressions
}

// Len returns the number of events currently held.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	if b.head < uint64(len(b.ring)) {
		return int(b.head)
	}
	return len(b.ring)
}

// Dropped returns how many events were overwritten by ring wrap.
func (b *Buffer) Dropped() uint64 {
	if b == nil {
		return 0
	}
	if b.head <= uint64(len(b.ring)) {
		return b.importedDrops
	}
	return b.head - uint64(len(b.ring)) + b.importedDrops
}

// Emitted returns the total number of events emitted, dropped or held.
func (b *Buffer) Emitted() uint64 {
	if b == nil {
		return 0
	}
	return b.head
}

// Events returns the held events oldest-first.
func (b *Buffer) Events() []Event {
	n := b.Len()
	out := make([]Event, n)
	start := b.head - uint64(n)
	for i := 0; i < n; i++ {
		out[i] = b.ring[(start+uint64(i))%uint64(len(b.ring))]
	}
	return out
}

// Counters implements CounterSource: the bus accounts for itself.
func (b *Buffer) Counters() []Counter {
	return []Counter{
		{Name: "trace.events", Value: b.Emitted()},
		{Name: "trace.dropped", Value: b.Dropped()},
		{Name: "trace.cycle_regressions", Value: b.CycleRegressions()},
	}
}

// RenderText renders the held events as one deterministic line each —
// the golden-test format. Two runs that emitted the same event sequence
// render byte-identically.
func (b *Buffer) RenderText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace: %d events (%d dropped)\n", b.Len(), b.Dropped())
	for _, e := range b.Events() {
		sb.WriteString(b.RenderEvent(e))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// RenderEvent formats one event in the deterministic text-render line
// format, with interned names resolved against this buffer's table —
// the primitive the time-travel debugger's byte-identity suffix
// comparison and event listings are built on.
func (b *Buffer) RenderEvent(e Event) string { return NameTable(b.names).RenderEvent(e) }

// RenderEvent formats one event as Buffer.RenderEvent does, with
// interned names resolved against t.
func (t NameTable) RenderEvent(e Event) string {
	switch e.Kind {
	case EvExcEntry, EvExcReturn:
		cls := [...]string{"?", "svc", "fault", "irq"}
		c := "?"
		if int(e.Arg) < len(cls) {
			c = cls[e.Arg]
		}
		return fmt.Sprintf("%10d %-13s class=%s dur=%d", e.Cycle, e.Kind, c, e.Dur)
	case EvIRQ:
		return fmt.Sprintf("%10d %-13s handler=%s", e.Cycle, e.Kind, t.Name(e.Arg))
	case EvFault:
		kind, write, region := UnpackFaultInfo(e.Arg2)
		dir := "read"
		if write {
			dir = "write"
		}
		return fmt.Sprintf("%10d %-13s kind=%d %s addr=%#08x region=%d", e.Cycle, e.Kind, kind, dir, e.Arg, region)
	case EvFaultHandled:
		return fmt.Sprintf("%10d %-13s action=%d", e.Cycle, e.Kind, e.Arg)
	case EvCall:
		return fmt.Sprintf("%10d %-13s %s -> %s", e.Cycle, e.Kind, t.Name(e.Arg2), t.Name(e.Arg))
	case EvCallRet:
		return fmt.Sprintf("%10d %-13s %s", e.Cycle, e.Kind, t.Name(e.Arg))
	case EvGateEnter:
		return fmt.Sprintf("%10d %-13s gate=%s op=%d relocs=%d", e.Cycle, e.Kind, t.Name(e.Arg), e.Op, e.Arg2)
	case EvGateExit:
		return fmt.Sprintf("%10d %-13s gate=%s op=%d", e.Cycle, e.Kind, t.Name(e.Arg), e.Op)
	case EvGateReject:
		return fmt.Sprintf("%10d %-13s gate=%s reason=%d", e.Cycle, e.Kind, t.Name(e.Arg), e.Arg2)
	case EvOpActivate:
		return fmt.Sprintf("%10d %-13s op=%s id=%d", e.Cycle, e.Kind, t.Name(e.Arg), e.Op)
	case EvMPURegion:
		return fmt.Sprintf("%10d %-13s region=%d base=%#08x", e.Cycle, e.Kind, e.Arg, e.Arg2)
	case EvMPUEnable:
		return fmt.Sprintf("%10d %-13s on=%d", e.Cycle, e.Kind, e.Arg)
	case EvTLBInval:
		return fmt.Sprintf("%10d %-13s gen=%d", e.Cycle, e.Kind, e.Arg)
	case EvSanitize:
		verdict := "ok"
		if e.Arg2 != 0 {
			verdict = "reject"
		}
		return fmt.Sprintf("%10d %-13s var=%s %s", e.Cycle, e.Kind, t.Name(e.Arg), verdict)
	case EvPhase:
		return fmt.Sprintf("%10d %-13s %s dur=%d", e.Cycle, e.Kind, Phase(e.Arg), e.Dur)
	case EvRecovery:
		act := [...]string{"restart", "quarantine", "escape"}
		a := "?"
		if int(e.Arg) < len(act) {
			a = act[e.Arg]
		}
		return fmt.Sprintf("%10d %-13s %s attempt=%d dur=%d", e.Cycle, e.Kind, a, e.Arg2, e.Dur)
	case EvBranch:
		return fmt.Sprintf("%10d %-13s fn=%s blk=%d", e.Cycle, e.Kind, t.Name(e.Arg), e.Arg2)
	}
	return fmt.Sprintf("%10d %-13s arg=%d arg2=%d op=%d dur=%d", e.Cycle, e.Kind, e.Arg, e.Arg2, e.Op, e.Dur)
}

// ---- Unified counter registry ----

// Counter is one named observation. Names are dotted paths
// ("monitor.switches", "mach.tlb.hits") so sorted renders group by
// subsystem.
type Counter struct {
	Name  string
	Value uint64
}

// CounterSource exposes a subsystem's counters. Implementations return
// a fresh slice per call; ordering is normalized by the registry.
type CounterSource interface {
	Counters() []Counter
}

// Registry aggregates counter sources behind one snapshot interface —
// the single place `opec-run` renders and BENCH json serializes.
type Registry struct {
	srcs []CounterSource
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a source; nil sources are ignored.
func (r *Registry) Register(src CounterSource) {
	if src != nil {
		r.srcs = append(r.srcs, src)
	}
}

// Snapshot collects every source's counters, summing duplicates,
// sorted by name.
func (r *Registry) Snapshot() []Counter {
	sum := make(map[string]uint64)
	for _, s := range r.srcs {
		for _, c := range s.Counters() {
			sum[c.Name] += c.Value
		}
	}
	out := make([]Counter, 0, len(sum))
	for n, v := range sum {
		out = append(out, Counter{Name: n, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Map returns the snapshot as a name→value map (the BENCH json shape;
// encoding/json marshals map keys sorted, keeping reports stable).
func (r *Registry) Map() map[string]uint64 {
	out := make(map[string]uint64)
	for _, c := range r.Snapshot() {
		out[c.Name] = c.Value
	}
	return out
}

// RenderCounters prints counters one per line in their given order —
// pair with Registry.Snapshot (or any pre-sorted CounterSource output)
// for a stable render.
func RenderCounters(cs []Counter) string {
	var sb strings.Builder
	for _, c := range cs {
		fmt.Fprintf(&sb, "%-32s %d\n", c.Name, c.Value)
	}
	return sb.String()
}
