package debug

import (
	"fmt"
	"strings"

	"opec/internal/mach"
	"opec/internal/trace"
)

// This file implements the query engine. Every query renders
// deterministic text: two sessions over the same run produce
// byte-identical answers, which is what lets CI pin them.

// verifier proves a re-execution passes through a keyframe: it tracks
// the stream position and, at the keyframe's event index, digests the
// live machine for comparison against the captured frame. A
// fast-forward skips only up to that index (see RepeatLimit).
type verifier struct {
	m      *mach.Machine
	target int
	n      int
	digest string
}

func (v *verifier) HandleEvent(e trace.Event) {
	if v.n == v.target && v.m != nil && v.digest == "" {
		v.digest = v.m.StateDigest()
	}
	v.n++
}

// RepeatLimit admits the copies of a repeated window that end before
// the target index (trace.Limiter), so the digest is still read from
// the live machine at the target event; once it is read, any number.
func (v *verifier) RepeatLimit(w []trace.Event, _ uint64) uint64 {
	if v.digest != "" || v.n > v.target || len(w) == 0 {
		return ^uint64(0)
	}
	return uint64(v.target-v.n) / uint64(len(w))
}

// HandleRepeat advances the stream position (trace.Repeater).
func (v *verifier) HandleRepeat(w []trace.Event, k, _ uint64) {
	v.n += int(k) * len(w)
}

// bind anchors the verifier at the arming point — the position boot
// keyframes are captured at.
func (v *verifier) bind(m *mach.Machine, boot bool) {
	v.m = m
	if boot && v.digest == "" {
		v.digest = m.StateDigest()
	}
}

// suffixCheck compares a re-execution's events with the recording as
// they are emitted, from stream index from on. A replayed event passes
// when it equals the recorded struct and its name ids resolve to equal
// names in the two streams' tables — everything the text renderer
// reads — and otherwise when the two rendered lines are equal, so the
// check accepts exactly what comparing the rendered suffixes would.
// It reads the recording through a cursor, in stream order.
type suffixCheck struct {
	rec  *Store
	buf  *trace.Buffer // the re-execution's bus
	from int
	diff bool // some event at or after from differs
	cur  cursor
}

func (c *suffixCheck) HandleEvent(e trace.Event) {
	c.check(int(c.buf.Emitted()), e) // Emit hands events to handlers before counting them
}

// HandleRepeat checks the k shifted copies of a repeated window
// against the recording (trace.Repeater). Where they fall in a
// recorded segment with the same window length and period, both
// streams add period to an event's cycle every n events, so checking n
// of the copies' events against the segment checks them all: a struct
// or a rendered line stays equal when both cycles shift alike.
// Elsewhere each event is checked in turn. Repeat, like Emit, hands
// the copies over before counting them.
func (c *suffixCheck) HandleRepeat(w []trace.Event, k, period uint64) {
	n, i0 := len(w), int(c.buf.Emitted())
	end := min(i0+int(k)*n, c.rec.Len())
	for i := max(i0, c.from); i < end && !c.diff; {
		seg, stop := c.cur.piece(c.rec, i)
		stop = min(stop, end)
		last := stop
		if seg != nil && seg.n == n && seg.period == period {
			last = min(i+n, stop)
		}
		for ; i < last; i++ {
			e := w[(i-i0)%n]
			e.Cycle += uint64((i-i0)/n+1) * period
			c.check(i, e)
		}
		i = stop
	}
}

// check compares replayed event e, at stream index i, with the
// recording.
func (c *suffixCheck) check(i int, e trace.Event) {
	// An event past the recording's end fails err's length comparison.
	if i < c.from || i >= c.rec.Len() || c.diff {
		return
	}
	r, names := c.cur.event(c.rec, i), c.rec.names
	if r == e && names.Name(r.Arg) == c.buf.Name(e.Arg) && names.Name(r.Arg2) == c.buf.Name(e.Arg2) {
		return
	}
	c.diff = names.RenderEvent(r) != c.buf.RenderEvent(e)
}

// err reports, once the re-execution has ended, whether its stream was
// monotonic and repeated the recording from c.from to the recording's
// end.
func (c *suffixCheck) err() error {
	if r := c.buf.CycleRegressions(); r > 0 {
		return fmt.Errorf("replayed stream is non-monotonic (%d cycle regressions): a restored machine emitted into a stale buffer", r)
	}
	if c.diff || int(c.buf.Emitted()) != c.rec.Len() {
		return fmt.Errorf("regenerated trace suffix from event %d differs from the recording", c.from)
	}
	return nil
}

// Seek re-executes the run from the boot checkpoint through cycle c:
// it restores the nearest keyframe's anchor, verifies the replayed
// machine digests identically at the keyframe's stream position, and
// asserts the regenerated trace suffix from that position on is
// byte-identical to the recording. The rendered answer shows the
// keyframe used, the verification verdicts, and the events around c.
// A cycle before the first recorded event or after the last one is
// rejected.
func (s *Session) Seek(c uint64) (string, error) {
	return s.timed(func() (string, error) { return s.seek(c) })
}

func (s *Session) seek(c uint64) (string, error) {
	if last := s.store.LastCycle(); c > last {
		return "", fmt.Errorf("debug: seek %d is past the end of the run (last event at cycle %d)", c, last)
	}
	if first := s.store.FirstCycle(); c < first {
		return "", fmt.Errorf("debug: seek %d is before the run's first event (at cycle %d)", c, first)
	}
	kf := s.keys.Nearest(c)

	buf := trace.NewBuffer(s.cfg.TraceCap)
	ver := &verifier{target: kf.Event}
	chk := &suffixCheck{rec: s.store, buf: buf, from: kf.Event}
	buf.Attach(ver)
	buf.Attach(chk)
	if _, err := s.execute(buf, func(m *mach.Machine) {
		ver.bind(m, kf.Reason == "boot")
	}); err != nil {
		return "", err
	}

	if ver.digest == "" {
		return "", fmt.Errorf("debug: seek %d: re-execution never reached keyframe event %d", c, kf.Event)
	}
	if ver.digest != kf.State.Digest() {
		return "", fmt.Errorf("debug: seek %d: replayed state %s diverged from keyframe %s at event %d — the run is not deterministic",
			c, ver.digest, kf.State.Digest(), kf.Event)
	}
	if err := chk.err(); err != nil {
		return "", fmt.Errorf("debug: seek %d: %w", c, err)
	}

	var b strings.Builder
	idx := s.store.IndexAt(c)
	n := s.store.Len()
	fmt.Fprintf(&b, "seek %d: event %d of %d\n", c, idx, n)
	fmt.Fprintf(&b, "  keyframe: cycle=%d event=%d reason=%s state=%s sp=%#08x priv=%v\n",
		kf.Cycle, kf.Event, kf.Reason, kf.State.Digest(), kf.State.SP, kf.State.Privileged)
	fmt.Fprintf(&b, "  replayed: %d events, state digest at keyframe verified, suffix [%d:%d) byte-identical\n",
		n, kf.Event, n)
	s.renderAround(&b, idx)
	return b.String(), nil
}

// renderAround prints the events surrounding stream index idx, the
// target marked.
func (s *Session) renderAround(b *strings.Builder, idx int) {
	lo, hi := idx-3, idx+4
	if lo < 0 {
		lo = 0
	}
	if hi > s.store.Len() {
		hi = s.store.Len()
	}
	for i := lo; i < hi; i++ {
		mark := "  "
		if i == idx {
			mark = "=>"
		}
		fmt.Fprintf(b, "  %s [%s] %s\n", mark, s.store.DomainName(s.store.Domain(i)), s.store.Render(i))
	}
}

// watchRec is one observed write, stamped with the owning operation.
type watchRec struct {
	mach.WatchedStore
	Op  string
	Raw bool
}

// collector gathers every write overlapping [lo, lo+n) during a
// re-execution: program stores via the machine watch seam, hardware
// writes via the bus raw watch, operation attribution via the event
// stream.
type collector struct {
	buf   *trace.Buffer
	lo    uint32
	n     int
	curOp string
	recs  []watchRec
}

func (c *collector) HandleEvent(e trace.Event) {
	if e.Kind == trace.EvOpActivate {
		c.curOp = c.buf.Name(e.Arg)
	}
}

// HandleRepeat tracks the owning operation across a repeated window
// (trace.Repeater): every copy activates what the window does, so the
// window once leaves curOp as all k copies would. A skipped window
// holds no store, so the watches miss nothing in it.
func (c *collector) HandleRepeat(w []trace.Event, _, _ uint64) {
	for _, e := range w {
		c.HandleEvent(e)
	}
}

// checkRange rejects a watched range [addr, addr+n) that is empty or
// runs past 0xffffffff: the collector's 32-bit bounds would wrap it.
func checkRange(addr uint32, n int) error {
	if n <= 0 || uint64(addr)+uint64(n) > 1<<32 {
		return fmt.Errorf("debug: range %#08x+%d: want a positive length that ends at or below 0xffffffff", addr, n)
	}
	return nil
}

func (c *collector) overlaps(addr uint32, size int) bool {
	return addr < c.lo+uint32(c.n) && addr+uint32(size) > c.lo
}

func (c *collector) bind(m *mach.Machine) {
	m.SetStoreWatch(func(ws mach.WatchedStore) {
		if c.overlaps(ws.Addr, ws.Size) {
			c.recs = append(c.recs, watchRec{WatchedStore: ws, Op: c.curOp})
		}
	})
	m.Bus.SetRawWatch(func(addr uint32, size int, val uint32) {
		if c.overlaps(addr, size) {
			c.recs = append(c.recs, watchRec{
				WatchedStore: mach.WatchedStore{
					Cycle: m.Clock.Now(), Instr: m.InstrCount,
					Addr: addr, Size: size, Val: val, Privileged: true, Region: -2,
				},
				Op: c.curOp, Raw: true,
			})
		}
	})
}

// collect re-executes the run with a write collector over [addr,
// addr+n) and returns the observed records in execution order.
func (s *Session) collect(addr uint32, n int) ([]watchRec, error) {
	buf := trace.NewBuffer(s.cfg.TraceCap)
	col := &collector{buf: buf, lo: addr, n: n, curOp: "?"}
	buf.Attach(col)
	if _, err := s.execute(buf, col.bind); err != nil {
		return nil, err
	}
	return col.recs, nil
}

// renderRec formats one write record deterministically.
func (s *Session) renderRec(r watchRec) string {
	loc := "(hardware)"
	if r.Raw {
		loc = "(raw)"
	} else if r.Fn != "" {
		loc = fmt.Sprintf("fn=%s pc=%#08x", r.Fn, r.PC)
	}
	verdict := "landed"
	switch {
	case r.Denied:
		verdict = fmt.Sprintf("DENIED %v", r.FaultKind)
	case r.Raw:
		verdict = "landed (below protection unit)"
	case r.Proven:
		verdict = "landed (certified)"
	case r.Region >= -1:
		verdict = fmt.Sprintf("landed region=%d", r.Region)
	}
	name, off := s.GlobalAt(r.Addr)
	target := fmt.Sprintf("%#08x", r.Addr)
	if name != "" {
		target = fmt.Sprintf("%#08x (%s+%d)", r.Addr, name, off)
	}
	return fmt.Sprintf("cycle=%-10d op=%-12s %-32s store %s size=%d value=%#x priv=%v %s",
		r.Cycle, r.Op, loc, target, r.Size, r.Val, r.Privileged, verdict)
}

// Watch reports every write attempt overlapping [addr, addr+n) in the
// cycle range [from, to] (to == 0 means end of run), with the PC,
// operation and protection verdict of each — the data-watchpoint
// query. A range that ends before it starts is an error.
func (s *Session) Watch(addr uint32, n int, from, to uint64) (string, error) {
	if err := checkRange(addr, n); err != nil {
		return "", err
	}
	if to != 0 && from > to {
		return "", fmt.Errorf("debug: watch cycle range [%d, %d] is empty: it starts after it ends", from, to)
	}
	return s.timed(func() (string, error) {
		recs, err := s.collect(addr, n)
		if err != nil {
			return "", err
		}
		if to == 0 {
			to = ^uint64(0)
		}
		var b strings.Builder
		name, off := s.GlobalAt(addr)
		at := fmt.Sprintf("%#08x", addr)
		if name != "" {
			at = fmt.Sprintf("%#08x (%s+%d)", addr, name, off)
		}
		total := 0
		for _, r := range recs {
			if r.Cycle < from || r.Cycle > to {
				continue
			}
			if total == 0 {
				fmt.Fprintf(&b, "watch %s len=%d:\n", at, n)
			}
			total++
			fmt.Fprintf(&b, "  %s\n", s.renderRec(r))
		}
		if total == 0 {
			fmt.Fprintf(&b, "watch %s len=%d: no writes in cycle range\n", at, n)
		} else {
			fmt.Fprintf(&b, "  %d write attempts\n", total)
		}
		return b.String(), nil
	})
}

// LastWriter answers the backward slice: the last write that LANDED on
// [addr, addr+n) at or before cycle c, plus any later denied attempt —
// "who produced the value this address held at cycle c".
func (s *Session) LastWriter(addr uint32, n int, c uint64) (string, error) {
	if err := checkRange(addr, n); err != nil {
		return "", err
	}
	return s.timed(func() (string, error) {
		recs, err := s.collect(addr, n)
		if err != nil {
			return "", err
		}
		var last, denied *watchRec
		for i := range recs {
			r := &recs[i]
			if r.Cycle > c {
				break
			}
			if r.Denied {
				denied = r
			} else {
				last = r
			}
		}
		name, off := s.GlobalAt(addr)
		at := fmt.Sprintf("%#08x", addr)
		if name != "" {
			at = fmt.Sprintf("%#08x (%s+%d)", addr, name, off)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "last-writer %s at cycle %d:\n", at, c)
		if last == nil {
			fmt.Fprintf(&b, "  no write landed by cycle %d (boot-image value)\n", c)
		} else {
			fmt.Fprintf(&b, "  %s\n", s.renderRec(*last))
		}
		if denied != nil && (last == nil || denied.Cycle >= last.Cycle) {
			fmt.Fprintf(&b, "  later denied attempt:\n  %s\n", s.renderRec(*denied))
		}
		return b.String(), nil
	})
}

// Blame walks a fault event back to the store that caused it: it finds
// the fault (the first one at or after cycle c; c == 0 means the fault
// the monitor's first recovery handled, or failing any recovery the
// run's first fault), re-executes with a watchpoint on the faulting
// address, and names the attempt — for a denied write, the rogue
// store's PC, function, operation and value (the §6.1 KEY-overwrite
// forensics); for other faults, the last landed writer of the address.
func (s *Session) Blame(c uint64) (string, error) {
	return s.timed(func() (string, error) { return s.blame(c) })
}

func (s *Session) blame(c uint64) (string, error) {
	idx := -1
	if c == 0 {
		i, err := s.incidentFault()
		if err != nil {
			return "", err
		}
		idx = i
	} else {
		for _, i := range s.store.ByKind(trace.EvFault) {
			if s.store.Event(i).Cycle >= c {
				idx = i
				break
			}
		}
		if idx < 0 {
			return "", fmt.Errorf("debug: no fault event at or after cycle %d", c)
		}
	}
	ev := s.store.Event(idx)
	kind, write, region := trace.UnpackFaultInfo(ev.Arg2)
	addr := ev.Arg

	var b strings.Builder
	name, off := s.GlobalAt(addr)
	at := fmt.Sprintf("%#08x", addr)
	if name != "" {
		at = fmt.Sprintf("%#08x (%s+%d)", addr, name, off)
	}
	dir := "read"
	if write {
		dir = "write"
	}
	fmt.Fprintf(&b, "blame: fault at cycle %d in op %s: %v %s %s region=%d\n",
		ev.Cycle, s.store.DomainName(s.store.Domain(idx)), mach.FaultKind(kind), dir, at, region)

	recs, err := s.collect(addr, 1)
	if err != nil {
		return "", err
	}
	var culprit *watchRec
	if write {
		// The denied attempt at the fault's own cycle IS the rogue store.
		for i := range recs {
			r := &recs[i]
			if r.Denied && r.Cycle == ev.Cycle {
				culprit = r
				break
			}
		}
	}
	if culprit == nil {
		// Read faults (or an unmatched write): blame whoever last put a
		// value there before the fault.
		for i := range recs {
			r := &recs[i]
			if r.Cycle > ev.Cycle {
				break
			}
			if !r.Denied {
				culprit = r
			}
		}
	}
	if culprit == nil {
		fmt.Fprintf(&b, "  no write to %s observed before the fault (boot-image value)\n", at)
	} else {
		fmt.Fprintf(&b, "  rogue store: %s\n", s.renderRec(*culprit))
	}

	// What happened next: the first recovery event after the fault.
	for _, i := range s.store.ByKind(trace.EvRecovery) {
		if e := s.store.Event(i); e.Cycle >= ev.Cycle {
			fmt.Fprintf(&b, "  then: %s\n", strings.TrimSpace(s.store.Render(i)))
			break
		}
	}
	return b.String(), nil
}

// Info summarizes the recording: outcome, stream shape, keyframes, and
// the replay coordinate a spec run can be re-debugged from.
func (s *Session) Info() string {
	var b strings.Builder
	fmt.Fprintf(&b, "session: %s backend=%s\n", s.cfg.App.Name, s.backendName())
	if s.Outcome != nil {
		fmt.Fprintf(&b, "  trial: %s\n  verdict: %s\n", s.Outcome.Spec, s.Outcome.Verdict)
		if s.Outcome.Err != "" {
			fmt.Fprintf(&b, "  detail: %s\n", s.Outcome.Err)
		}
		fmt.Fprintf(&b, "  replay: %s@%s\n", s.SnapshotID(), s.Outcome.Spec)
	} else {
		fmt.Fprintf(&b, "  clean run, snapshot %s\n", s.SnapshotID())
		if s.RunErr != "" {
			fmt.Fprintf(&b, "  run error: %s\n", s.RunErr)
		}
	}
	fmt.Fprintf(&b, "  cycles: %d\n", s.Cycles)
	fmt.Fprintf(&b, "  events: %d (ring dropped %d)\n", s.store.Len(), s.store.Dropped())
	fmt.Fprintf(&b, "  indexes: %d kinds, %d domains\n", s.store.KindBuckets(), s.store.DomainBuckets())
	b.WriteString(s.keys.Render())
	return b.String()
}

// incidentFault picks the default fault to investigate: the incident,
// not boot noise. Workloads tolerate benign faults (HAL pokes at
// privileged peripherals during init), so when the monitor recovered
// something, the target is the fault its first recovery responded to;
// otherwise the run's first fault.
func (s *Session) incidentFault() (int, error) {
	faults := s.store.ByKind(trace.EvFault)
	if len(faults) == 0 {
		return 0, fmt.Errorf("debug: no fault events in the recording")
	}
	idx := faults[0]
	if recs := s.store.ByKind(trace.EvRecovery); len(recs) > 0 {
		rc := s.store.Event(recs[0]).Cycle
		for _, i := range faults {
			if s.store.Event(i).Cycle > rc {
				break
			}
			idx = i
		}
	}
	return idx, nil
}

// FaultCycle returns the cycle of the recording's incident fault (the
// one blame targets by default) — the `seek fault` resolution.
func (s *Session) FaultCycle() (uint64, error) {
	idx, err := s.incidentFault()
	if err != nil {
		return 0, err
	}
	return s.store.Event(idx).Cycle, nil
}

// Coordinate returns the '<snapid>@<spec>' replay coordinate of a spec
// session ("" for clean runs) — what `opec-debug -replay` accepts.
func (s *Session) Coordinate() string {
	if s.Outcome == nil {
		return ""
	}
	return fmt.Sprintf("%s@%s", s.SnapshotID(), s.Outcome.Spec)
}

func (s *Session) backendName() string {
	if s.cfg.Backend == "" {
		return "interp"
	}
	return s.cfg.Backend
}

// VerifyKeyframes re-executes the run once and proves every held
// keyframe's digest is reproduced at its stream position — the
// keyframe-restore equivalence check the workload sweep test runs on
// all seven workloads.
func (s *Session) VerifyKeyframes() error {
	frames := s.keys.Frames()
	vers := make([]*verifier, len(frames))
	buf := trace.NewBuffer(s.cfg.TraceCap)
	for i, kf := range frames {
		vers[i] = &verifier{target: kf.Event}
		buf.Attach(vers[i])
	}
	if _, err := s.execute(buf, func(m *mach.Machine) {
		for i, kf := range frames {
			vers[i].bind(m, kf.Reason == "boot")
		}
	}); err != nil {
		return err
	}
	for i, kf := range frames {
		if vers[i].digest == "" {
			return fmt.Errorf("debug: keyframe %d (event %d) never reached on re-execution", i, kf.Event)
		}
		if vers[i].digest != kf.State.Digest() {
			return fmt.Errorf("debug: keyframe %d (cycle %d, event %d, %s): replayed state %s != captured %s",
				i, kf.Cycle, kf.Event, kf.Reason, vers[i].digest, kf.State.Digest())
		}
	}
	return nil
}
