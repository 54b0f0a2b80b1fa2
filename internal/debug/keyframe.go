package debug

import (
	"fmt"

	"opec/internal/mach"
	"opec/internal/trace"
)

// Keyframer is the checkpointer: a trace.Handler that captures mid-run
// copy-on-write state frames (mach.CaptureState) every Every cycles
// and at the stream's causally interesting events — gate entries,
// faults, recoveries — plus one boot frame at the arming point. Memory
// is bounded: past Max frames the set is decimated (every second
// non-boot frame released, the interval stride doubled, saturating at
// the largest cycle count), so a long run degrades keyframe density,
// never footprint; a Max of 1 keeps only the boot frame. Frames are
// hashed only when their digest is read or the recording seals the
// set, so a frame evicted before then is never hashed. It lets a
// fast-forwarded poll loop skip only up to its next capture (see
// RepeatLimit), so every frame is captured live.
type Keyframer struct {
	// Every is the cycle interval between periodic keyframes; Max
	// bounds how many frames are held before decimation (0 selects
	// DefaultMaxKeyframes). Both must be set before Bind.
	Every uint64
	Max   int

	m       *mach.Machine
	n       int // events seen on the stream so far
	next    uint64
	stride  uint64
	frames  []*Keyframe
	evicted uint64
}

// Keyframe is one checkpoint: the captured state, its position in the
// event stream, and why it was taken.
type Keyframe struct {
	Cycle uint64
	// Event is the stream position: the index of the event at whose
	// emission the frame was captured ("boot" frames: the index the
	// next event will get). The seek suffix comparison starts here, and
	// the replay digest check fires at exactly this index.
	Event  int
	Reason string // "boot" | "interval" | "gate" | "fault" | "recovery"
	State  *mach.StateFrame
}

// Bind attaches the machine and captures the boot keyframe. Called
// from the run's observer hook (after restore and arming, before
// execution) — the same point a re-execution's verifier binds at, so
// boot-frame digests compare at identical machine states.
func (k *Keyframer) Bind(m *mach.Machine) {
	k.m = m
	k.stride = k.Every
	if k.stride == 0 {
		k.stride = DefaultKeyframeEvery
	}
	if k.Max == 0 {
		k.Max = DefaultMaxKeyframes
	}
	k.capture(m.Clock.Now(), k.n, "boot")
}

// HandleEvent counts stream position and captures on triggers
// (trace.Handler). Events arriving before Bind — a recording always
// attaches its handlers before the run boots its observer — only
// advance the position counter.
func (k *Keyframer) HandleEvent(e trace.Event) {
	idx := k.n
	k.n++
	if k.m == nil {
		return
	}
	reason := triggerReason(e.Kind)
	if reason == "" && e.Cycle >= k.next {
		reason = "interval"
	}
	if reason == "" {
		return
	}
	k.capture(e.Cycle, idx, reason)
}

// triggerReason names the capture an event of kind kind triggers
// whatever its cycle, or returns "".
func triggerReason(kind trace.Kind) string {
	switch kind {
	case trace.EvGateEnter:
		return "gate"
	case trace.EvFault:
		return "fault"
	case trace.EvRecovery:
		return "recovery"
	}
	return ""
}

// RepeatLimit admits the copies of a repeated window that capture
// nothing (trace.Limiter): those whose every event comes before the
// next interval capture, and none when the window holds a gate entry,
// fault or recovery. Every capture therefore happens live, at the same
// event and machine state as when each iteration runs.
func (k *Keyframer) RepeatLimit(w []trace.Event, period uint64) uint64 {
	var top uint64
	for _, e := range w {
		if triggerReason(e.Kind) != "" {
			return 0
		}
		top = max(top, e.Cycle)
	}
	switch {
	case top >= k.next:
		return 0
	case period == 0:
		return ^uint64(0)
	}
	// Copy j ends at top + j·period, which must stay below next.
	return (k.next - 1 - top) / period
}

// HandleRepeat advances the stream position over copies RepeatLimit
// admitted, which capture nothing (trace.Repeater).
func (k *Keyframer) HandleRepeat(w []trace.Event, n, _ uint64) {
	k.n += int(n) * len(w)
}

// capture appends a frame and enforces the memory bound.
func (k *Keyframer) capture(cycle uint64, idx int, reason string) {
	k.frames = append(k.frames, &Keyframe{
		Cycle: cycle, Event: idx, Reason: reason, State: k.m.CaptureState(),
	})
	k.next = satAdd(cycle, k.stride)
	for len(k.frames) > max(k.Max, 1) {
		k.decimate()
	}
}

// decimate releases every second non-boot frame and doubles the
// stride — deterministic eviction that keeps the boot anchor and halves
// density uniformly across the run so far.
func (k *Keyframer) decimate() {
	kept := k.frames[:1] // the boot frame anchors every seek
	for i := 1; i < len(k.frames); i++ {
		if (i-1)%2 == 1 {
			kept = append(kept, k.frames[i])
		} else {
			k.frames[i].State.Release()
			k.evicted++
		}
	}
	k.frames = append([]*Keyframe(nil), kept...)
	k.stride = satAdd(k.stride, k.stride)
	k.next = satAdd(k.frames[len(k.frames)-1].Cycle, k.stride)
}

// satAdd returns a+b, saturating at the largest uint64: a stride
// doubled past it would wrap to 0 and make every event an interval
// capture.
func satAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return ^uint64(0)
}

// seal digests every held frame, which drops each frame's pages and
// device copies — the recording calls it once its run has ended, so a
// kept session pins no machine state.
func (k *Keyframer) seal() {
	for _, f := range k.frames {
		f.State.Digest()
	}
}

// Nearest returns the latest keyframe with Cycle <= c, falling back to
// the boot frame (which exists after Bind).
func (k *Keyframer) Nearest(c uint64) *Keyframe {
	best := k.frames[0]
	for _, f := range k.frames[1:] {
		if f.Cycle <= c {
			best = f
		}
	}
	return best
}

// Frames returns the held keyframes in capture order.
func (k *Keyframer) Frames() []*Keyframe { return k.frames }

// Render lists the keyframes deterministically.
func (k *Keyframer) Render() string {
	var b []byte
	b = fmt.Appendf(b, "keyframes: %d held, %d evicted, stride %d cycles\n",
		len(k.frames), k.evicted, k.stride)
	for i, f := range k.frames {
		b = fmt.Appendf(b, "  #%-3d cycle=%-10d event=%-6d %-8s state=%s\n",
			i, f.Cycle, f.Event, f.Reason, f.State.Digest())
	}
	return string(b)
}

// Counters exposes checkpointer observability (trace.CounterSource).
func (k *Keyframer) Counters() []trace.Counter {
	return []trace.Counter{
		{Name: "debug.keyframes.held", Value: uint64(len(k.frames))},
		{Name: "debug.keyframes.evicted", Value: k.evicted},
		{Name: "debug.keyframes.stride", Value: k.stride},
	}
}
