// Package debug is the time-travel debugger over the simulator's
// deterministic replay substrate. It records one run — clean, or any
// inject/fuzz finding named by its replay spec — into an indexed trace
// store with keyframe state checkpoints, and then answers causal
// queries about it: seek to a cycle (re-execute from the boot
// checkpoint, verify the regenerated stream against the recording and
// the keyframe digest), data watchpoints over any address range,
// last-writer backward slices, and blame (walk a fault back to the
// rogue store that caused it — the §6.1 KEY-overwrite forensics as one
// command).
//
// The design leans on two established invariants rather than fighting
// the machine's host-stack activation records:
//
//   - Forked trials are byte-identical (run.Context / inject.Forge),
//     so "restore and re-execute forward" is implemented as replay from
//     the boot checkpoint with fresh observers attached — every query
//     sees exactly the recorded run.
//   - Keyframes are mid-run mach.StateFrame captures (copy-on-write,
//     no quiescence requirement); a seek proves the replay passed
//     through the keyframe by comparing live StateDigest against the
//     frame at the same event-stream position, and checks every event
//     the re-execution emits from the keyframe on against the recording
//     as it streams (equal to byte-comparing the rendered suffixes).
//
// Every observer a session attaches is a trace.Repeater, so the
// recording and every query re-execution fast-forward device-poll
// loops as campaign trials do; the checkpointer and the seek verifier
// limit a skip to end before the event at which they read machine
// state (trace.Limiter).
package debug

import (
	"fmt"
	"sort"

	"opec/internal/trace"
)

// Store is the indexed trace store: the complete event stream of one
// recorded run (ingested pre-drop via the streaming handler interface,
// so ring wrap loses nothing), with each event's owning domain, a
// per-cycle binary search, per-kind indexes built on first use, and
// the ring's exact drop count preserved as recording metadata.
//
// The stream is stored run-length encoded. An event the run emitted
// takes one slot of events; a fast-forwarded poll loop, k copies of an
// n-event window, takes one segment, which keeps the window's events
// once. Every reader answers in logical stream indices, as if each
// copy had been stored event by event, and computes what a copy holds
// from its segment. Finish seals the store: it keeps the recording's
// name table and drop count and lets go of the recording bus.
type Store struct {
	buf   *trace.Buffer   // the recording bus, until Finish
	names trace.NameTable // the recording's name table, from Finish on

	events  []trace.Event // single events and segment windows, in stream order
	domains []int32       // owning domain per slot (active op at emission; -1 pre-activation)
	segs    []segment
	// repeated counts the logical events the segments hold beyond
	// their stored windows: Len is len(events)+repeated.
	repeated int
	opNames  map[int32]string

	// byKind caches ByKind's answers; kinds and doms are the distinct
	// kinds and domains in the stream, counted by Finish.
	byKind      map[trace.Kind][]int
	kinds, doms int

	curOp       int32
	lastCycle   uint64
	regressions uint64
	dropped     uint64
}

// segment is k copies of an n-event window stored once, at
// events[slot:slot+n]: copy j (1..k) is the window with every cycle
// shifted by j·period. A window slot's domain is its owner in copy 1.
// Copies 2..k are owned the same from the window's first op activation
// on; before it, by the operation copy 1 leaves active, which owns the
// window's last slot.
type segment struct {
	start  int // logical index of copy 1's first event
	slot   int
	n, k   int
	period uint64
	act    int // window index of the first op activation (n if none)
}

// end returns the logical index after the segment's last copy.
func (g *segment) end() int { return g.start + g.k*g.n }

// NewStore attaches a fresh store to buf's live stream. Everything
// emitted after this call is ingested.
func NewStore(buf *trace.Buffer) *Store {
	st := &Store{buf: buf, opNames: map[int32]string{}, curOp: -1}
	buf.Attach(st)
	return st
}

// HandleEvent ingests one event (trace.Handler).
func (st *Store) HandleEvent(e trace.Event) {
	if e.Cycle < st.lastCycle {
		st.regressions++
	} else {
		st.lastCycle = e.Cycle
	}
	st.append(e)
}

// append stores e in the next slot, owned by the operation active once
// e has been applied.
func (st *Store) append(e trace.Event) {
	if e.Kind == trace.EvOpActivate {
		st.curOp = e.Op
		if _, ok := st.opNames[e.Op]; !ok {
			st.opNames[e.Op] = st.buf.Name(e.Arg)
		}
	}
	st.events = append(st.events, e)
	st.domains = append(st.domains, st.curOp)
}

// HandleRepeat ingests k shifted copies of a repeated window as one
// segment (trace.Repeater). Every reader, and the cycle regressions
// Finish refuses, count the k·n events as HandleEvent would have.
func (st *Store) HandleRepeat(w []trace.Event, k, period uint64) {
	if len(w) == 0 || k == 0 {
		return
	}
	r, high := trace.RepeatCycles(w, k, period, st.lastCycle)
	st.regressions += r
	st.lastCycle = high
	g := segment{start: st.Len(), slot: len(st.events), n: len(w), k: int(k), period: period, act: len(w)}
	for i, e := range w {
		if e.Kind == trace.EvOpActivate && g.act == g.n {
			g.act = i
		}
		st.append(e)
	}
	st.segs = append(st.segs, g)
	st.repeated += (g.k - 1) * g.n
}

// Finish seals the recording: counts the distinct kinds and domains,
// asserts stream health, and keeps the recording bus's name table and
// drop count in place of the bus and its ring. A non-monotonic stream
// is refused — the per-cycle binary search would misresolve on it, and
// monotonicity is an invariant of any correctly attached run (see
// trace.Buffer.CycleRegressions).
func (st *Store) Finish() error {
	if st.regressions > 0 {
		return fmt.Errorf("debug: recorded stream is non-monotonic (%d cycle regressions): a restored machine emitted into a stale buffer", st.regressions)
	}
	// A segment's copies hold its window's kinds and owners.
	var kinds [256]bool
	doms := map[int32]bool{}
	for i, e := range st.events {
		kinds[e.Kind] = true
		if i == 0 || st.domains[i] != st.domains[i-1] {
			doms[st.domains[i]] = true
		}
	}
	st.kinds, st.doms = 0, len(doms)
	for _, seen := range kinds {
		if seen {
			st.kinds++
		}
	}
	if st.buf != nil {
		st.names, st.dropped = st.buf.Names(), st.buf.Dropped()
		st.buf = nil
	}
	return nil
}

// Len returns the number of recorded events.
func (st *Store) Len() int { return len(st.events) + st.repeated }

// Dropped returns how many events the recording ring overwrote. The
// store itself is complete (handlers run pre-drop); the count is kept
// so reports preserve the ring's exact accounting.
func (st *Store) Dropped() uint64 { return st.dropped }

// segAfter returns the index of the first segment that ends after
// logical index i (len(segs) when none does).
func (st *Store) segAfter(i int) int {
	return sort.Search(len(st.segs), func(g int) bool { return st.segs[g].end() > i })
}

// locate maps logical index i to its slot and the cycle shift of its
// copy (0 outside segments), given g = st.segAfter(i).
func (st *Store) locate(i, g int) (slot int, shift uint64) {
	if g < len(st.segs) && i >= st.segs[g].start {
		s := &st.segs[g]
		off := i - s.start
		return s.slot + off%s.n, uint64(off/s.n+1) * s.period
	}
	if g == 0 {
		return i, 0
	}
	// Events after segment g-1 are stored right after its window.
	p := &st.segs[g-1]
	return p.slot + p.n + i - p.end(), 0
}

// Event returns event i.
func (st *Store) Event(i int) trace.Event { return st.eventAt(i, st.segAfter(i)) }

// eventAt returns event i, given g = st.segAfter(i).
func (st *Store) eventAt(i, g int) trace.Event {
	slot, shift := st.locate(i, g)
	e := st.events[slot]
	e.Cycle += shift
	return e
}

// Domain returns the id of the operation that owned event i (-1 before
// the first activation).
func (st *Store) Domain(i int) int32 {
	g := st.segAfter(i)
	slot, _ := st.locate(i, g)
	if g < len(st.segs) {
		if s := &st.segs[g]; i >= s.start+s.n && slot-s.slot < s.act {
			return st.domains[s.slot+s.n-1] // copies 2..k before the window's first activation
		}
	}
	return st.domains[slot]
}

// DomainName resolves a domain id recorded by the stream.
func (st *Store) DomainName(id int32) string {
	if n, ok := st.opNames[id]; ok {
		return n
	}
	return "?"
}

// ByKind returns the indexes of every event of kind k, in stream
// order. The first call for a kind scans the finished stream and
// caches the answer.
func (st *Store) ByKind(k trace.Kind) []int {
	if idx, ok := st.byKind[k]; ok {
		return idx
	}
	var idx []int
	plain := func(i, slot, end int) {
		for ; slot < end; i, slot = i+1, slot+1 {
			if st.events[slot].Kind == k {
				idx = append(idx, i)
			}
		}
	}
	i, slot := 0, 0 // the next plain event and its slot
	for _, s := range st.segs {
		plain(i, slot, s.slot)
		var at []int // window offsets of kind k
		for m, e := range st.events[s.slot : s.slot+s.n] {
			if e.Kind == k {
				at = append(at, m)
			}
		}
		for c := s.start; len(at) > 0 && c < s.end(); c += s.n {
			for _, m := range at {
				idx = append(idx, c+m)
			}
		}
		i, slot = s.end(), s.slot+s.n
	}
	plain(i, slot, len(st.events))
	if st.byKind == nil {
		st.byKind = map[trace.Kind][]int{}
	}
	st.byKind[k] = idx
	return idx
}

// KindBuckets returns how many kinds have at least one event.
func (st *Store) KindBuckets() int { return st.kinds }

// DomainBuckets returns how many domains own at least one event.
func (st *Store) DomainBuckets() int { return st.doms }

// IndexAt returns the index of the last event with Cycle <= c, or -1
// when the stream starts after c. It binary-searches the monotonic
// stream — what Finish's monotonicity assertion protects — first for
// the last segment starting at or before c, then inside that
// segment's copies arithmetically, then among the single events after
// it.
func (st *Store) IndexAt(c uint64) int {
	g := sort.Search(len(st.segs), func(g int) bool {
		s := &st.segs[g]
		return st.events[s.slot].Cycle+s.period > c
	})
	lo, hi, slot := 0, st.Len(), 0 // single events [lo, hi) from slot on
	if g < len(st.segs) {
		hi = st.segs[g].start
	}
	if g > 0 {
		s := &st.segs[g-1]
		w := st.events[s.slot : s.slot+s.n]
		// Copy j is the last whose first event is at or before c, and
		// m counts its events at or before c.
		j := s.k
		if s.period > 0 {
			j = int(min(uint64(j), (c-w[0].Cycle)/s.period))
		}
		m := 0
		for m < s.n && w[m].Cycle+uint64(j)*s.period <= c {
			m++
		}
		if j < s.k || m < s.n {
			return s.start + (j-1)*s.n + m - 1
		}
		lo, slot = s.end(), s.slot+s.n
	}
	n := sort.Search(hi-lo, func(i int) bool { return st.events[slot+i].Cycle > c })
	return lo + n - 1
}

// FirstCycle returns the first event's cycle stamp (0 for an empty
// recording).
func (st *Store) FirstCycle() uint64 {
	if st.Len() == 0 {
		return 0
	}
	return st.Event(0).Cycle
}

// LastCycle returns the final event's cycle stamp (0 for an empty
// recording).
func (st *Store) LastCycle() uint64 {
	if st.Len() == 0 {
		return 0
	}
	return st.Event(st.Len() - 1).Cycle
}

// Render formats event i in the deterministic text-line format.
func (st *Store) Render(i int) string { return st.names.RenderEvent(st.Event(i)) }

// Counters exposes the store's index sizes (trace.CounterSource).
func (st *Store) Counters() []trace.Counter {
	return []trace.Counter{
		{Name: "debug.store.events", Value: uint64(st.Len())},
		{Name: "debug.store.segments", Value: uint64(len(st.segs))},
		{Name: "debug.store.dropped", Value: st.dropped},
		{Name: "debug.store.kind_buckets", Value: uint64(st.kinds)},
		{Name: "debug.store.domain_buckets", Value: uint64(st.doms)},
	}
}

// cursor reads a store's stream in order, as the seek suffix check
// does. It keeps the index of the first segment that ends after its
// position, so moving forward, an event or a whole repeat at a time,
// costs no search. Its zero value starts at the stream's first event.
type cursor struct{ g int }

// advance moves the cursor to logical index i, at or after its
// position.
func (c *cursor) advance(st *Store, i int) {
	for c.g < len(st.segs) && st.segs[c.g].end() <= i {
		c.g++
	}
}

// event returns event i, at or after the cursor's position.
func (c *cursor) event(st *Store, i int) trace.Event {
	c.advance(st, i)
	return st.eventAt(i, c.g)
}

// piece returns the segment holding logical index i, or nil when i is
// a single event, and the index where that segment or run of single
// events ends. i must be at or after the cursor's position.
func (c *cursor) piece(st *Store, i int) (*segment, int) {
	c.advance(st, i)
	switch {
	case c.g == len(st.segs):
		return nil, st.Len()
	case i < st.segs[c.g].start:
		return nil, st.segs[c.g].start
	}
	return &st.segs[c.g], st.segs[c.g].end()
}
