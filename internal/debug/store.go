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

	"opec/internal/trace"
)

// Store is the indexed trace store: the complete event stream of one
// recorded run (ingested pre-drop via the streaming handler interface,
// so ring wrap loses nothing), with each event's owning domain, a
// per-cycle binary search, per-kind indexes built on first use, and
// the ring's exact drop count preserved as recording metadata.
type Store struct {
	buf *trace.Buffer // name table + renderer for the recorded stream

	events  []trace.Event
	domains []int32 // owning domain per event (active op at emission; -1 pre-activation)
	opNames map[int32]string

	// byKind caches ByKind's answers; kinds and doms are the distinct
	// kinds and domains in the stream, counted by Finish.
	byKind      map[trace.Kind][]int
	kinds, doms int

	curOp       int32
	lastCycle   uint64
	regressions uint64
	dropped     uint64
}

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
	if e.Kind == trace.EvOpActivate {
		st.curOp = e.Op
		if _, ok := st.opNames[e.Op]; !ok {
			st.opNames[e.Op] = st.buf.Name(e.Arg)
		}
	}
	st.events = append(st.events, e)
	st.domains = append(st.domains, st.curOp)
}

// HandleRepeat ingests k shifted copies of a repeated window one event
// at a time (trace.Repeater), so a fast-forwarded poll loop is stored
// exactly as its iterations would have been.
func (st *Store) HandleRepeat(w []trace.Event, k, period uint64) {
	for j := uint64(1); j <= k; j++ {
		for _, e := range w {
			e.Cycle += j * period
			st.HandleEvent(e)
		}
	}
}

// Finish seals the recording: counts the distinct kinds and domains
// and asserts stream health. A non-monotonic stream is refused — the
// per-cycle binary search would misresolve on it, and monotonicity is
// an invariant of any correctly attached run (see
// trace.Buffer.CycleRegressions).
func (st *Store) Finish() error {
	if st.regressions > 0 {
		return fmt.Errorf("debug: recorded stream is non-monotonic (%d cycle regressions): a restored machine emitted into a stale buffer", st.regressions)
	}
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
	st.dropped = st.buf.Dropped()
	return nil
}

// Len returns the number of recorded events.
func (st *Store) Len() int { return len(st.events) }

// Dropped returns how many events the recording ring overwrote. The
// store itself is complete (handlers run pre-drop); the count is kept
// so reports preserve the ring's exact accounting.
func (st *Store) Dropped() uint64 { return st.dropped }

// Event returns event i.
func (st *Store) Event(i int) trace.Event { return st.events[i] }

// Domain returns the id of the operation that owned event i (-1 before
// the first activation).
func (st *Store) Domain(i int) int32 { return st.domains[i] }

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
	for i, e := range st.events {
		if e.Kind == k {
			idx = append(idx, i)
		}
	}
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
// when the stream starts after c. Binary search over the monotonic
// stream — this is what Finish's monotonicity assertion protects.
func (st *Store) IndexAt(c uint64) int {
	lo, hi := 0, len(st.events) // invariant: events[:lo] <= c < events[hi:]
	for lo < hi {
		mid := (lo + hi) / 2
		if st.events[mid].Cycle <= c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// FirstCycle returns the first event's cycle stamp (0 for an empty
// recording).
func (st *Store) FirstCycle() uint64 {
	if len(st.events) == 0 {
		return 0
	}
	return st.events[0].Cycle
}

// LastCycle returns the final event's cycle stamp (0 for an empty
// recording).
func (st *Store) LastCycle() uint64 {
	if len(st.events) == 0 {
		return 0
	}
	return st.events[len(st.events)-1].Cycle
}

// Render formats event i in the deterministic text-line format.
func (st *Store) Render(i int) string { return st.buf.RenderEvent(st.events[i]) }

// Counters exposes the store's index sizes (trace.CounterSource).
func (st *Store) Counters() []trace.Counter {
	return []trace.Counter{
		{Name: "debug.store.events", Value: uint64(len(st.events))},
		{Name: "debug.store.dropped", Value: st.dropped},
		{Name: "debug.store.kind_buckets", Value: uint64(st.kinds)},
		{Name: "debug.store.domain_buckets", Value: uint64(st.doms)},
	}
}
