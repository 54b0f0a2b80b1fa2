package debug

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"opec/internal/trace"
)

// slot returns the stored event behind logical index i: its own slot,
// or for a copy of a repeated window the window slot all copies share.
func (st *Store) slot(i int) *trace.Event {
	slot, _ := st.locate(i, st.segAfter(i))
	return &st.events[slot]
}

// storePair feeds one stream to a segmented store and to a reference
// store that ingests every copy of a repeated window through
// HandleEvent, as each iteration would have reached it.
type storePair struct {
	seg, ref *Store
	stream   []trace.Event // the logical stream so far
	now      uint64        // the stream's highest cycle
}

var opNamesForTest = []string{"Default", "Lock_Task", "Unlock_Task", "Key_Init"}

func newStorePair() *storePair {
	p := &storePair{now: 10}
	for _, st := range []**Store{&p.seg, &p.ref} {
		buf := trace.NewBuffer(4)
		for _, n := range opNamesForTest {
			buf.Intern(n)
		}
		*st = NewStore(buf)
	}
	return p
}

func (p *storePair) emit(e trace.Event) {
	p.seg.HandleEvent(e)
	p.ref.HandleEvent(e)
	p.stream = append(p.stream, e)
	p.now = max(p.now, e.Cycle)
}

func (p *storePair) repeat(w []trace.Event, k, period uint64) {
	w = append([]trace.Event(nil), w...) // Buffer.Repeat reuses its window
	p.seg.HandleRepeat(w, k, period)
	for j := uint64(1); j <= k; j++ {
		for _, e := range w {
			e.Cycle += j * period
			p.ref.HandleEvent(e)
			p.stream = append(p.stream, e)
			p.now = max(p.now, e.Cycle)
		}
	}
}

// randomEvent returns an event of a random kind at cycle c. Name ids
// run one past the interned names, which render as "?".
func randomEvent(rng *rand.Rand, c uint64) trace.Event {
	kinds := []trace.Kind{trace.EvCall, trace.EvCallRet, trace.EvBranch, trace.EvPhase, trace.EvFault, trace.EvRecovery, trace.EvMPURegion}
	e := trace.Event{Cycle: c, Kind: kinds[rng.Intn(len(kinds))], Op: -1,
		Arg: uint32(rng.Intn(len(opNamesForTest) + 2)), Arg2: uint32(rng.Intn(len(opNamesForTest) + 2))}
	if e.Kind == trace.EvPhase || e.Kind == trace.EvRecovery {
		e.Dur = uint64(rng.Intn(50))
	}
	return e
}

func activation(op int, c uint64) trace.Event {
	return trace.Event{Cycle: c, Kind: trace.EvOpActivate, Op: int32(op), Arg: uint32(op + 1)}
}

// randomStream drives p through steps of single events and repeated
// windows of 1–4 events with an op activation first, in the middle,
// last or nowhere, repeated 0, 1, 2, 3 or 1000 times. Some windows are
// the stream's last events as Buffer.Repeat hands them over, right
// after another repeat or not. The rest are fresh: emitted first, or
// handed over cold, so that the operation active before the repeat
// need not be the one the window leaves active. With regress, one
// repeat's copies start before its window ends, so they regress.
func randomStream(rng *rand.Rand, p *storePair, steps int, regress bool) {
	ks := []uint64{0, 1, 2, 3, 1000}
	bad := -1
	if regress {
		bad = rng.Intn(steps)
	}
	for step := 0; step < steps; step++ {
		choice := rng.Intn(3)
		if step == bad && choice == 0 {
			choice = 2
		}
		switch choice {
		case 0:
			for range 1 + rng.Intn(3) {
				p.emit(randomEvent(rng, p.now+uint64(rng.Intn(3))))
			}
			continue
		case 1:
			if len(p.stream) > 0 {
				// The stream's last events, possibly copies of the last
				// repeat.
				n := min(1+rng.Intn(4), len(p.stream))
				p.repeatWindow(rng, p.stream[len(p.stream)-n:], ks, step == bad)
				continue
			}
		}
		n := 1 + rng.Intn(4)
		act := []int{0, n / 2, n - 1, n}[rng.Intn(4)]
		cold := len(p.stream) > 0 && rng.Intn(2) == 0
		w := make([]trace.Event, n)
		c := p.now + uint64(rng.Intn(4))
		if cold {
			// A cold window ends at the stream's last cycle, as one
			// Buffer.Repeat hands over does: RepeatCycles counts on it.
			c = p.now - min(uint64(rng.Intn(3*n)), p.now)
		}
		for i := range w {
			if i > 0 {
				c += uint64(rng.Intn(4))
			}
			if cold {
				c = min(c, p.now)
				if i == n-1 {
					c = p.now
				}
			}
			w[i] = randomEvent(rng, c)
			if i == act {
				w[i] = activation(rng.Intn(len(opNamesForTest)), c)
			}
		}
		if !cold {
			for _, e := range w {
				p.emit(e)
			}
		}
		p.repeatWindow(rng, w, ks, step == bad)
	}
}

func (p *storePair) repeatWindow(rng *rand.Rand, w []trace.Event, ks []uint64, regress bool) {
	lo, hi := w[0].Cycle, w[0].Cycle
	for _, e := range w {
		lo, hi = min(lo, e.Cycle), max(hi, e.Cycle)
	}
	period := hi - lo + uint64(rng.Intn(5))
	if regress {
		// Copies that start before the window ends regress; a window
		// on one cycle moves back one, behind the stream's last event.
		period = 0
		if hi == lo {
			w = append([]trace.Event(nil), w...)
			for i := range w {
				w[i].Cycle--
			}
		}
	}
	k := ks[rng.Intn(len(ks))]
	if regress && k == 0 {
		k = 2
	}
	p.repeat(w, k, period)
}

// sameStores compares every reader of the segmented store with the
// reference store's.
func sameStores(t *testing.T, seg, ref *Store) {
	t.Helper()
	if seg.Len() != ref.Len() {
		t.Fatalf("Len %d, reference %d", seg.Len(), ref.Len())
	}
	for i := 0; i < ref.Len(); i++ {
		if seg.Event(i) != ref.Event(i) || seg.Domain(i) != ref.Domain(i) || seg.Render(i) != ref.Render(i) {
			t.Fatalf("event %d: %+v domain %d %q; reference %+v domain %d %q", i,
				seg.Event(i), seg.Domain(i), seg.Render(i), ref.Event(i), ref.Domain(i), ref.Render(i))
		}
		if seg.DomainName(seg.Domain(i)) != ref.DomainName(ref.Domain(i)) {
			t.Fatalf("event %d: domain name %q, reference %q", i, seg.DomainName(seg.Domain(i)), ref.DomainName(ref.Domain(i)))
		}
	}
	cycles := []uint64{0, ^uint64(0)}
	for i := 0; i < ref.Len(); i++ {
		c := ref.Event(i).Cycle
		cycles = append(cycles, c-1, c, c+1)
	}
	for _, c := range cycles {
		if got, want := seg.IndexAt(c), ref.IndexAt(c); got != want {
			t.Fatalf("IndexAt(%d) = %d, reference %d", c, got, want)
		}
	}
	for k := trace.EvNone; k <= trace.EvBranch+1; k++ {
		if got, want := seg.ByKind(k), ref.ByKind(k); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("ByKind(%v) = %v, reference %v", k, got, want)
		}
	}
	if seg.KindBuckets() != ref.KindBuckets() || seg.DomainBuckets() != ref.DomainBuckets() {
		t.Fatalf("buckets %d kinds, %d domains; reference %d and %d",
			seg.KindBuckets(), seg.DomainBuckets(), ref.KindBuckets(), ref.DomainBuckets())
	}
	if seg.FirstCycle() != ref.FirstCycle() || seg.LastCycle() != ref.LastCycle() || seg.Dropped() != ref.Dropped() {
		t.Fatalf("cycles [%d, %d] dropped %d; reference [%d, %d] dropped %d",
			seg.FirstCycle(), seg.LastCycle(), seg.Dropped(), ref.FirstCycle(), ref.LastCycle(), ref.Dropped())
	}
}

// TestStoreSegmentsMatchEvents is the store's differential: on random
// streams of single events and repeated windows, every reader of a
// store holding each repeat as a segment answers as a store that
// ingested the copies event by event, and both refuse a stream whose
// repeated window regresses, counting the same regressions.
func TestStoreSegmentsMatchEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	segs := 0
	for trial := 0; trial < 300; trial++ {
		p := newStorePair()
		regress := trial%10 == 9
		randomStream(rng, p, 1+rng.Intn(12), regress)
		segErr, refErr := p.seg.Finish(), p.ref.Finish()
		if fmt.Sprint(segErr) != fmt.Sprint(refErr) {
			t.Fatalf("trial %d: Finish: %v; reference %v", trial, segErr, refErr)
		}
		if regress {
			if segErr == nil || !strings.Contains(segErr.Error(), "regressions") {
				t.Fatalf("trial %d: a regressing window was accepted: %v", trial, segErr)
			}
			continue
		}
		if segErr != nil {
			t.Fatalf("trial %d: %v", trial, segErr)
		}
		segs += len(p.seg.segs)
		sameStores(t, p.seg, p.ref)
	}
	if segs < 300 {
		t.Errorf("%d segments in 300 streams; the differential exercises little", segs)
	}
}

// TestStoreSegmentDomains pins the owners of repeated copies: copy 1
// of a window is owned as its events would be, and every later copy is
// owned before the window's first activation by the operation the
// previous copy left active, not by the one active before the repeat.
// The window is handed over cold, so those two differ.
func TestStoreSegmentDomains(t *testing.T) {
	p := newStorePair()
	p.emit(activation(0, 10))
	w := []trace.Event{{Cycle: 8, Kind: trace.EvCall, Arg: 1}, activation(2, 9), {Cycle: 10, Kind: trace.EvCallRet, Arg: 1}}
	p.repeat(w, 3, 5)
	for _, st := range []*Store{p.seg, p.ref} {
		if err := st.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	sameStores(t, p.seg, p.ref)
	var got []int32
	for i := 0; i < p.seg.Len(); i++ {
		got = append(got, p.seg.Domain(i))
	}
	if want := "[0 0 2 2 2 2 2 2 2 2]"; fmt.Sprint(got) != want {
		t.Errorf("domains %v, want %s", got, want)
	}
}

// suffixReplay streams prefix, then k shifted copies of its last n
// events through Buffer.Repeat in runs of the given sizes, each run
// after the first re-windowed on the stream's last n events, then
// tail, into a bus whose suffix check compares against rec from index
// from. It returns the check's verdict.
func suffixReplay(t *testing.T, rec *Store, from int, prefix []trace.Event, n int, runs []uint64, period uint64, tail []trace.Event) error {
	t.Helper()
	buf := trace.NewBuffer(0)
	for _, name := range opNamesForTest {
		buf.Intern(name)
	}
	chk := &suffixCheck{rec: rec, buf: buf, from: from}
	buf.Attach(chk)
	for _, e := range prefix {
		buf.Emit(e)
	}
	for _, k := range runs {
		if got := buf.Repeat(uint64(n), k, period); got != k {
			t.Fatalf("Repeat recorded %d copies, want %d", got, k)
		}
	}
	for _, e := range tail {
		buf.Emit(e)
	}
	return chk.err()
}

// suffixRecording records prefix, then one segment per run, each
// repeating the stream's last n events with the given period, or with
// window, when non-nil, in place of the first run's; then tail.
func suffixRecording(t *testing.T, prefix []trace.Event, n int, runs []uint64, period uint64, window []trace.Event, tail []trace.Event) *Store {
	t.Helper()
	p := newStorePair()
	for _, e := range prefix {
		p.emit(e)
	}
	for i, k := range runs {
		w := p.stream[len(p.stream)-n:]
		if i == 0 && window != nil {
			w = window
		}
		p.repeat(w, k, period)
	}
	for _, e := range tail {
		p.emit(e)
	}
	if err := p.seg.Finish(); err != nil {
		t.Fatal(err)
	}
	return p.seg
}

// TestSuffixCheckSegments checks seek's suffix comparison of replayed
// repeats against recorded segments: a recording replayed with its
// copies split into different runs passes, as does a window that
// differs only where the renderer does not look; a recorded window
// event, period or copy count that differs from the replay fails,
// even when the first copy agrees.
func TestSuffixCheckSegments(t *testing.T) {
	prefix := []trace.Event{
		activation(0, 5), {Cycle: 7, Kind: trace.EvCall, Arg: 2, Arg2: 1},
		{Cycle: 8, Kind: trace.EvBranch, Arg: 2, Arg2: 3}, activation(1, 9),
	}
	tail := []trace.Event{{Cycle: 1000, Kind: trace.EvFault, Arg: 0x20000000}}
	const n, period = 3, 4
	last := prefix[len(prefix)-n:]
	shifted := func(d uint64, change func(*trace.Event)) []trace.Event {
		w := append([]trace.Event(nil), last...)
		for i := range w {
			w[i].Cycle += d
		}
		if change != nil {
			change(&w[1])
		}
		return w
	}
	for _, c := range []struct {
		what     string
		recRuns  []uint64
		recP     uint64
		window   []trace.Event
		playRuns []uint64
		ok       bool
	}{
		{"one segment replayed as one", []uint64{8}, period, nil, []uint64{8}, true},
		{"3 + 5 copies against 8", []uint64{8}, period, nil, []uint64{3, 5}, true},
		{"8 copies against 3 + 5", []uint64{3, 5}, period, nil, []uint64{8}, true},
		{"8 copies against 1 + 2 + 5", []uint64{1, 2, 5}, period, nil, []uint64{8}, true},
		{"duration not rendered", []uint64{8}, period, shifted(0, func(e *trace.Event) { e.Dur++ }), []uint64{8}, true},
		{"window event changed", []uint64{8}, period, shifted(0, func(e *trace.Event) { e.Arg2++ }), []uint64{8}, false},
		{"window event changed, replayed 3 + 5", []uint64{8}, period, shifted(0, func(e *trace.Event) { e.Arg2++ }), []uint64{3, 5}, false},
		{"period one longer, first copy agreeing", []uint64{8}, period + 1, shifted(^uint64(0), nil), []uint64{8}, false},
		{"period one shorter, first copy agreeing", []uint64{8}, period - 1, shifted(1, nil), []uint64{8}, false},
		{"one copy fewer", []uint64{7}, period, nil, []uint64{8}, false},
		{"one copy more", []uint64{9}, period, nil, []uint64{8}, false},
	} {
		rec := suffixRecording(t, prefix, n, c.recRuns, c.recP, c.window, tail)
		for _, from := range []int{0, 2, len(prefix) + 1, len(prefix) + 2*n + 1} {
			err := suffixReplay(t, rec, from, prefix, n, c.playRuns, period, tail)
			if (err == nil) != c.ok {
				t.Errorf("%s, checked from %d: error %v, want ok=%v", c.what, from, err, c.ok)
			}
		}
	}
}
