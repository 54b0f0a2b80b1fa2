package debug

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"opec/internal/apps"
	"opec/internal/exper"
	"opec/internal/inject"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/trace"
)

// keyOverwriteSpec is the paper's §6.1 case study: Lock_Task's first
// activation smuggles a rogue byte into KEY, the MPU denies it, and the
// restart policy recovers the operation.
const keyOverwriteSpec = "store:Lock_Task:1:KEY:0:-1:0xee"

// golden records the §6.1 KEY-overwrite run.
func golden(t *testing.T) *Session {
	t.Helper()
	s, err := New(goldenConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// goldenConfig configures the §6.1 KEY-overwrite session.
func goldenConfig(t *testing.T) Config {
	t.Helper()
	spec, err := inject.ParseSpec(keyOverwriteSpec)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		App:    apps.PinLockN(1),
		Spec:   &spec,
		Policy: monitor.Policy{Kind: monitor.RestartOperation},
	}
}

// TestBlameGoldenKeyOverwrite reproduces the §6.1 forensics: blame with
// no cycle walks the recovered fault back to the exact rogue store —
// operation, function, PC, value, verdict — and reports the recovery
// that followed.
func TestBlameGoldenKeyOverwrite(t *testing.T) {
	s := golden(t)
	out, err := s.Blame(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"in op Lock_Task", "MemManage write", "(KEY+0)",
		"rogue store:", "fn=Lock_Task", "pc=0x", "value=0xee", "DENIED MemManage",
		"then:", "restart attempt=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("blame output missing %q:\n%s", want, out)
		}
	}
	// The benign HAL boot faults (tolerated privileged-peripheral pokes)
	// must not be blamed by default.
	if strings.Contains(out, "BusFault") {
		t.Errorf("blame picked a boot BusFault over the recovered fault:\n%s", out)
	}
}

// TestSeekGoldenBothBackends is the acceptance sweep: seek to a sample
// of every region of the golden trace — first events, the fault, the
// recovery, the final event — restores from the nearest keyframe and
// proves the regenerated suffix byte-identical. The interp subtest is
// the one engine left of the two the sweep once ran on.
func TestSeekGoldenBothBackends(t *testing.T) {
	t.Run("interp", func(t *testing.T) {
		s := golden(t)
		st := s.Store()
		targets := []int{0, 1, st.Len() / 4, st.Len() / 2, st.Len() - 1}
		if faults := st.ByKind(trace.EvFault); len(faults) > 0 {
			targets = append(targets, faults[len(faults)-1])
		}
		if recs := st.ByKind(trace.EvRecovery); len(recs) > 0 {
			targets = append(targets, recs[0])
		}
		for _, idx := range targets {
			c := st.Event(idx).Cycle
			out, err := s.Seek(c)
			if err != nil {
				t.Fatalf("seek %d (event %d): %v", c, idx, err)
			}
			if !strings.Contains(out, "byte-identical") {
				t.Fatalf("seek %d did not verify the suffix:\n%s", c, out)
			}
		}
	})
}

// TestSeekPastEndRejected pins the out-of-range diagnostics: a cycle
// past the last recorded event, and one before the first, where no
// event is the target.
func TestSeekPastEndRejected(t *testing.T) {
	s := golden(t)
	if _, err := s.Seek(s.Store().LastCycle() + 1); err == nil {
		t.Fatal("seek past the end of the run succeeded")
	}
	first := s.Store().Event(0).Cycle
	if first == 0 {
		t.Fatal("the golden run's first event is at cycle 0; no cycle precedes it")
	}
	for _, c := range []uint64{0, first - 1} {
		_, err := s.Seek(c)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("first event (at cycle %d)", first)) {
			t.Errorf("seek %d before the first event at cycle %d: error %v", c, first, err)
		}
	}
}

// TestSeekStreamingSuffixCheck tampers with the golden recording and
// pins what seek's streaming suffix check refuses: exactly what
// comparing the rendered suffixes from the keyframe on would.
func TestSeekStreamingSuffixCheck(t *testing.T) {
	s := golden(t)
	st := s.Store()
	c := st.Event(st.Len() / 2).Cycle
	from := s.Keyframes().Nearest(c).Event
	call := -1
	for _, i := range st.ByKind(trace.EvCall) {
		if e := st.Event(i); i >= from && e.Arg != e.Arg2 {
			call = i
			break
		}
	}
	if call < 0 {
		t.Fatal("no call event at or after the keyframe")
	}
	seek := func(what string, wantErr bool) {
		t.Helper()
		_, err := s.Seek(c)
		switch {
		case !wantErr && err != nil:
			t.Errorf("%s: %v", what, err)
		case wantErr && (err == nil || !strings.Contains(err.Error(), "differs from the recording")):
			t.Errorf("%s: seek error %v, want the suffix to differ from the recording", what, err)
		}
	}
	edit := func(i int, change func(*trace.Event)) (undo func()) {
		e := st.slot(i)
		orig := *e
		change(e)
		return func() { *e = orig }
	}

	undo := edit(from, func(e *trace.Event) { e.Cycle++ })
	seek("cycle of the keyframe's own event changed", true)
	undo()
	undo = edit(call, func(e *trace.Event) { e.Arg = e.Arg2 })
	seek("callee of a call changed", true)
	undo()
	undo = edit(call, func(e *trace.Event) { e.Dur += 5 })
	seek("duration of a call changed (not rendered)", false)
	undo()

	events := st.events
	st.events = events[:len(events)-1]
	seek("recording one event shorter", true)
	st.events = append(events[:len(events):len(events)], events[len(events)-1])
	seek("recording one event longer", true)
	st.events = events

	names := st.names
	id := st.Event(call).Arg
	orig := names[id]
	names[id] = orig + "_renamed"
	seek("recorded name of a rendered id changed", true)
	names[id] = orig

	seek("untampered recording", false)
}

// TestSuffixCheckRepeatedCopies pins that the suffix check compares
// every copy a fast-forward repeats: a recording that differs from the
// replay at any event from the check's start on, inside or outside the
// repeated copies, is refused, and one that differs only before it is
// accepted. The recording holds the copies event by event, or as the
// segment a repeat stores, where changing a copy changes the window
// all its copies share.
func TestSuffixCheckRepeatedCopies(t *testing.T) {
	events := []trace.Event{
		{Cycle: 5, Kind: trace.EvCall, Arg: 1}, {Cycle: 6, Kind: trace.EvCallRet, Arg: 1},
		{Cycle: 8, Kind: trace.EvCall, Arg: 2}, {Cycle: 9, Kind: trace.EvCallRet, Arg: 2},
	}
	const copies, period = 3, 4
	tail := trace.Event{Cycle: 40, Kind: trace.EvFault}
	replay := func(rec *Store) error {
		buf := trace.NewBuffer(0)
		chk := &suffixCheck{rec: rec, buf: buf, from: 1}
		buf.Attach(chk)
		for _, e := range events {
			buf.Emit(e)
		}
		if got := buf.Repeat(2, copies, period); got != copies {
			t.Fatalf("Repeat recorded %d copies, want %d", got, copies)
		}
		buf.Emit(tail)
		return chk.err()
	}
	record := func(repeated bool) *Store {
		buf := trace.NewBuffer(0)
		rec := NewStore(buf)
		for _, e := range events {
			buf.Emit(e)
		}
		if repeated {
			if got := buf.Repeat(2, copies, period); got != copies {
				t.Fatalf("Repeat recorded %d copies, want %d", got, copies)
			}
		} else {
			for j := uint64(1); j <= copies; j++ {
				for _, e := range events[2:] {
					e.Cycle += j * period
					buf.Emit(e)
				}
			}
		}
		buf.Emit(tail)
		if err := rec.Finish(); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	for _, repeated := range []bool{false, true} {
		if err := replay(record(repeated)); err != nil {
			t.Fatalf("untampered recording (repeated %v): %v", repeated, err)
		}
		if segs := len(record(repeated).segs); (segs == 1) != repeated || segs > 1 {
			t.Fatalf("recording (repeated %v) holds %d segments", repeated, segs)
		}
		for i := range record(repeated).Len() {
			rec := record(repeated)
			rec.slot(i).Cycle++
			if err := replay(rec); (err != nil) != (i >= 1) {
				t.Errorf("recording (repeated %v) changed at event %d: suffix check error %v", repeated, i, err)
			}
		}
	}
}

// TestWatchKeyGolden covers the data-watchpoint query: the KEY watch
// must show the legitimate monitor-path writes landing and the rogue
// store denied, each attributed to its operation.
func TestWatchKeyGolden(t *testing.T) {
	s := golden(t)
	addr, n, err := s.ResolveGlobal("KEY")
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Watch(addr, n, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"op=Key_Init", "op=Lock_Task", "DENIED MemManage", "value=0xee", "write attempts",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("watch output missing %q:\n%s", want, out)
		}
	}

	// Range restriction: a window before the injection sees no denial.
	early, err := s.Watch(addr, n, 0, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(early, "DENIED") {
		t.Errorf("watch [0,10000] saw the cycle-60807 denial:\n%s", early)
	}
}

// TestLastWriterGolden covers the backward slice: at a cycle after the
// fault, the last landed writer is the legitimate monitor write and the
// denied rogue attempt is reported alongside.
func TestLastWriterGolden(t *testing.T) {
	s := golden(t)
	addr, n, err := s.ResolveGlobal("KEY")
	if err != nil {
		t.Fatal(err)
	}
	fc, err := s.FaultCycle()
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.LastWriter(addr, n, fc+1000)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "landed") {
		t.Errorf("last-writer shows no landed write:\n%s", out)
	}
	if !strings.Contains(out, "later denied attempt") || !strings.Contains(out, "value=0xee") {
		t.Errorf("last-writer lost the denied rogue attempt:\n%s", out)
	}
}

// TestWatchRejectsWrappingRanges: a range that is empty or runs past
// 0xffffffff is an error naming it, not a wrapped or truncated watch,
// for both range queries, and so is a watch whose cycle range ends
// before it starts, before it re-executes anything; a range ending
// exactly at 0xffffffff is fine.
func TestWatchRejectsWrappingRanges(t *testing.T) {
	s := golden(t)
	for _, c := range []struct {
		addr     uint32
		n        int
		from, to uint64 // the watch's cycle range; LastWriter is asked only when both are 0
		want     string
	}{
		{0xffffffff, 8, 0, 0, "debug: range 0xffffffff+8: want a positive length that ends at or below 0xffffffff"},
		{0x20000000, 99999999999, 0, 0, "debug: range 0x20000000+99999999999: want a positive length that ends at or below 0xffffffff"},
		{0x20000000, 0, 0, 0, "debug: range 0x20000000+0: want a positive length that ends at or below 0xffffffff"},
		{0x20000000, 4, 10, 5, "debug: watch cycle range [10, 5] is empty: it starts after it ends"},
	} {
		reexecs := s.reexecs
		if _, err := s.Watch(c.addr, c.n, c.from, c.to); err == nil || err.Error() != c.want {
			t.Errorf("Watch(%#x, %d, %d, %d): error %v, want %q", c.addr, c.n, c.from, c.to, err, c.want)
		}
		if s.reexecs != reexecs {
			t.Errorf("Watch(%#x, %d, %d, %d) re-executed the run before refusing it", c.addr, c.n, c.from, c.to)
		}
		if c.from != 0 || c.to != 0 {
			continue
		}
		if _, err := s.LastWriter(c.addr, c.n, 20000); err == nil || err.Error() != c.want {
			t.Errorf("LastWriter(%#x, %d): error %v, want %q", c.addr, c.n, err, c.want)
		}
	}
	out, err := s.Watch(0xfffffffc, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no writes in cycle range") {
		t.Errorf("watch of the top word:\n%s", out)
	}
}

// TestReplayCoordinateRoundTrip proves any finding is debuggable from
// its '<snapid>@<spec>' coordinate alone: a second session opened from
// the coordinate answers queries byte-identically, and a corrupted
// snapshot id is rejected.
func TestReplayCoordinateRoundTrip(t *testing.T) {
	s := golden(t)
	coord := s.Coordinate()
	id, specText, ok := strings.Cut(coord, "@")
	if !ok {
		t.Fatalf("bad coordinate %q", coord)
	}
	spec, err := inject.ParseSpec(specText)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		App:        apps.PinLockN(1),
		Spec:       &spec,
		WantSnapID: id,
		Policy:     monitor.Policy{Kind: monitor.RestartOperation},
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Blame(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s2.Blame(0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("replayed session's blame differs:\n--- original\n%s--- replay\n%s", a, b)
	}

	cfg.WantSnapID = "0000000000000000"
	if _, err := New(cfg); err == nil {
		t.Fatal("session accepted a coordinate with the wrong snapshot id")
	}
}

// TestCleanSessionQueries exercises the no-spec path: a clean run has a
// snapshot but no replay coordinate, and with no recovery in the
// stream, blame falls back to the run's first (benign HAL) fault.
func TestCleanSessionQueries(t *testing.T) {
	s, err := New(Config{App: apps.PinLockN(1)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Coordinate() != "" {
		t.Errorf("clean run has coordinate %q", s.Coordinate())
	}
	if !strings.Contains(s.Info(), "clean run, snapshot ") {
		t.Errorf("info does not name the snapshot:\n%s", s.Info())
	}
	out, err := s.Blame(0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "BusFault") {
		t.Errorf("clean-run blame should land on the tolerated HAL BusFault:\n%s", out)
	}
}

// TestKeyframeEquivalenceAllWorkloads is the keyframe-restore
// equivalence sweep: on every workload, every held keyframe's state
// digest is reproduced at its exact stream position by a re-execution.
func TestKeyframeEquivalenceAllWorkloads(t *testing.T) {
	for _, app := range exper.AppsFor(exper.Quick) {
		t.Run(app.Name, func(t *testing.T) {
			s, err := New(Config{App: app})
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Keyframes().Frames()) == 0 {
				t.Fatal("no keyframes captured")
			}
			if err := s.VerifyKeyframes(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// cleanRun records a clean PinLock run at check level c. A fast
// session's executions consume the proof engine's certificates (an
// injected trial runs fully checked); a reference session holds none,
// so the MPU adjudicates every access, with its lookup caches off.
func cleanRun(t *testing.T, c mach.Checks) *Session {
	t.Helper()
	s, err := New(Config{App: apps.PinLockN(1).WithChecks(c)})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// counter reads one counter off the session's machine.
func counter(s *Session, name string) uint64 {
	for _, c := range s.m.Counters() {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// checkLevels fails t unless the fast session elided accesses and the
// reference one elided none and hit no lookup cache.
func checkLevels(t *testing.T, fast, ref *Session) {
	t.Helper()
	if counter(fast, "mach.proofs.elided") == 0 {
		t.Error("the fast session elided no access")
	}
	for _, name := range []string{"mach.proofs.elided", "mach.tlb.hits", "mach.bus.dev_cache_hits"} {
		if n := counter(ref, name); n != 0 {
			t.Errorf("the reference session reads %s = %d, want 0", name, n)
		}
	}
}

// TestKeyframeDigestsMatchAcrossCheckLevels records a clean run at the
// fast and the reference check level and compares every keyframe: same
// cycles, same stream positions, same state digests. Elision and the
// lookup caches select a path, never a state.
func TestKeyframeDigestsMatchAcrossCheckLevels(t *testing.T) {
	t.Parallel()
	a := cleanRun(t, mach.CheckFast)
	b := cleanRun(t, mach.CheckReference)
	checkLevels(t, a, b)
	fa, fb := a.Keyframes().Frames(), b.Keyframes().Frames()
	if len(fa) != len(fb) {
		t.Fatalf("keyframe counts differ: fast=%d reference=%d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Cycle != fb[i].Cycle || fa[i].Event != fb[i].Event ||
			fa[i].State.Digest() != fb[i].State.Digest() {
			t.Errorf("keyframe %d differs: fast {cycle=%d event=%d %s} reference {cycle=%d event=%d %s}",
				i, fa[i].Cycle, fa[i].Event, fa[i].State.Digest(),
				fb[i].Cycle, fb[i].Event, fb[i].State.Digest())
		}
	}
}

// TestSnapshotIDStableAcrossCheckLevels runs a clean trial to
// completion at the fast and the reference check level and snapshots
// the final architected state: the content-addressed ids must agree, so
// a replay coordinate taken on a reference machine names the same
// state on a fast one.
func TestSnapshotIDStableAcrossCheckLevels(t *testing.T) {
	t.Parallel()
	a := cleanRun(t, mach.CheckFast)
	b := cleanRun(t, mach.CheckReference)
	checkLevels(t, a, b)
	if a.SnapshotID() != b.SnapshotID() {
		t.Fatalf("boot snapshot ids differ: fast=%s reference=%s", a.SnapshotID(), b.SnapshotID())
	}
	sa, err := a.m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sa.ID() != sb.ID() {
		t.Errorf("post-run snapshot ids differ: fast=%s reference=%s", sa.ID(), sb.ID())
	}
}

// TestStoreRefusesStaleBuffer is the monotonicity assertion across
// Snapshot/Restore boundaries: re-executing from the boot checkpoint
// rewinds the clock, so recording two executions into ONE buffer
// produces cycle regressions — which the buffer counts and the indexed
// store refuses to ingest. Fresh-buffer recordings stay clean.
func TestStoreRefusesStaleBuffer(t *testing.T) {
	var recording *trace.Buffer
	cfg := goldenConfig(t)
	cfg.hook = func(buf *trace.Buffer) func(*mach.Machine) {
		if recording == nil {
			recording = buf
		}
		return func(*mach.Machine) {}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Store().regressions != 0 || recording.CycleRegressions() != 0 {
		t.Fatalf("clean recording counted %d regressions, its store %d", recording.CycleRegressions(), s.Store().regressions)
	}

	buf := trace.NewBuffer(0)
	stale := NewStore(buf)
	if _, err := s.execute(buf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.execute(buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.CycleRegressions() == 0 {
		t.Fatal("restore boundary crossed with no cycle regression counted")
	}
	if err := stale.Finish(); err == nil || !strings.Contains(err.Error(), "regress") {
		t.Fatalf("store accepted a non-monotonic recording: %v", err)
	}

	// Seek's suffix check refuses a non-monotonic replay stream too.
	buf = trace.NewBuffer(0)
	chk := &suffixCheck{rec: s.Store(), buf: buf}
	buf.Attach(chk)
	for range 2 {
		if _, err := s.execute(buf, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := chk.err(); err == nil || !strings.Contains(err.Error(), "non-monotonic") {
		t.Fatalf("seek's suffix check accepted a non-monotonic replay: %v", err)
	}
}

// busProbe is attached to a bus so that a finalizer can tell when the
// bus is collected: a bus and its write collector reference each
// other, and the runtime runs no finalizer set in a cycle.
type busProbe struct{ _ [4]uint64 }

func (*busProbe) HandleEvent(trace.Event)                    {}
func (*busProbe) HandleRepeat([]trace.Event, uint64, uint64) {}

// TestFinishedSessionPinsNoBus: once a session's recording and query
// have returned, neither its machine nor its sealed store holds a
// trace bus or a watch hook, so the recording's ring and the query's
// ring and write collector can all be collected.
func TestFinishedSessionPinsNoBus(t *testing.T) {
	var freed atomic.Int32
	buses := 0
	cfg := goldenConfig(t)
	cfg.hook = func(buf *trace.Buffer) func(*mach.Machine) {
		buses++
		p := &busProbe{}
		runtime.SetFinalizer(p, func(*busProbe) { freed.Add(1) })
		buf.Attach(p)
		return func(*mach.Machine) {}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, n, err := s.ResolveGlobal("KEY")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Watch(addr, n, 0, 0); err != nil {
		t.Fatal(err)
	}
	if s.m.Trace != nil || s.m.Bus.MPU.Trace != nil || s.store.buf != nil {
		t.Fatalf("after the watch: machine trace %p, MPU trace %p, store bus %p; want none", s.m.Trace, s.m.Bus.MPU.Trace, s.store.buf)
	}
	for i := 0; i < 200 && int(freed.Load()) < buses; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := int(freed.Load()); got != buses {
		t.Errorf("%d of the session's %d execution buses are still reachable", buses-got, buses)
	}
	runtime.KeepAlive(s) // the session, not only its buses, must outlive the collections
}

// TestStoreIndexes checks the store's lazily built indexes on the
// golden session: ByKind for every kind, asked twice, equals a scan of
// the stream, and the bucket counts equal the distinct kinds and
// domains the stream holds.
func TestStoreIndexes(t *testing.T) {
	st := golden(t).Store()
	kinds, doms := map[trace.Kind]bool{}, map[int32]bool{}
	for i := 0; i < st.Len(); i++ {
		kinds[st.Event(i).Kind] = true
		doms[st.Domain(i)] = true
	}
	if st.KindBuckets() != len(kinds) || st.DomainBuckets() != len(doms) {
		t.Errorf("buckets: %d kinds, %d domains; the stream holds %d and %d",
			st.KindBuckets(), st.DomainBuckets(), len(kinds), len(doms))
	}
	if len(kinds) < 2 || len(doms) < 2 {
		t.Fatalf("golden stream holds %d kinds and %d domains", len(kinds), len(doms))
	}
	for k := trace.EvNone; k <= trace.EvBranch+1; k++ {
		var want []int
		for i := 0; i < st.Len(); i++ {
			if st.Event(i).Kind == k {
				want = append(want, i)
			}
		}
		for range 2 {
			if got := st.ByKind(k); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("ByKind(%v) = %d indexes, want %d", k, len(got), len(want))
			}
		}
	}
}

// TestKeyframerEviction pins the memory bound: a tight Max forces
// decimation, which keeps the boot anchor, doubles the stride, and
// accounts every released frame.
func TestKeyframerEviction(t *testing.T) {
	spec, err := inject.ParseSpec(keyOverwriteSpec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		App:          apps.PinLockN(1),
		Spec:         &spec,
		Policy:       monitor.Policy{Kind: monitor.RestartOperation},
		MaxKeyframes: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	k := s.Keyframes()
	if len(k.Frames()) > 8 {
		t.Errorf("held %d keyframes, bound is 8", len(k.Frames()))
	}
	if k.evicted == 0 {
		t.Error("tight bound evicted nothing on a 1M-cycle run")
	}
	if k.Frames()[0].Reason != "boot" {
		t.Errorf("decimation lost the boot anchor: first frame is %q", k.Frames()[0].Reason)
	}
	if k.stride <= DefaultKeyframeEvery {
		t.Errorf("stride %d never doubled under eviction pressure", k.stride)
	}
	// The decimated set still answers seeks everywhere.
	if _, err := s.Seek(s.Store().LastCycle()); err != nil {
		t.Fatal(err)
	}
}

// TestKeyframerSmallBounds drives a checkpointer bound to a session's
// machine through hundreds of gate entries at tight bounds: the held
// frames stay within the bound (1 keeps only the boot frame), the
// doubling stride saturates instead of wrapping to 0, and a following
// run of plain events therefore adds no interval captures. A negative
// bound is refused when the session is configured.
func TestKeyframerSmallBounds(t *testing.T) {
	s := golden(t)
	for _, bound := range []int{1, 2, 4} {
		k := &Keyframer{Max: bound}
		k.Bind(s.m)
		cycle := s.m.Clock.Now()
		for i := 0; i < 300; i++ {
			cycle += 10
			k.HandleEvent(trace.Event{Kind: trace.EvGateEnter, Cycle: cycle})
			if k.stride == 0 {
				t.Fatalf("max %d: stride wrapped to 0 after %d evictions", bound, k.evicted)
			}
			if len(k.frames) > bound {
				t.Fatalf("max %d: %d frames held after gate entry %d", bound, len(k.frames), i)
			}
		}
		held, evicted := len(k.frames), k.evicted
		for i := 0; i < 100; i++ {
			cycle += 1_000_000
			k.HandleEvent(trace.Event{Kind: trace.EvCall, Cycle: cycle})
		}
		if len(k.frames) != held || k.evicted != evicted {
			t.Errorf("max %d: plain events captured: held %d -> %d, evicted %d -> %d",
				bound, held, len(k.frames), evicted, k.evicted)
		}
		if bound == 1 && k.frames[0].Reason != "boot" {
			t.Errorf("max 1 holds a %q frame, want only the boot frame", k.frames[0].Reason)
		}
	}

	_, err := New(Config{App: apps.PinLockN(1), MaxKeyframes: -1})
	if err == nil || !strings.Contains(err.Error(), "-1") {
		t.Errorf("negative keyframe bound: error %v, want one naming -1", err)
	}
}

// TestKeyframerRepeatLimit streams 40 copies of a two-event window
// into a checkpointer through Buffer.Repeat, emitting each copy the
// checkpointer's limit declines one by one, and requires the frames an
// event-by-event checkpointer captures. Interval captures must land on
// their own events, and a window holding a gate entry, fault or
// recovery must not repeat at all.
func TestKeyframerRepeatLimit(t *testing.T) {
	s := golden(t)
	for _, kind := range []trace.Kind{trace.EvCall, trace.EvGateEnter, trace.EvFault, trace.EvRecovery} {
		fast, ref := &Keyframer{Every: 50}, &Keyframer{Every: 50}
		fast.Bind(s.m)
		ref.Bind(s.m)
		buf := trace.NewBuffer(0)
		buf.Attach(fast)
		emit := func(w []trace.Event) {
			for _, e := range w {
				buf.Emit(e)
				ref.HandleEvent(e)
			}
		}
		const period = 7
		w := []trace.Event{{Cycle: s.m.Clock.Now() + 1, Kind: trace.EvCall}, {Cycle: s.m.Clock.Now() + 4, Kind: kind}}
		emit(w)
		repeated := uint64(0)
		for left := uint64(40); left > 0; {
			got := buf.Repeat(2, left, period)
			repeated += got
			for range got {
				for i := range w {
					w[i].Cycle += period
					ref.HandleEvent(w[i])
				}
			}
			if left -= got; left > 0 {
				for i := range w {
					w[i].Cycle += period
				}
				emit(w)
				left--
			}
		}
		if got, want := fast.Render(), ref.Render(); got != want {
			t.Errorf("window of call and %v: repeated checkpointer\n%swant\n%s", kind, got, want)
		}
		if kind == trace.EvCall && (repeated == 0 || len(ref.Frames()) < 3) {
			t.Errorf("plain window: %d copies repeated, %d frames captured; the test exercises nothing", repeated, len(ref.Frames()))
		}
		if kind != trace.EvCall && repeated != 0 {
			t.Errorf("window holding %v: %d copies repeated, want 0", kind, repeated)
		}
	}
}

// TestDebugCounters pins the debug_* observability surface in the
// unified registry: query count and timing, re-executions, index sizes
// and checkpointer state all appear.
func TestDebugCounters(t *testing.T) {
	s := golden(t)
	if _, err := s.Blame(0); err != nil {
		t.Fatal(err)
	}
	reg := &trace.Registry{}
	reg.Register(s)
	got := map[string]uint64{}
	for _, c := range reg.Snapshot() {
		got[c.Name] = c.Value
	}
	for _, name := range []string{
		"debug.queries", "debug.query_ns", "debug.reexecs",
		"debug.store.events", "debug.store.segments", "debug.store.dropped",
		"debug.store.kind_buckets", "debug.store.domain_buckets",
		"debug.keyframes.held", "debug.keyframes.evicted", "debug.keyframes.stride",
	} {
		if _, ok := got[name]; !ok {
			t.Errorf("counter %s missing from the registry snapshot", name)
		}
	}
	if got["debug.queries"] != 1 || got["debug.reexecs"] < 2 {
		t.Errorf("queries=%d reexecs=%d, want 1 query and >=2 executions",
			got["debug.queries"], got["debug.reexecs"])
	}
	if got["debug.store.events"] == 0 || got["debug.keyframes.held"] == 0 {
		t.Errorf("index-size counters empty: %v", got)
	}
}
