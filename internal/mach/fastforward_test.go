package mach

import (
	"fmt"
	"strings"
	"testing"

	"opec/internal/ir"
	"opec/internal/trace"
)

// pollReg is the status register the fast-forward test programs spin
// on: bit 0 reads set from readyAt on.
const pollReg = TIM2Base

// statusDev is a status register that turns ready at a scheduled cycle
// and does not report horizons.
type statusDev struct {
	clk     *Clock
	readyAt uint64
	reads   []uint64 // cycle of every load, for locating iteration ends
}

func (d *statusDev) Name() string              { return "TIM2" }
func (d *statusDev) Base() uint32              { return pollReg }
func (d *statusDev) Size() uint32              { return 0x400 }
func (d *statusDev) Store(uint32, int, uint32) {}
func (d *statusDev) Load(off uint32, _ int) uint32 {
	d.reads = append(d.reads, d.clk.Now())
	if d.clk.Now() >= d.readyAt {
		return 1
	}
	return 0
}

// quietDev is statusDev with the Quiescent contract.
type quietDev struct{ statusDev }

func (d *quietDev) QuiescentUntil(uint32) uint64 {
	if d.clk.Now() < d.readyAt {
		return d.readyAt
	}
	return Never
}

// pollShape selects the loop the test program spins in.
type pollShape int

const (
	pollInline pollShape = iota // the load sits in the self-loop block
	pollCall                    // the self-loop calls a one-block accessor
	pollStore                   // the self-loop also stores to a global
	pollDWT                     // the self-loop also reads DWT_CYCCNT
	pollNested                  // an outer self-loop calls a function that polls
	pollFenced                  // pollInline with stores and a call to status around the loop
)

// pollModule builds main, which spins until the status register reads
// ready and returns it.
func pollModule(shape pollShape) *ir.Module {
	m := ir.NewModule("poll")
	g := m.AddGlobal(&ir.Global{Name: "g", Typ: ir.I32})
	get := ir.NewFunc(m, "status", "s.c", ir.I32)
	get.Ret(get.Load(ir.I32, ir.CI(pollReg)))

	wait := ir.NewFunc(m, "wait", "s.c", ir.I32)
	wloop, wdone := wait.NewBlock("poll"), wait.NewBlock("ready")
	wait.Br(wloop)
	wait.SetBlock(wloop)
	wv := wait.Call(get.F)
	wait.CondBr(wait.And(wv, ir.CI(1)), wdone, wloop)
	wait.SetBlock(wdone)
	wait.Ret(wv)

	fb := ir.NewFunc(m, "main", "s.c", ir.I32)
	loop, done := fb.NewBlock("poll"), fb.NewBlock("ready")
	if shape == pollFenced {
		fb.Store(ir.I32, g, ir.CI(3))
	}
	fb.Br(loop)
	fb.SetBlock(loop)
	var v ir.Value
	switch shape {
	case pollInline, pollFenced:
		v = fb.Load(ir.I32, ir.CI(pollReg))
	case pollCall:
		v = fb.Call(get.F)
	case pollStore:
		fb.Store(ir.I32, g, ir.CI(7))
		v = fb.Load(ir.I32, ir.CI(pollReg))
	case pollDWT:
		fb.Load(ir.I32, ir.CI(DWTCyccnt))
		v = fb.Load(ir.I32, ir.CI(pollReg))
	case pollNested:
		v = fb.Call(wait.F)
	}
	fb.CondBr(fb.And(v, ir.CI(1)), done, loop)
	fb.SetBlock(done)
	if shape == pollFenced {
		fb.Call(get.F)
		fb.Store(ir.I32, g, v)
	}
	fb.Ret(v)
	return m
}

// ffResult is what a fast-forward run must share with its reference.
type ffResult struct {
	ret      uint32
	err      string
	cycles   uint64
	counters string // every machine counter but mach.ff.*
	trace    string // the ring's render and counters; "" untraced
	episodes uint64
}

// traceMode selects the trace a test run attaches.
type traceMode int

const (
	untraced traceMode = iota
	// ringOnly attaches a trace with no handler, whose events the
	// fast-forward repeats in closed form.
	ringOnly
	// reference adds a handler that is not a trace.Repeater, so every
	// iteration executes: the run the others are checked against.
	reference
)

// everyEvent is a trace handler that needs every event, which makes
// the fast-forward decline.
type everyEvent struct{ n uint64 }

func (h *everyEvent) HandleEvent(trace.Event) { h.n++ }

// ffSetup adjusts a machine before the run (arming, watching, ...).
type ffSetup func(m *Machine, dev Device)

// runPoll runs a pollModule program with the status register ready at
// readyAt under a cycle budget. A traced run emits per-block coverage
// events too.
func runPoll(t *testing.T, shape pollShape, quiet bool, readyAt, budget uint64, mode traceMode, setup ffSetup) (ffResult, *statusDev) {
	t.Helper()
	mod := pollModule(shape)
	m := testMachine(t, mod)
	m.MaxCycles = budget
	sd := &statusDev{clk: m.Clock, readyAt: readyAt}
	var dev Device = sd
	if quiet {
		q := &quietDev{}
		q.clk, q.readyAt = m.Clock, readyAt
		dev, sd = q, &q.statusDev
	}
	if err := m.Bus.Attach(dev); err != nil {
		t.Fatal(err)
	}
	m.Bus.dwtEnabled = true
	var buf *trace.Buffer
	if mode != untraced {
		buf = trace.NewBuffer(64)
		m.AttachTrace(buf)
		m.CovEvents = true
	}
	if mode == reference {
		buf.Attach(&everyEvent{})
	}
	if setup != nil {
		setup(m, dev)
	}
	ret, err := m.Run(mod.MustFunc("main"))
	r := ffResult{ret: ret, cycles: m.Clock.Now(), episodes: m.ff.episodes}
	if err != nil {
		r.err = err.Error()
	}
	if buf != nil {
		r.trace = buf.RenderText() + trace.RenderCounters(buf.Counters())
	}
	var cs []string
	for _, c := range m.Counters() {
		if !strings.HasPrefix(c.Name, "mach.ff.") {
			cs = append(cs, fmt.Sprintf("%s=%d", c.Name, c.Value))
		}
	}
	r.counters = strings.Join(cs, " ")
	return r, sd
}

// samePoll runs the program untraced, with a ring-only trace and as
// the reference, and requires identical outcomes, returning the
// untraced run's skip count. The ring-only run must skip exactly as
// often and leave the reference's ring.
func samePoll(t *testing.T, shape pollShape, quiet bool, readyAt, budget uint64, setup ffSetup) uint64 {
	t.Helper()
	fast, _ := runPoll(t, shape, quiet, readyAt, budget, untraced, setup)
	ring, _ := runPoll(t, shape, quiet, readyAt, budget, ringOnly, setup)
	ref, _ := runPoll(t, shape, quiet, readyAt, budget, reference, setup)
	if ref.episodes != 0 {
		t.Fatalf("reference run fast-forwarded %d times", ref.episodes)
	}
	if ring.episodes != fast.episodes {
		t.Fatalf("ready@%d budget %d: ring-only traced run skipped %d times, untraced %d", readyAt, budget, ring.episodes, fast.episodes)
	}
	episodes := fast.episodes
	fast.episodes, ring.episodes = 0, 0
	if ring != ref {
		t.Fatalf("ready@%d budget %d: ring-only traced run\n  %+v\nreference\n  %+v", readyAt, budget, ring, ref)
	}
	fast.trace = ref.trace
	if fast != ref {
		t.Fatalf("ready@%d budget %d: fast-forward run\n  %+v\nreference\n  %+v", readyAt, budget, fast, ref)
	}
	return episodes
}

func TestFastForwardSkipsPollLoop(t *testing.T) {
	for _, shape := range []pollShape{pollInline, pollCall} {
		if n := samePoll(t, shape, true, 50_000, 1<<40, nil); n == 0 {
			t.Errorf("shape %d: poll loop never fast-forwarded", shape)
		}
	}
}

// TestFastForwardHorizonAtIterationBoundary places the register's
// ready cycle exactly on, one cycle before and one cycle after the end
// of an iteration, for every phase in between too, and requires the
// skipping run to exit the loop on exactly the reference's cycle.
func TestFastForwardHorizonAtIterationBoundary(t *testing.T) {
	for _, shape := range []pollShape{pollInline, pollCall} {
		_, sd := runPoll(t, shape, true, 1<<40, 20_000, reference, nil)
		reads := sd.reads
		period := reads[len(reads)-1] - reads[len(reads)-2]
		if period == 0 || reads[1]-reads[0] != period {
			t.Fatalf("shape %d: irregular poll period in %v", shape, reads[:4])
		}
		// Reads sit a fixed distance before each back edge; the back
		// edge of the iteration that read at reads[i] is reads[i+1]
		// minus the distance from an iteration start to its read.
		lead := readLead(t, shape)
		boundary := reads[400] - lead // end of iteration 399
		for _, at := range []uint64{boundary - 1, boundary, boundary + 1} {
			if n := samePoll(t, shape, true, at, 1<<40, nil); n == 0 {
				t.Errorf("shape %d, ready@%d: never fast-forwarded", shape, at)
			}
		}
		for at := boundary + 2; at < boundary+2*period; at++ {
			samePoll(t, shape, true, at, 1<<40, nil)
		}
	}
}

// readLead is the cycles from the start of a poll iteration (its
// block-boundary tick) to the status read inside it.
func readLead(t *testing.T, shape pollShape) uint64 {
	switch shape {
	case pollInline:
		return CostInstr + CostMem // the load's own cycles
	case pollCall:
		return CostInstr + CostCall + CostInstr + CostMem
	}
	t.Fatalf("no lead for shape %d", shape)
	return 0
}

// TestFastForwardCycleBudget puts MaxCycles inside the skipped span at
// every phase of an iteration. The first iteration that is not skipped
// must still run its block-boundary tick, so the cycle-limit error
// fires at the reference's cycle. The call shape has ticks inside the
// iteration as well as at its start.
func TestFastForwardCycleBudget(t *testing.T) {
	for _, shape := range []pollShape{pollInline, pollCall} {
		_, sd := runPoll(t, shape, true, 1<<40, 20_000, reference, nil)
		period := sd.reads[1] - sd.reads[0]
		base := sd.reads[300]
		for budget := base; budget < base+2*period+1; budget++ {
			if n := samePoll(t, shape, true, 1<<40, budget, nil); n == 0 {
				t.Errorf("shape %d, budget %d: never fast-forwarded", shape, budget)
			}
		}
		r, _ := runPoll(t, shape, true, 1<<40, base, untraced, nil)
		if !strings.Contains(r.err, ErrCycleLimit.Error()) {
			t.Errorf("shape %d: run ended with %q, want the cycle limit", shape, r.err)
		}
	}
}

// TestFastForwardNestedLoop runs an outer self-loop whose iteration
// calls a function with its own poll loop, at every phase of the
// register's ready cycle.
func TestFastForwardNestedLoop(t *testing.T) {
	for at := uint64(20_000); at < 20_040; at++ {
		samePoll(t, pollNested, true, at, 1<<40, nil)
	}
}

// TestFastForwardNestedWitnessKeepsLog checks that a witness starting
// in a nested activation leaves the enclosing witness's device reads
// in the log: the outer loop must still see the nearer horizon.
func TestFastForwardNestedWitnessKeepsLog(t *testing.T) {
	m := testMachine(t, pollModule(pollNested))
	var outer, inner loopWitness
	m.ffWatch(&outer)
	m.Bus.horizons.add(900)
	m.ffWatch(&inner)
	m.Bus.horizons.add(Never)
	if h := m.ff.log.minSince(outer.logSeq); h != 900 {
		t.Errorf("outer window horizon = %d after a nested watch started, want 900", h)
	}
	if h := m.ff.log.minSince(inner.logSeq); h != Never {
		t.Errorf("inner window horizon = %d, want Never", h)
	}
}

// TestHorizonLogOverflow checks the log keeps its newer half when full
// and reports a window that lost reads as having no horizon.
func TestHorizonLogOverflow(t *testing.T) {
	var l horizonLog
	old := l.seq()
	l.add(5)
	for i := 0; i < horizonLogCap; i++ {
		l.add(Never)
	}
	recent := l.seq() - 4
	if h := l.minSince(old); h != 0 {
		t.Errorf("dropped window horizon = %d, want 0", h)
	}
	if h := l.minSince(recent); h != Never {
		t.Errorf("recent window horizon = %d, want Never", h)
	}
}

// TestFastForwardDeclines lists everything that must force
// iteration-by-iteration execution. Each run must still match its
// traced reference.
func TestFastForwardDeclines(t *testing.T) {
	cases := []struct {
		name  string
		shape pollShape
		quiet bool
		setup ffSetup
	}{
		{"store", pollStore, true, nil},
		{"dwt-cyccnt", pollDWT, true, nil},
		{"no-quiescent", pollInline, false, nil},
		{"armed-injection", pollInline, true, func(m *Machine, _ Device) {
			m.Arm(&Injection{At: 1 << 40, Fire: func(*Machine) error { return nil }})
		}},
		{"func-enter-hook", pollInline, true, func(m *Machine, _ Device) {
			m.Handlers.OnFuncEnter = func(*ir.Function) {}
		}},
		{"irq-binding", pollInline, true, func(m *Machine, dev Device) {
			m.BindIRQ(quietIRQ{dev}, m.Mod.MustFunc("status"))
		}},
	}
	for _, c := range cases {
		if n := samePoll(t, c.shape, c.quiet, 30_000, 1<<40, c.setup); n != 0 {
			t.Errorf("%s: fast-forwarded %d times, want iteration-by-iteration execution", c.name, n)
		}
	}
}

// TestFastForwardUnderWatch runs the inline poll loop, with a store
// before it, a store after it and an entry trigger that issues a raw
// store after it, under a store watch, a raw-write watch and both. A
// skipped window holds no store, so each run must skip and hand every
// watch exactly the records, cycle and instruction stamps included,
// that the reference run's watch receives. A loop that stores is still
// watched iteration by iteration.
func TestFastForwardUnderWatch(t *testing.T) {
	watches := []struct {
		name       string
		store, raw bool
	}{
		{"store-watch", true, false},
		{"raw-watch", false, true},
		{"both", true, true},
	}
	for _, w := range watches {
		var runs [][]string // per run: samePoll's untraced, ring-only and reference runs
		setup := func(m *Machine, _ Device) {
			i := len(runs)
			runs = append(runs, nil)
			if w.store {
				m.SetStoreWatch(func(ws WatchedStore) {
					runs[i] = append(runs[i], fmt.Sprintf("store %+v", ws))
				})
			}
			if w.raw {
				m.Bus.SetRawWatch(func(addr uint32, size int, val uint32) {
					runs[i] = append(runs[i], fmt.Sprintf("raw %#x/%d=%#x cycle=%d instr=%d",
						addr, size, val, m.Clock.Now(), m.InstrCount))
				})
			}
			g, _ := m.GlobalAddr(m.Mod.Global("g"), true)
			m.Arm(&Injection{Func: m.Mod.MustFunc("status"), N: 1, Fire: func(m *Machine) error {
				m.Bus.RawStore(g, 4, 0x55)
				return nil
			}})
		}
		if n := samePoll(t, pollFenced, true, 50_000, 1<<40, setup); n == 0 {
			t.Errorf("%s: watched poll loop never fast-forwarded", w.name)
		}
		want := 0
		if w.store {
			want += 2
		}
		if w.raw {
			want++
		}
		if len(runs) != 3 || len(runs[2]) != want {
			t.Fatalf("%s: reference watch saw %v, want %d records", w.name, runs, want)
		}
		for i, name := range []string{"untraced", "ring-only"} {
			if strings.Join(runs[i], "\n") != strings.Join(runs[2], "\n") {
				t.Errorf("%s: %s run's watch saw\n  %v\nreference\n  %v", w.name, name, runs[i], runs[2])
			}
		}

		runs = nil
		if n := samePoll(t, pollStore, true, 30_000, 1<<40, setup); n != 0 {
			t.Errorf("%s: storing loop fast-forwarded %d times", w.name, n)
		}
	}
}

// TestFastForwardEntryTriggerInLoop arms an entry trigger on status,
// which the pollCall loop enters every iteration. Each entry counts the
// trigger down, so the loop is watched again after every iteration and
// cannot skip while the trigger is armed: it fires on the reference's
// cycle, and once it has fired the loop skips. A trigger that never
// reaches zero keeps the whole loop unskipped.
func TestFastForwardEntryTriggerInLoop(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 300, 1 << 30} {
		var fired []uint64
		arm := func(m *Machine, _ Device) {
			m.Arm(&Injection{Func: m.Mod.MustFunc("status"), N: n, Fire: func(m *Machine) error {
				fired = append(fired, m.Clock.Now())
				return nil
			}})
		}
		episodes := samePoll(t, pollCall, true, 50_000, 1<<40, arm)
		if n == 1<<30 {
			if len(fired) != 0 || episodes != 0 {
				t.Errorf("N=%d: fired %v, %d skips; want no fire and no skip", n, fired, episodes)
			}
			continue
		}
		if len(fired) != 3 || fired[0] != fired[1] || fired[1] != fired[2] {
			t.Errorf("N=%d: trigger fired at cycles %v (untraced, ring-only, reference), want one cycle", n, fired)
		}
		if episodes == 0 {
			t.Errorf("N=%d: loop never skipped after the trigger fired", n)
		}
	}
}

// TestFastForwardEntryTriggerNotEntered arms an entry trigger on wait,
// which the pollCall program never calls: the loop skips with the
// trigger armed, and the trigger is still armed at the end.
func TestFastForwardEntryTriggerNotEntered(t *testing.T) {
	var armed []*Machine
	arm := func(m *Machine, _ Device) {
		m.Arm(&Injection{Func: m.Mod.MustFunc("wait"), N: 1, Fire: func(*Machine) error {
			t.Error("trigger on a function the program never calls fired")
			return nil
		}})
		armed = append(armed, m)
	}
	if n := samePoll(t, pollCall, true, 50_000, 1<<40, arm); n == 0 {
		t.Error("loop never skipped while a trigger it does not enter was armed")
	}
	for _, m := range armed {
		if m.inj == nil || m.inj.N != 1 {
			t.Errorf("trigger disturbed: %+v", m.inj)
		}
	}
}

// TestFastForwardLoopCarriedRegister runs a self-loop that counts in
// registers alone: ir.Verify does not enforce dominance, so an operand
// may name a register defined later in its own block, carrying a value
// from one iteration into the next without a store. The register-file
// comparison must see the count move and keep the loop unskipped.
func TestFastForwardLoopCarriedRegister(t *testing.T) {
	m := ir.NewModule("carried")
	fb := ir.NewFunc(m, "main", "s.c", ir.I32)
	loop, done := fb.NewBlock("count"), fb.NewBlock("done")
	fb.Br(loop)
	fb.SetBlock(loop)
	next := fb.Add(ir.CI(0), ir.CI(1))
	carried := fb.Add(next, ir.CI(0))
	next.Args[0] = carried // next = carried + 1, from the previous iteration
	fb.CondBr(fb.Lt(next, ir.CI(5000)), loop, done)
	fb.SetBlock(done)
	fb.Ret(next)

	run := func(traced bool) (uint32, uint64, uint64) {
		mm := testMachine(t, m)
		if traced {
			buf := trace.NewBuffer(64)
			buf.Attach(&everyEvent{})
			mm.AttachTrace(buf)
		}
		ret, err := mm.Run(m.MustFunc("main"))
		if err != nil {
			t.Fatal(err)
		}
		return ret, mm.Clock.Now(), mm.ff.episodes
	}
	ret, cycles, episodes := run(false)
	refRet, refCycles, _ := run(true)
	if ret != refRet || cycles != refCycles || episodes != 0 {
		t.Errorf("returned %d at cycle %d after %d skips, reference %d at cycle %d", ret, cycles, episodes, refRet, refCycles)
	}
}

// quietIRQ is an interrupt source that never asserts.
type quietIRQ struct{ Device }

func (quietIRQ) IRQPending() bool { return false }
func (quietIRQ) IRQAck()          {}

// TestFastForwardSurvivesRestore checks a restored machine starts with
// no live witness log and its counters rolled back.
func TestFastForwardSurvivesRestore(t *testing.T) {
	mod := pollModule(pollInline)
	m := testMachine(t, mod)
	q := &quietDev{}
	q.clk, q.readyAt = m.Clock, 40_000
	if err := m.Bus.Attach(q); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(mod.MustFunc("main")); err != nil {
		t.Fatal(err)
	}
	if m.ff.episodes == 0 || m.Bus.horizons == nil {
		t.Fatalf("run did not fast-forward (episodes %d)", m.ff.episodes)
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if m.ff.episodes != 0 || m.ff.skipped != 0 || m.Bus.horizons != nil || len(m.ff.log.h) != 0 {
		t.Errorf("restore left fast-forward state: %+v horizons=%v", m.ff, m.Bus.horizons != nil)
	}
	if _, err := m.Run(mod.MustFunc("main")); err != nil {
		t.Fatal(err)
	}
}
