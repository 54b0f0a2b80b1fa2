package fuzz

import (
	"math/rand"
	"reflect"
	"testing"

	"opec/internal/apps"
	"opec/internal/inject"
	"opec/internal/mach"
	"opec/internal/trace"
)

// testOptions is the shared small-campaign shape. Budget 48 keeps the
// whole file fast while still exercising corpus growth (three
// generational batches).
func testOptions() Options {
	return Options{App: apps.TCPEchoN(3, 9), Seed: 7, Budget: 48, Parallel: 1}
}

// The campaign summary must be byte-identical at every parallelism
// level: generation is single-threaded between barriers and merge is
// input-index ordered, so workers only change who executes what.
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	opts := testOptions()
	base, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4} {
		o := opts
		o.Parallel = par
		rep, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rep.Render(), base.Render(); got != want {
			t.Errorf("parallel=%d summary differs from parallel=1:\n--- got ---\n%s--- want ---\n%s", par, got, want)
		}
	}
}

// A campaign renders the same summary at every check level: the
// simulator's lookup caches (the MPU micro-TLB and the bus's
// last-device cache) and certificate elision must drive every trial,
// its coverage event stream included, as a reference machine that has
// neither does, and re-adjudicating every elided access must change
// nothing. Every worker's forge keeps one machine across its trials, so
// this also pins that a fork-restore leaves no cache entry of the
// previous trial behind. A clean trial on a forge of each level's app
// must show the level applied.
func TestCampaignDeterministicAcrossCheckLevels(t *testing.T) {
	t.Parallel()
	var want string
	for _, c := range []mach.Checks{mach.CheckReference, mach.CheckFast, mach.CheckParanoid} {
		opts := testOptions()
		opts.App = opts.App.WithChecks(c)
		opts.Parallel = 4
		rep, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if c == mach.CheckReference {
			want = rep.Render()
		} else if got := rep.Render(); got != want {
			t.Errorf("summary at the %s level differs from the reference:\n--- got ---\n%s--- reference ---\n%s", c, got, want)
		}
		checkLevelApplied(t, opts.App, c)
	}
}

// checkLevelApplied runs one clean trial of app on a fresh forge and
// fails t unless its counters show level c: a reference machine elides
// nothing and hits no lookup cache, a fast or paranoid one elides.
func checkLevelApplied(t *testing.T, app *apps.App, c mach.Checks) {
	t.Helper()
	forge, err := inject.NewForge(app)
	if err != nil {
		t.Fatal(err)
	}
	var m *mach.Machine
	if _, err := forge.Trial(nil, testOptions().Policy, 0, nil, false, func(fm *mach.Machine) { m = fm }); err != nil {
		t.Fatal(err)
	}
	counters := map[string]uint64{}
	for _, k := range m.Counters() {
		counters[k.Name] = k.Value
	}
	if c != mach.CheckReference {
		if counters["mach.proofs.elided"] == 0 {
			t.Errorf("%s level: a clean trial elided no access", c)
		}
		return
	}
	for _, name := range []string{"mach.proofs.elided", "mach.tlb.hits", "mach.bus.dev_cache_hits"} {
		if n := counters[name]; n != 0 {
			t.Errorf("reference level: a clean trial reads %s = %d, want 0", name, n)
		}
	}
}

// Coverage guidance must earn its keep: at the same seed and budget,
// the guided campaign reaches strictly more unique edges than the
// random ablation (which runs the same mutators against a frozen seed
// corpus). The budget here is larger than testOptions' — retention
// compounds scenario growth generation over generation, so guidance
// pays off after the corpus has had a few batches to deepen (at tiny
// budgets the two modes are statistically tied). Campaigns are fully
// deterministic, so this strict inequality is stable, not flaky.
func TestGuidedFindsMoreEdgesThanRandom(t *testing.T) {
	opts := testOptions()
	opts.Seed = 4
	opts.Budget = 128
	opts.Parallel = 4
	guided, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Random = true
	random, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if guided.UniqueEdges <= random.UniqueEdges {
		t.Errorf("guided=%d edges, random=%d: guidance bought nothing", guided.UniqueEdges, random.UniqueEdges)
	}
	// The ablation's corpus must stay frozen at the seeds, while the
	// guided corpus retained at least one new-edge input.
	if rt, gt := random.CorpusFrames+random.CorpusGates, guided.CorpusFrames+guided.CorpusGates; rt >= gt {
		t.Errorf("random corpus %d >= guided corpus %d: retention ablation leaked", rt, gt)
	}
}

// Every finding's replay coordinate must reproduce the trial
// byte-identically: same verdict, same cycle count, same error text —
// through the codec (String -> ParseSpec) and on a fresh forge.
func TestFindingsReplayByteIdentically(t *testing.T) {
	opts := testOptions()
	opts.Parallel = 4
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("campaign produced no findings to replay")
	}
	forge, err := inject.NewForge(opts.App)
	if err != nil {
		t.Fatal(err)
	}
	if forge.SnapshotID() != rep.SnapshotID {
		t.Fatalf("fresh forge snapshot %s != campaign snapshot %s", forge.SnapshotID(), rep.SnapshotID)
	}
	n := len(rep.Findings)
	if n > 5 {
		n = 5 // replaying a handful is enough; each is a full trial
	}
	for _, f := range rep.Findings[:n] {
		spec, err := inject.ParseSpec(f.Spec)
		if err != nil {
			t.Fatalf("finding spec %q does not re-parse: %v", f.Spec, err)
		}
		out, err := forge.Run(spec, opts.Policy, rep.TrialCycles)
		if err != nil {
			t.Fatalf("replay of %q: %v", f.Spec, err)
		}
		if out.Verdict != f.Verdict || out.Cycles != f.Cycles || out.Err != f.Err {
			t.Errorf("replay of %q diverged: got (%v, %d, %q), recorded (%v, %d, %q)",
				f.Spec, out.Verdict, out.Cycles, out.Err, f.Verdict, f.Cycles, f.Err)
		}
	}
}

// A frame input must fire on the machine side: the trial's outcome for
// a wildly malformed frame differs from the calibration run, and the
// campaign classifies at least one frame finding.
func TestFrameFamilyReachesTheStack(t *testing.T) {
	rep, err := Run(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	var frameFindings int
	for _, f := range rep.Findings {
		if spec, err := inject.ParseSpec(f.Spec); err == nil && (spec.Kind == inject.FuzzFrame || spec.Kind == inject.FuzzFrames) {
			frameFindings++
		}
	}
	if frameFindings == 0 {
		t.Error("no frame-family findings: mutated frames never perturbed the stack")
	}
	if rep.Verdicts[inject.ContainedGate] == 0 {
		t.Error("no contained-gate verdicts: gate family never hit the monitor")
	}
	if rep.Escapes() != 0 {
		t.Errorf("%d isolation escapes", rep.Escapes())
	}
}

// The coverage sink's feature folding is deterministic,
// transition-sensitive and hit-count-sensitive: identical streams
// agree, reordered streams differ, repeated edges change bucket, and
// unknown kinds contribute nothing.
func TestCovSinkFolding(t *testing.T) {
	stream := []trace.Event{
		{Kind: trace.EvBranch, Arg: 3, Arg2: 0},
		{Kind: trace.EvBranch, Arg: 3, Arg2: 1},
		{Kind: trace.EvCall, Arg: 4, Arg2: 3},
		{Kind: trace.EvGateEnter, Arg: 5, Op: 1},
		{Kind: trace.EvGateReject, Arg: 5, Arg2: trace.RejectNonEntry},
		{Kind: trace.EvPhase, Arg: 1}, // ignored
	}
	a, b := NewCovSink(), NewCovSink()
	for _, e := range stream {
		a.HandleEvent(e)
		b.HandleEvent(e)
	}
	if len(a.Features()) != 5 {
		t.Errorf("features = %d, want 5", len(a.Features()))
	}
	for i, e := range a.Features() {
		if b.Features()[i] != e {
			t.Fatal("identical streams produced different feature sequences")
		}
	}
	c := NewCovSink()
	for i := len(stream) - 1; i >= 0; i-- {
		c.HandleEvent(stream[i])
	}
	same := len(c.Features()) == len(a.Features())
	if same {
		for i := range a.Features() {
			if a.Features()[i] != c.Features()[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("feature folding is order-insensitive; transitions carry no signal")
	}

	// Running the same loop body more times moves its edges into higher
	// hit buckets — distinct features, the counting signal.
	d := NewCovSink()
	for i := 0; i < 10; i++ {
		for _, e := range stream[:2] {
			d.HandleEvent(e)
		}
	}
	once := NewCovSink()
	for _, e := range stream[:2] {
		once.HandleEvent(e)
	}
	g := newFeatureSet()
	g.addAll(once.Features())
	if n := g.addAll(d.Features()); n == 0 {
		t.Error("higher hit counts produced no new features")
	}

	if n := g.addAll(d.Features()); n != 0 {
		t.Errorf("re-merge added %d features, want 0", n)
	}
}

// features folds stream with HandleEvent.
func features(stream []trace.Event) []uint32 {
	s := NewCovSink()
	for _, e := range stream {
		s.HandleEvent(e)
	}
	return s.Features()
}

// TestCovSinkRepeatMatchesEvents checks HandleRepeat against k·n
// HandleEvent calls: k = 0 and 1, edges first hit inside the repeated
// window (first-hit order), an edge crossed twice per copy, counts
// pushed past 255, and windows without coverage events.
func TestCovSinkRepeatMatchesEvents(t *testing.T) {
	ev := func(kind trace.Kind, a, b uint32) trace.Event {
		return trace.Event{Kind: kind, Op: -1, Arg: a, Arg2: b}
	}
	prefix := []trace.Event{ev(trace.EvBranch, 1, 0), ev(trace.EvCall, 2, 1)}
	windows := [][]trace.Event{
		{ev(trace.EvBranch, 2, 0)},
		{ev(trace.EvBranch, 2, 0), ev(trace.EvCall, 3, 2), ev(trace.EvCallRet, 3, 0), ev(trace.EvBranch, 2, 0)},
		{ev(trace.EvBranch, 1, 0), ev(trace.EvGateEnter, 4, 0), ev(trace.EvGateReject, 4, 1), ev(trace.EvBranch, 9, 3)},
		{ev(trace.EvPhase, 1, 0), ev(trace.EvCallRet, 2, 0)},
	}
	for wi, w := range windows {
		for _, k := range []uint64{0, 1, 2, 3, 64, 127, 128, 300} {
			// The window is handed over after it was emitted once, as
			// Buffer.Repeat does, and also cold.
			for _, warm := range []bool{true, false} {
				lead := append([]trace.Event(nil), prefix...)
				if warm {
					lead = append(lead, w...)
				}
				var stream []trace.Event
				stream = append(stream, lead...)
				for j := uint64(0); j < k; j++ {
					for _, e := range w {
						e.Cycle += (j + 1) * 5
						stream = append(stream, e)
					}
				}
				s := NewCovSink()
				for _, e := range lead {
					s.HandleEvent(e)
				}
				s.HandleRepeat(w, k, 5)
				if got, want := s.Features(), features(stream); !reflect.DeepEqual(got, want) {
					t.Errorf("window %d, k=%d, warm=%v: HandleRepeat features\n  %v\nHandleEvent features\n  %v", wi, k, warm, got, want)
				}
			}
		}
	}
}

// TestCovSinkResetMatchesFresh feeds one sink random streams of
// coverage and other events with repeated windows, resetting it
// between streams, and requires after each the features a fresh sink
// folds from the same stream.
func TestCovSinkResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := []trace.Kind{trace.EvBranch, trace.EvCall, trace.EvGateEnter, trace.EvGateReject, trace.EvPhase}
	ev := func() trace.Event {
		return trace.Event{Kind: kinds[rng.Intn(len(kinds))], Op: int32(rng.Intn(3)), Arg: uint32(rng.Intn(40)), Arg2: uint32(rng.Intn(8))}
	}
	reused := NewCovSink()
	for stream := 0; stream < 200; stream++ {
		fresh := NewCovSink()
		reused.Reset()
		for step := rng.Intn(60); step > 0; step-- {
			if rng.Intn(4) > 0 {
				e := ev()
				fresh.HandleEvent(e)
				reused.HandleEvent(e)
				continue
			}
			w := make([]trace.Event, 1+rng.Intn(4))
			for i := range w {
				w[i] = ev()
			}
			k := uint64(rng.Intn(300))
			fresh.HandleRepeat(w, k, 3)
			reused.HandleRepeat(w, k, 3)
		}
		if got, want := reused.Features(), fresh.Features(); !reflect.DeepEqual(got, want) {
			t.Fatalf("stream %d: reset sink folds\n  %v\nfresh sink\n  %v", stream, got, want)
		}
	}
}

// eventsOnly hands every event to a trial's coverage sink and to a
// fresh sink of the test's own, and hides their trace.Repeater half, so
// every poll iteration of the trial executes.
type eventsOnly struct{ trial, own *CovSink }

func (s eventsOnly) HandleEvent(e trace.Event) {
	s.trial.HandleEvent(e)
	s.own.HandleEvent(e)
}

// countRepeats hands everything to a trial's coverage sink and to the
// test's own, counting the repeated windows they absorb.
type countRepeats struct {
	eventsOnly
	calls *int
}

func (s countRepeats) HandleRepeat(w []trace.Event, k, period uint64) {
	*s.calls++
	s.trial.HandleRepeat(w, k, period)
	s.own.HandleRepeat(w, k, period)
}

// campaignFeatures runs a single-worker campaign, so trials run in
// input order, and returns its report, every input's features and how
// many windows the sinks absorbed in closed form. The campaign resets
// one sink per worker between trials, so each input's features are
// read from a fresh sink the test hands the same stream.
func campaignFeatures(t *testing.T, opts Options, hide bool) (*Report, [][]uint32, int) {
	t.Helper()
	var sinks []*CovSink
	repeats := 0
	opts.Parallel = 1
	opts.sink = func(s *CovSink) trace.Handler {
		own := NewCovSink()
		sinks = append(sinks, own)
		if hide {
			return eventsOnly{s, own}
		}
		return countRepeats{eventsOnly{s, own}, &repeats}
	}
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	feats := make([][]uint32, len(sinks))
	for i, s := range sinks {
		feats[i] = s.Features()
	}
	return rep, feats, repeats
}

// TestCampaignSameWithoutRepeat runs the same campaign with coverage
// sinks that absorb skipped poll iterations in closed form and with
// sinks that hide that ability, which makes every trial execute every
// iteration. The reports and every input's features must agree.
func TestCampaignSameWithoutRepeat(t *testing.T) {
	opts := testOptions()
	opts.Budget = 32
	fast, fastFeats, repeats := campaignFeatures(t, opts, false)
	ref, refFeats, _ := campaignFeatures(t, opts, true)
	if repeats == 0 {
		t.Error("no trial absorbed a repeated window")
	}
	if got, want := fast.Render(), ref.Render(); got != want {
		t.Errorf("report with repeats differs:\n--- repeats ---\n%s--- reference ---\n%s", got, want)
	}
	if !reflect.DeepEqual(fastFeats, refFeats) {
		t.Error("per-input features differ")
	}
}
