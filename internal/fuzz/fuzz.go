// Package fuzz is the coverage-guided adversarial fuzzing engine: a
// seeded, deterministic campaign driver that mutates hostile inputs
// against a booted workload and uses the fork engine to run each input
// as one cheap trial from the pre-injection checkpoint (never a
// power-on boot).
//
// Two target families:
//
//   - Frames: the TCP-Echo mini-stack's receive queue. An input is a
//     *scenario* — a set of scripted frames replaced with mutated bytes
//     (malformed headers, lying length fields, truncations, corrupt
//     checksums), delivered through the inject engine's FuzzFrame /
//     FuzzFrames kinds so every input IS a replayable Spec. Guided
//     retention compounds scenarios: a retained input can grow one more
//     corrupted slot per generation, reaching multi-frame hostile
//     interleavings the one-step random ablation cannot compose.
//   - Gates: the SVC gate surface. Inputs are BadGate specs seeded from
//     the inject planner's malformed-gate catalogue and mutated over
//     arguments, boundary values and targets.
//
// Feedback is a trace.Handler (CovSink) folding per-block branch
// events, call edges and gate enter/reject events into an edge bitmap;
// an input that lights a new edge joins the corpus and is mutated
// further. The Random option ablates exactly this retention — same
// mutators, same seed discipline, corpus frozen at the seeds — so
// guided-vs-random edge counts measure what coverage feedback buys.
//
// Determinism contract: the same Options produce a byte-identical
// Report at any Parallel. All randomness comes from one seeded
// generator consumed single-threaded between execution barriers;
// trials fan out over per-worker forges (booted identically — their
// snapshot IDs are asserted equal) and results merge in input-index
// order.
package fuzz

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/inject"
	"opec/internal/monitor"
	"opec/internal/trace"
)

// Options configures one campaign.
type Options struct {
	App  *apps.App
	Seed int64
	// Budget is the number of fuzz inputs to execute (the calibration
	// run is extra).
	Budget int
	// Parallel is the worker-forge count; <= 1 runs single-threaded.
	Parallel int
	// Random ablates coverage guidance: mutation scheduling is
	// identical but the corpus never grows past the seeds.
	Random bool
	// Policy is the recovery policy trials run under.
	Policy monitor.Policy

	// sink, when set, wraps the coverage sink before each trial
	// attaches it; tests use it to observe trials and to hide the
	// sink's trace.Repeater half.
	sink func(*CovSink) trace.Handler
}

// Finding is one non-clean trial, with its complete replay coordinate.
type Finding struct {
	Index   int // input index within the campaign
	Spec    string
	Verdict inject.Verdict
	Cycles  uint64
	Err     string
}

// Report is one campaign's deterministic summary. It carries no
// wall-clock measurements: two runs of the same Options render
// byte-identically.
type Report struct {
	App        string
	SnapshotID string
	Seed       int64
	Guided     bool
	Inputs     int

	// CleanCycles is the calibration trial's cycle count (the unmutated
	// workload); TrialCycles is the per-trial budget derived from it.
	CleanCycles uint64
	TrialCycles uint64

	// UniqueEdges counts distinct coverage features reached — (edge,
	// hit-bucket) pairs, see CovSink.
	UniqueEdges  int
	CorpusFrames int // frame-scenario corpus size after the run (incl. seeds)
	CorpusGates  int // gate corpus size after the run (incl. seeds)

	Verdicts          [inject.NumVerdicts]int
	RejectNonEntry    uint64
	RejectQuarantined uint64

	// Findings lists the first findingsCap non-clean trials in input
	// order; TotalFindings counts all of them.
	Findings      []Finding
	TotalFindings int
}

// findingsCap bounds the detailed findings list; the counts in Verdicts
// still cover every trial.
const findingsCap = 20

// Escapes counts isolation failures — the quantity CI asserts to zero.
func (r *Report) Escapes() int {
	return r.Verdicts[inject.Escaped] + r.Verdicts[inject.CrashedMonitor]
}

// batchSize is the generation granularity. Mutation for a batch is
// scheduled single-threaded against the corpus as of the previous
// barrier, so the constant must not depend on Parallel.
const batchSize = 16

// frameEntry is one frame-corpus member: a scenario replacing one or
// more receive slots, segments sorted by slot.
type frameEntry struct {
	segs []inject.FrameSeg
}

// trialResult carries one executed input back to the merge barrier.
type trialResult struct {
	out      inject.Outcome
	features []uint32
	err      error
}

// worker is one execution lane of a campaign: a forge booted from the
// shared checkpoint, and the coverage sink and trace bus its trials
// reuse, reset before each one.
type worker struct {
	forge *inject.Forge
	sink  *CovSink
	bus   *trace.Buffer
}

// pending is one generated, not-yet-executed input.
type pending struct {
	spec  inject.Spec
	frame bool // which family produced it
	segs  []inject.FrameSeg
}

// Run executes one campaign.
func Run(opts Options) (*Report, error) {
	if opts.App == nil || opts.Budget <= 0 {
		return nil, fmt.Errorf("fuzz: need an app and a positive budget")
	}
	par := opts.Parallel
	if par < 1 {
		par = 1
	}
	if par > opts.Budget {
		par = opts.Budget
	}

	workers := make([]worker, par)
	for i := range workers {
		f, err := inject.NewForge(opts.App)
		if err != nil {
			return nil, err
		}
		workers[i] = worker{forge: f, sink: NewCovSink(), bus: trace.NewBuffer(256)}
		if id := f.SnapshotID(); id != workers[0].forge.SnapshotID() {
			return nil, fmt.Errorf("fuzz: worker %d booted to snapshot %s, worker 0 to %s", i, id, workers[0].forge.SnapshotID())
		}
	}
	lead := workers[0].forge

	rep := &Report{
		App: opts.App.Name, SnapshotID: lead.SnapshotID(),
		Seed: opts.Seed, Guided: !opts.Random,
	}

	// Seed corpora. Frames come from the workload's scripted receive
	// queue (read from the booted instance — trials fork from the
	// checkpoint, so this is exactly what each trial will see); gates
	// from the inject planner's malformed-gate catalogue.
	frameTarget, origFrames, frames := frameSeeds(lead)
	gates := gateSeeds(lead, opts.Seed)
	entries, nonEntries := gateCandidates(lead.Build())
	if len(frames) == 0 && len(gates) == 0 {
		return nil, fmt.Errorf("fuzz: %s exposes neither a frame queue nor a gate surface", opts.App.Name)
	}

	// Calibration: one identity trial (the unmutated workload) fixes
	// the clean cycle count; trials then run at 4x that, so Hung means
	// "way past clean", not "slightly slower than clean".
	cal := calibrationSpec(frameTarget, frames)
	calOut, err := lead.Run(cal, opts.Policy, 0)
	if err != nil {
		return nil, fmt.Errorf("fuzz: calibration: %w", err)
	}
	if calOut.Verdict != inject.Benign {
		return nil, fmt.Errorf("fuzz: calibration trial not clean: %v (%s)", calOut.Verdict, calOut.Err)
	}
	rep.CleanCycles = calOut.Cycles
	rep.TrialCycles = 4 * calOut.Cycles

	rng := rand.New(rand.NewSource(opts.Seed))
	global := newFeatureSet()
	batch := make([]pending, 0, batchSize)
	results := make([]trialResult, batchSize)

	for rep.Inputs < opts.Budget {
		n := opts.Budget - rep.Inputs
		if n > batchSize {
			n = batchSize
		}
		// Generation: single-threaded, against the corpus as of the
		// previous barrier.
		batch = batch[:0]
		for i := 0; i < n; i++ {
			batch = append(batch, generate(rng, frameTarget, origFrames, frames, gates, entries, nonEntries))
		}
		// Execution: fan out over the worker forges. Each trial is a
		// pure function of (checkpoint, spec), so assignment order
		// cannot matter.
		runBatch(workers, batch[:n], results[:n], opts, rep.TrialCycles)
		// Merge: input-index order decides edge novelty, corpus
		// retention and finding order.
		for i := 0; i < n; i++ {
			r := &results[i]
			if r.err != nil {
				return nil, fmt.Errorf("fuzz: input %d (%s): %w", rep.Inputs+i, batch[i].spec, r.err)
			}
			fresh := global.addAll(r.features)
			rep.Verdicts[r.out.Verdict]++
			rep.RejectNonEntry += r.out.RejectNonEntry
			rep.RejectQuarantined += r.out.RejectQuarantined
			if !cleanVerdict(r.out.Verdict) {
				rep.TotalFindings++
				if len(rep.Findings) < findingsCap {
					rep.Findings = append(rep.Findings, Finding{
						Index: rep.Inputs + i, Spec: batch[i].spec.String(),
						Verdict: r.out.Verdict, Cycles: r.out.Cycles, Err: r.out.Err,
					})
				}
			}
			if !opts.Random && fresh > 0 {
				if batch[i].frame {
					frames = append(frames, frameEntry{segs: batch[i].segs})
				} else {
					gates = append(gates, batch[i].spec)
				}
			}
		}
		rep.Inputs += n
	}

	rep.UniqueEdges = global.count
	rep.CorpusFrames = len(frames)
	rep.CorpusGates = len(gates)
	return rep, nil
}

// cleanVerdict reports whether a verdict is unremarkable for a fuzzing
// campaign (the input did nothing, or the workload absorbed it and
// still passed its check). Everything else — every containment, hang,
// corruption or escape — is a finding with a replay spec.
func cleanVerdict(v inject.Verdict) bool {
	return v == inject.Untriggered || v == inject.Benign || v == inject.Recovered
}

// generate draws one input from the current corpora. With both families
// present, the family choice itself is one rng draw — frame and gate
// probes interleave in a seed-determined order.
//
// A frame input either mutates one segment of a scheduled scenario or
// (one draw in four, while scripted slots remain uncorrupted) grows the
// scenario by one more corrupted slot, seeded from that slot's original
// frame. Growth is what turns retention into depth: a retained scenario
// is a beachhead whose next generation corrupts yet another frame of
// the conversation.
func generate(rng *rand.Rand, frameTarget string, origFrames [][]byte, frames []frameEntry, gates []inject.Spec, entries, nonEntries []string) pending {
	useFrame := len(frames) > 0
	if useFrame && len(gates) > 0 {
		useFrame = rng.Intn(2) == 0
	}
	if useFrame {
		seed := frames[schedule(rng, len(frames))]
		segs := cloneSegs(seed.segs)
		if free := freeSlots(segs, len(origFrames)); len(free) > 0 && rng.Intn(4) == 0 {
			s := free[rng.Intn(len(free))]
			segs = insertSeg(segs, inject.FrameSeg{Slot: s, Data: mutateFrame(rng, origFrames[s])})
		} else {
			i := rng.Intn(len(segs))
			segs[i].Data = mutateFrame(rng, segs[i].Data)
		}
		return pending{spec: frameSpecFor(frameTarget, segs), frame: true, segs: segs}
	}
	return pending{spec: mutateGate(rng, gates[schedule(rng, len(gates))], entries, nonEntries)}
}

// frameSpecFor encodes a scenario as its replay spec: the compact
// single-frame syntax when one slot is corrupted, the multi-segment
// FuzzFrames syntax otherwise.
func frameSpecFor(target string, segs []inject.FrameSeg) inject.Spec {
	if len(segs) == 1 {
		return inject.FrameSpec("main", 1, target, segs[0].Slot, segs[0].Data)
	}
	return inject.MultiFrameSpec("main", 1, target, segs)
}

// cloneSegs deep-copies a scenario so mutation never aliases corpus
// entries.
func cloneSegs(in []inject.FrameSeg) []inject.FrameSeg {
	out := make([]inject.FrameSeg, len(in))
	for i, s := range in {
		out[i] = inject.FrameSeg{Slot: s.Slot, Data: append([]byte(nil), s.Data...)}
	}
	return out
}

// insertSeg adds a segment keeping the scenario sorted by slot.
func insertSeg(segs []inject.FrameSeg, s inject.FrameSeg) []inject.FrameSeg {
	segs = append(segs, s)
	sort.Slice(segs, func(i, j int) bool { return segs[i].Slot < segs[j].Slot })
	return segs
}

// freeSlots lists the scripted slots a scenario has not corrupted yet,
// in ascending order.
func freeSlots(segs []inject.FrameSeg, n int) []int {
	used := make(map[int]bool, len(segs))
	for _, s := range segs {
		used[s.Slot] = true
	}
	var free []int
	for i := 0; i < n; i++ {
		if !used[i] {
			free = append(free, i)
		}
	}
	return free
}

// schedule picks a corpus index, biased toward the newest entries
// (max of two uniform draws). Retained inputs are mutants that lit new
// edges; favoring them compounds mutations generation over generation,
// which is where guided search pulls ahead of the random ablation —
// the ablation applies the same rule to a corpus that never grows, so
// for it this is just a reshuffled uniform draw.
func schedule(rng *rand.Rand, n int) int {
	a, b := rng.Intn(n), rng.Intn(n)
	if a > b {
		return a
	}
	return b
}

// runBatch executes batch over the workers, one goroutine per worker,
// writing into index-addressed result slots. Each trial resets its
// worker's sink and bus; the bus keeps its ring storage and name table,
// so a trial's AttachTrace finds every name already interned, at the
// id it had in the worker's first trial.
func runBatch(workers []worker, batch []pending, results []trialResult, opts Options, maxCycles uint64) {
	runOne := func(w *worker, p pending, r *trialResult) {
		w.bus.Reset()
		w.sink.Reset()
		if opts.sink != nil {
			w.bus.Attach(opts.sink(w.sink))
		} else {
			w.bus.Attach(w.sink)
		}
		r.out, r.err = w.forge.TraceRun(p.spec, opts.Policy, maxCycles, w.bus, true)
		r.features = w.sink.Features()
	}
	if len(workers) == 1 || len(batch) == 1 {
		for i := range batch {
			runOne(&workers[0], batch[i], &results[i])
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for i := range idx {
				runOne(w, batch[i], &results[i])
			}
		}(&workers[w])
	}
	for i := range batch {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// frameSeeds reads the seed frames out of the booted instance's frame
// queue device (any device exposing QueuedFrames), returning its name,
// the scripted frames by slot, and one single-segment scenario per
// queued slot.
func frameSeeds(f *inject.Forge) (string, [][]byte, []frameEntry) {
	for _, d := range f.Instance().Devices {
		q, ok := d.(interface{ QueuedFrames() [][]byte })
		if !ok {
			continue
		}
		orig := q.QueuedFrames()
		var seeds []frameEntry
		for i, fr := range orig {
			seeds = append(seeds, frameEntry{segs: []inject.FrameSeg{{Slot: i, Data: fr}}})
		}
		return d.Name(), orig, seeds
	}
	return "", nil, nil
}

// gateSeeds returns the planner's malformed-gate catalogue for the
// workload — the same specs `opec-bench -exp inject` would run.
func gateSeeds(f *inject.Forge, seed int64) []inject.Spec {
	cfg := inject.DefaultConfig(seed)
	cfg.GateTrials = 8
	var gates []inject.Spec
	for _, s := range inject.Plan(f.Build(), f.Instance().Devices, cfg) {
		if s.Kind == inject.BadGate {
			gates = append(gates, s)
		}
	}
	return gates
}

// gateCandidates mirrors the planner's gate-target enumeration: sorted
// operation entries that take arguments, and sorted non-entry functions
// a forged SVC can aim at.
func gateCandidates(b *core.Build) (entries, nonEntries []string) {
	for _, fn := range b.Mod.Functions {
		if op := b.EntryOps[fn]; op != nil && op.Entry == fn {
			if fn.Name != "main" && len(fn.Params) > 0 {
				entries = append(entries, fn.Name)
			}
			continue
		}
		if fn.Name != "main" {
			nonEntries = append(nonEntries, fn.Name)
		}
	}
	sort.Strings(entries)
	sort.Strings(nonEntries)
	return entries, nonEntries
}

// calibrationSpec builds the identity input: re-deliver seed slot 0's
// own bytes (a no-op replacement), or — for a workload with no frame
// queue — a frame aimed at a device that isn't there, which the fire
// hook drops. Either way the trial runs the unmutated workload.
func calibrationSpec(frameTarget string, frames []frameEntry) inject.Spec {
	if len(frames) > 0 {
		s := frames[0].segs[0]
		return inject.FrameSpec("main", 1, frameTarget, s.Slot, s.Data)
	}
	return inject.FrameSpec("main", 1, "ETH", 0, []byte{0})
}

// Render prints the campaign summary: byte-identical for identical
// Options at any parallelism.
func (r *Report) Render() string {
	var b strings.Builder
	mode := "guided"
	if !r.Guided {
		mode = "random"
	}
	fmt.Fprintf(&b, "fuzz campaign: %s  seed=%d  inputs=%d  mode=%s\n",
		r.App, r.Seed, r.Inputs, mode)
	fmt.Fprintf(&b, "  snapshot %s  clean=%d cycles  trial budget=%d cycles\n",
		r.SnapshotID, r.CleanCycles, r.TrialCycles)
	fmt.Fprintf(&b, "  unique edges=%d  corpus: %d frames, %d gates\n",
		r.UniqueEdges, r.CorpusFrames, r.CorpusGates)
	fmt.Fprintf(&b, "  gate rejects: non-entry=%d quarantined=%d\n",
		r.RejectNonEntry, r.RejectQuarantined)
	for v := 0; v < inject.NumVerdicts; v++ {
		if n := r.Verdicts[v]; n > 0 {
			fmt.Fprintf(&b, "  %-20s %d\n", inject.Verdict(v).String(), n)
		}
	}
	fmt.Fprintf(&b, "  findings: %d (%d shown)\n", r.TotalFindings, len(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "    #%-5d %-18s cycles=%-10d replay=%s@%s\n",
			f.Index, f.Verdict, f.Cycles, r.SnapshotID, f.Spec)
	}
	if n := r.Escapes(); n > 0 {
		fmt.Fprintf(&b, "  ISOLATION ESCAPES: %d\n", n)
	}
	return b.String()
}
