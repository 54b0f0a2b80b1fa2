package main

import (
	"fmt"
	"math/rand"
	"time"

	"opec"
	"opec/internal/inject"
)

// fuzzWorkload is the coverage-guided campaign of the standard shape
// (FuzzBudget inputs, frame and gate families) against quick TCP-Echo,
// as `opec-bench -quick -exp fuzz -seed <seed>` runs it. It is the only
// workload whose trace bus is hot: every input runs with per-block
// coverage events feeding the engine's edge map, and only it runs the
// mutation engine and the EthMAC model under attack.
//
// A campaign's inputs, and so its cost, depend on its seed, so the
// passes of a phase rotate over fuzzSeeds campaign seeds: the run's
// seed and seeds derived from it. Each seed repeats within a run, and
// its report must repeat byte for byte.
type fuzzWorkload struct {
	seeds []int64
	app   *opec.App
	forge *opec.Forge
	ident opec.InjectSpec // the unmutated input: slot 0 re-delivered as is

	reports map[int64]string // each seed's first rendered report
	last    *opec.FuzzReport
}

// fuzzSeeds is how many campaign seeds the passes rotate over.
const fuzzSeeds = 4

func newFuzz(seed int64) *fuzzWorkload {
	w := &fuzzWorkload{seeds: []int64{seed}, reports: map[int64]string{}}
	rng := rand.New(rand.NewSource(seed))
	for len(w.seeds) < fuzzSeeds {
		w.seeds = append(w.seeds, rng.Int63n(1<<31))
	}
	for _, a := range opec.QuickApps() {
		if a.Name == "TCP-Echo" {
			w.app = a
		}
	}
	return w
}

// setup does what each campaign does before its first input: compile
// and boot the forge, then run the unmutated workload once from it.
func (f *fuzzWorkload) setup(ph *phase) error {
	if f.app == nil {
		return fmt.Errorf("no quick-scale TCP-Echo")
	}
	if err := compileProbe(ph, f.app); err != nil {
		return err
	}
	inst, b, err := compileOPEC(ph, f.app)
	if err == nil {
		_, err = cleanOPEC(ph, inst, b)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", f.app.Name, err)
	}
	f.forge, err = call(ph.rec, "inject.forge", func() (*opec.Forge, error) { return opec.NewForge(f.app) })
	if err != nil {
		return err
	}
	for _, d := range f.forge.Instance().Devices {
		if q, ok := d.(interface{ QueuedFrames() [][]byte }); ok && len(q.QueuedFrames()) > 0 {
			f.ident = inject.FrameSpec("main", 1, d.Name(), 0, q.QueuedFrames()[0])
		}
	}
	if f.ident.Target == "" {
		return fmt.Errorf("%s scripts no receive frames", f.app.Name)
	}
	out, err := call(ph.rec, "inject.calibrate", func() (opec.InjectOutcome, error) {
		return f.forge.Run(f.ident, opec.RecoveryPolicy{}, 0)
	})
	if err != nil {
		return err
	}
	if out.Verdict != inject.Benign {
		return fmt.Errorf("calibration input: %v (%s)", out.Verdict, out.Err)
	}
	return nil
}

// pass runs one campaign and checks it: no escapes, and the same
// report at the same seed every time.
func (f *fuzzWorkload) pass(ph *phase) bool {
	if ph.expired() {
		return false
	}
	start := now()
	req := ph.rec.request("request.fuzz")
	seed := f.seeds[ph.n%len(f.seeds)]
	rep, err := call(ph.rec, "fuzz.run", func() (*opec.FuzzReport, error) {
		return opec.RunFuzz(opec.FuzzOptions{App: f.app, Seed: seed, Budget: opec.FuzzBudget, Parallel: 1})
	})
	ph.rec.end(req)
	if err == nil {
		ph.request("campaign", start, float64(rep.Inputs))
		err = f.check(ph, rep)
	}
	ph.led.op(err)
	return true
}

func (f *fuzzWorkload) check(ph *phase, rep *opec.FuzzReport) error {
	text := opec.RenderFuzz(rep)
	if want, ok := f.reports[rep.Seed]; !ok {
		f.reports[rep.Seed] = text
		ph.note = append(ph.note, fmt.Sprintf("fuzz: seed=%d inputs=%d unique_edges=%d corpus=%d frames, %d gates findings=%d",
			rep.Seed, rep.Inputs, rep.UniqueEdges, rep.CorpusFrames, rep.CorpusGates, rep.TotalFindings))
	} else if err := sameText(fmt.Sprintf("fuzz report at seed %d", rep.Seed), want, text); err != nil {
		return err
	}
	f.last = rep
	ph.add("fuzz.inputs", float64(rep.Inputs))
	ph.add("fuzz.unique_edges", float64(rep.UniqueEdges))
	ph.add("fuzz.corpus_frames", float64(rep.CorpusFrames))
	ph.add("fuzz.corpus_gates", float64(rep.CorpusGates))
	ph.add("fuzz.findings", float64(rep.TotalFindings))
	if n := rep.Escapes(); n > 0 {
		return fmt.Errorf("fuzz seed %d: %d isolation escapes", rep.Seed, n)
	}
	return nil
}

// probeRuns is how many times the probe runs the unmutated input each
// way.
const probeRuns = 5

// probe times the unmutated input from the forge without and with the
// coverage trace a campaign attaches to every input, and reads the
// simulator counters of one such trial.
func (f *fuzzWorkload) probe(ph *phase, probes map[string]float64) {
	var plain, cov []float64
	var events float64
	for i := 0; i < probeRuns; i++ {
		t := time.Now()
		out, err := call(ph.rec, "inject.trial", func() (opec.InjectOutcome, error) {
			if i > 0 {
				return f.forge.Run(f.ident, opec.RecoveryPolicy{}, 0)
			}
			return observed(ph, f.forge, f.ident, opec.RecoveryPolicy{}, 0)
		})
		plain = append(plain, ms(time.Since(t)))
		ph.led.op(benign(out, err))

		buf := opec.NewTraceBuffer(256)
		sink := &eventCount{}
		buf.Attach(sink)
		t = time.Now()
		out, err = call(ph.rec, "trace.cov", func() (opec.InjectOutcome, error) {
			return f.forge.TraceRun(f.ident, opec.RecoveryPolicy{}, 0, buf, true)
		})
		cov = append(cov, ms(time.Since(t)))
		ph.led.op(benign(out, err))
		events = float64(sink.n)
	}
	probes["trace.events_per_trial"] = events
	probes["trace.cov_overhead_pct"] = 100 * (ratio(median(cov), median(plain)) - 1)
}

func benign(out opec.InjectOutcome, err error) error {
	if err == nil && out.Verdict != inject.Benign {
		err = fmt.Errorf("unmutated input: %v (%s)", out.Verdict, out.Err)
	}
	return err
}

// eventCount is a trace sink that counts the events it is handed.
type eventCount struct{ n int }

func (c *eventCount) HandleEvent(opec.TraceEvent) { c.n++ }

func (f *fuzzWorkload) live() any { return []any{f.forge, f.last} }
