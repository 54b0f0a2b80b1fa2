package main

import (
	"fmt"
	"math/rand"

	"opec"
)

// simulate is the dynamic half of the paper's evaluation at full
// scale: the seven apps under vanilla and OPEC, and the five Table 2
// apps under ACES-1, ACES-2 and ACES-3. Every pipeline builds a fresh
// instance, compiles, boots, runs and checks it. These are long, clean
// runs with proof elision on, so dispatch, the bus, the device models
// and the monitor's switch and sync paths carry almost all the time.
// The seed only orders the pipelines within each pass.
type simulate struct {
	rng   *rand.Rand
	pipes []pipeline
	ref   map[string]simStats // per pipeline, from its first run
	cur   []*opec.Result      // results of the pass in progress
	kept  []*opec.Result      // results of the last complete pass
}

type pipeline struct {
	app    *opec.App
	scheme string // "vanilla", "opec", or "aces" with strat set
	strat  opec.Strategy
}

func (p pipeline) key() string {
	if p.scheme == "aces" {
		return p.app.Name + "/" + p.strat.String()
	}
	return p.app.Name + "/" + p.scheme
}

// simStats are a pipeline's simulated statistics, identical in every
// pass and in traced and untraced runs.
type simStats struct{ instrs, cycles uint64 }

func newSimulate(seed int64) *simulate {
	s := &simulate{rng: rand.New(rand.NewSource(seed)), ref: map[string]simStats{}}
	all := opec.Apps()
	for _, app := range all {
		s.pipes = append(s.pipes, pipeline{app: app, scheme: "vanilla"}, pipeline{app: app, scheme: "opec"})
	}
	for _, app := range all[:5] {
		for _, st := range []opec.Strategy{opec.ACES1, opec.ACES2, opec.ACES3} {
			s.pipes = append(s.pipes, pipeline{app: app, scheme: "aces", strat: st})
		}
	}
	return s
}

// setup times the compiler's sub-phases on every app, then compiles and
// boots every protected pipeline once: all the work of a pass that
// precedes execution.
func (s *simulate) setup(ph *phase) error {
	for _, app := range opec.Apps() {
		if err := compileProbe(ph, app); err != nil {
			return err
		}
	}
	for _, p := range s.pipes {
		var err error
		switch p.scheme {
		case "opec":
			var inst *opec.Instance
			var b *opec.Build
			if inst, b, err = compileOPEC(ph, p.app); err == nil {
				_, err = bootOPEC(ph, inst, b)
			}
		case "aces":
			_, _, err = bootACES(ph, p.app, p.strat)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", p.key(), err)
		}
	}
	return nil
}

func (s *simulate) pass(ph *phase) bool {
	s.cur = s.cur[:0]
	for _, i := range s.rng.Perm(len(s.pipes)) {
		if ph.expired() {
			return false
		}
		p := s.pipes[i]
		start := now()
		req := ph.rec.request("request.pipeline")
		ph.rec.tag(req, p.key())
		res, err := s.runPipeline(ph, p)
		ph.rec.end(req)
		ph.request("pipeline", start, 1)
		if ph.led.op(err) {
			s.cur = append(s.cur, res)
			machCounters(ph, res)
		}
	}
	s.kept = append(s.kept[:0], s.cur...)
	if ph.first {
		ph.add("sim.opec_overhead_pct", s.overheadPct())
		ph.note = append(ph.note, fmt.Sprintf("opec_overhead_pct = %.4f %% (Figure 9 runtime overhead, simulated cycles)", s.overheadPct()))
	}
	return true
}

// runPipeline runs one pipeline and checks its output and its simulated
// statistics against the pipeline's first run.
func (s *simulate) runPipeline(ph *phase, p pipeline) (*opec.Result, error) {
	var res *opec.Result
	var err error
	switch p.scheme {
	case "vanilla":
		inst, _ := call(ph.rec, "apps.new", func() (*opec.Instance, error) { return p.app.New(), nil })
		res, err = execute(ph, "vanilla", inst, func() (*opec.Result, error) {
			return opec.RunVanillaWith(inst, opec.RunOptions{})
		})
	case "opec":
		var inst *opec.Instance
		var b *opec.Build
		if inst, b, err = compileOPEC(ph, p.app); err == nil {
			res, err = cleanOPEC(ph, inst, b)
		}
	default:
		res, err = cleanACES(ph, p.app, p.strat)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.key(), err)
	}
	got := simStats{instrs: res.Machine.InstrCount, cycles: res.Cycles}
	ph.add("mach.instrs."+p.scheme, float64(got.instrs))
	ph.add("mach.sim_cycles."+p.scheme, float64(got.cycles))
	if want, ok := s.ref[p.key()]; !ok {
		s.ref[p.key()] = got
	} else if got != want {
		return nil, fmt.Errorf("%s: simulated %d instructions in %d cycles, first run %d in %d",
			p.key(), got.instrs, got.cycles, want.instrs, want.cycles)
	}
	return res, nil
}

// overheadPct is Figure 9's runtime overhead: the mean over apps of
// OPEC cycles ÷ vanilla cycles − 1, in percent.
func (s *simulate) overheadPct() float64 {
	var sum float64
	n := 0
	for _, app := range opec.Apps() {
		o, ok1 := s.ref[app.Name+"/opec"]
		v, ok2 := s.ref[app.Name+"/vanilla"]
		if ok1 && ok2 && v.cycles > 0 {
			sum += float64(o.cycles)/float64(v.cycles) - 1
			n++
		}
	}
	return 100 * ratio(sum, float64(n))
}

func (s *simulate) probe(*phase, map[string]float64) {}

func (s *simulate) live() any { return s.kept }
