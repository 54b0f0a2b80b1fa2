package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"opec"
	"opec/internal/inject"
	"opec/internal/mach"
)

// campaign is the seeded fault-injection campaign at quick scale, as
// `opec-bench -quick -exp inject -policy restart -seed <seed>` runs it:
// inject.DefaultConfig(seed), the restart policy and the fork engine,
// with OPEC rows for all seven apps and ACES-2 rows for the five
// comparison apps. Trials arm with certificates cleared, so every
// access is adjudicated by the MPU and its TLB — the layer simulate
// mostly skips — and only this workload runs monitor recovery, fault
// classification, the ACES fork path and the debugger. After the trials
// it triages a seed-derived subset of the recovered rogue-store trials:
// one debug session each, answering blame, seek fault and watch.
type campaign struct {
	seed int64
	pol  opec.RecoveryPolicy
	rng  *rand.Rand

	rows   []*row
	trials []trialRef
	ref    []*opec.InjectOutcome // per trial, from its first run
	table  string                // verdict table of the first complete pass
	triage []int                 // trials the triage sessions debug
	seeks  map[int]string        // per triaged trial, its first seek output

	sessions []*opec.DebugSession // the last complete triage's sessions, kept live
}

// row is one workload × scheme leg: its forge, trial list and budget.
type row struct {
	app    *opec.App
	aces   bool
	budget uint64
	specs  []opec.InjectSpec
	forge  *opec.Forge
}

type trialRef struct{ row, idx int }

func newCampaign(seed int64) *campaign {
	pol, err := opec.ParsePolicy("restart")
	if err != nil {
		panic(err)
	}
	return &campaign{seed: seed, pol: pol, rng: rand.New(rand.NewSource(seed)), seeks: map[int]string{}}
}

// subSeed derives a workload's trial-sampling seed from the campaign
// seed exactly as the evaluation harness does, so the trial lists match
// opec-bench's.
func subSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// setup plans every row, calibrates its budget (4× the clean run's
// cycles) and boots its forge.
func (c *campaign) setup(ph *phase) error {
	cfg := opec.DefaultInjectConfig(c.seed)
	all := opec.QuickApps()
	aces := map[string]bool{}
	for _, app := range all[:5] {
		aces[app.Name] = true
	}
	c.rows, c.trials = nil, nil
	for _, app := range all {
		if err := compileProbe(ph, app); err != nil {
			return err
		}
		inst, b, err := compileOPEC(ph, app)
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		appCfg := cfg
		appCfg.Seed = subSeed(cfg.Seed, app.Name)
		specs, _ := call(ph.rec, "inject.plan", func() ([]opec.InjectSpec, error) {
			return inject.Plan(b, inst.Devices, appCfg), nil
		})
		sp := ph.rec.begin("inject.calibrate")
		clean, err := cleanOPEC(ph, inst, b)
		ph.rec.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		forge, err := call(ph.rec, "inject.forge", func() (*opec.Forge, error) { return opec.NewForge(app) })
		if err != nil {
			return err
		}
		c.rows = append(c.rows, &row{app: app, budget: 4 * clean.Cycles, specs: specs, forge: forge})
		if !aces[app.Name] {
			continue
		}
		sp = ph.rec.begin("inject.calibrate")
		clean, err = cleanACES(ph, app, opec.ACES2)
		ph.rec.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		forge, err = call(ph.rec, "inject.forge", func() (*opec.Forge, error) { return opec.NewACESForge(app, opec.ACES2) })
		if err != nil {
			return err
		}
		r := &row{app: app, aces: true, budget: 4 * clean.Cycles, forge: forge}
		for _, s := range specs {
			if s.Kind != inject.BadGate {
				r.specs = append(r.specs, s)
			}
		}
		c.rows = append(c.rows, r)
	}
	for i, r := range c.rows {
		for k := range r.specs {
			c.trials = append(c.trials, trialRef{i, k})
		}
	}
	if c.ref == nil {
		c.ref = make([]*opec.InjectOutcome, len(c.trials))
	}
	return nil
}

// pass runs every trial in a seed-derived order, so a pass cut at the
// deadline still ran a random sample of the campaign, then the triage
// sessions.
func (c *campaign) pass(ph *phase) bool {
	outs := make([]opec.InjectOutcome, len(c.trials))
	for _, i := range c.rng.Perm(len(c.trials)) {
		if ph.expired() {
			return false
		}
		start := now()
		req := ph.rec.request("request.trial")
		out, err := c.trial(ph, i)
		ph.rec.end(req)
		d := ph.request("trial", start, 1)
		k := "trial_ms." + out.Verdict.String()
		ph.lat[k] = append(ph.lat[k], ms(d))
		ph.add("inject.trials", 1)
		ph.add("inject.verdicts."+out.Verdict.String(), 1)
		ph.add("monitor.restarts", float64(out.Restarts))
		ph.add("monitor.restart_cycles", float64(out.RestartCycles))
		ph.led.op(err)
		outs[i] = out
	}
	table := c.render(outs)
	if c.table == "" {
		c.table = table
		ph.note = append(ph.note, strings.Split(strings.TrimRight(table, "\n"), "\n")...)
		c.pickTriage()
	} else {
		ph.led.op(sameText("verdict table", c.table, table))
	}

	var sessions []*opec.DebugSession
	for _, i := range c.triage {
		if ph.expired() {
			return false
		}
		t := time.Now()
		req := ph.rec.request("request.triage")
		sess, err := c.debug(ph, i)
		ph.rec.end(req)
		ph.lat["triage_ms"] = append(ph.lat["triage_ms"], ms(time.Since(t)))
		if ph.led.op(err) {
			sessions = append(sessions, sess)
			ph.add("debug.sessions", 1)
			for _, k := range sess.Counters() {
				switch k.Name {
				case "debug.reexecs":
					ph.add("debug.reexecs", float64(k.Value))
				case "debug.keyframes.held":
					ph.add("debug.keyframes", float64(k.Value))
				}
			}
		}
	}
	c.sessions = sessions
	return true
}

// trial runs trial i from its row's checkpoint and checks it: no OPEC
// trial may escape or crash the monitor (ACES-2 escapes are the
// expected §6.1 contrast), and every run of a trial must produce the
// same outcome. In the traced phase's first pass, OPEC trials run with
// an observer that reads the forked machine's counters.
func (c *campaign) trial(ph *phase, i int) (opec.InjectOutcome, error) {
	r := c.rows[c.trials[i].row]
	spec := r.specs[c.trials[i].idx]
	sp := ph.rec.begin("inject.trial")
	var out opec.InjectOutcome
	var err error
	switch {
	case r.aces:
		out, err = r.forge.Run(spec, opec.RecoveryPolicy{}, r.budget)
	case ph.first && ph.rec.on:
		out, err = observed(ph, r.forge, spec, c.pol, r.budget)
	default:
		out, err = r.forge.Run(spec, c.pol, r.budget)
	}
	ph.rec.tag(sp, out.Verdict.String())
	ph.rec.end(sp)
	if err != nil {
		return out, fmt.Errorf("%s trial %s: %w", r.app.Name, spec, err)
	}
	if !r.aces && !out.Verdict.Contained() {
		return out, fmt.Errorf("%s OPEC trial %s: %v (%s)", r.app.Name, spec, out.Verdict, out.Err)
	}
	if want := c.ref[i]; want == nil {
		c.ref[i] = &out
	} else if !reflect.DeepEqual(*want, out) {
		return out, fmt.Errorf("%s trial %s: %v in %d cycles, first run %v in %d",
			r.app.Name, spec, out.Verdict, out.Cycles, want.Verdict, want.Cycles)
	}
	return out, nil
}

// observed runs one OPEC trial with an observer on the forked machine
// and adds the trial's simulator counters to the phase. The observer
// does not touch architected state, so the outcome is the one Run
// returns.
func observed(ph *phase, f *opec.Forge, spec opec.InjectSpec, pol opec.RecoveryPolicy, budget uint64) (opec.InjectOutcome, error) {
	var m *mach.Machine
	var before map[string]uint64
	out, err := f.ObservedRun(spec, pol, budget, nil, false, func(fm *mach.Machine) {
		m, before = fm, counterMap(fm)
	})
	if err == nil && m != nil {
		for k, v := range counterMap(m) {
			name := k
			if k == "mach.instrs" {
				name = "mach.instrs.opec"
			}
			if v >= before[k] {
				ph.add(name, float64(v-before[k]))
			}
		}
		ph.add("mach.sim_cycles.opec", float64(out.Cycles))
	}
	return out, err
}

func counterMap(m *mach.Machine) map[string]uint64 {
	out := map[string]uint64{}
	for _, k := range m.Counters() {
		out[k.Name] = k.Value
	}
	return out
}

// render aggregates a pass's outcomes into opec-bench's verdict table.
func (c *campaign) render(outs []opec.InjectOutcome) string {
	rows := make([]opec.InjectRow, len(c.rows))
	for i, r := range c.rows {
		rows[i] = opec.InjectRow{App: r.app.Name, Scheme: "OPEC", Policy: c.pol.Kind.String(), Trials: len(r.specs)}
		if r.aces {
			rows[i].Scheme, rows[i].Policy = "ACES-2", "-"
		}
	}
	for i, t := range c.trials {
		o, row := outs[i], &rows[t.row]
		row.Counts[o.Verdict]++
		row.Restarts += o.Restarts
		row.Quarantines += o.Quarantines
		if o.Verdict == inject.Escaped && row.FirstEscape == "" {
			row.FirstEscape = o.Spec.String()
		}
	}
	return opec.RenderInject(rows)
}

// pickTriage chooses the trials to debug: for each OPEC row, a
// seed-chosen rogue store to a global that the restart policy recovered,
// fired from the last operation (in plan order) that has one. The cost
// of a session follows where in the run its fault lands, so fixing the
// operation per app keeps the sessions' cost the same at every seed.
func (c *campaign) pickTriage() {
	rng := rand.New(rand.NewSource(c.seed))
	c.triage = nil
	for ri, r := range c.rows {
		if r.aces {
			continue
		}
		var cand []int
		for i, t := range c.trials {
			if t.row != ri {
				continue
			}
			s := r.specs[t.idx]
			if s.Kind != inject.RogueStore || c.ref[i] == nil || c.ref[i].Verdict != inject.Recovered ||
				r.forge.Instance().Mod.Global(s.Target) == nil {
				continue
			}
			if len(cand) > 0 && s.Func != r.specs[c.trials[cand[0]].idx].Func {
				cand = cand[:0]
			}
			cand = append(cand, i)
		}
		if len(cand) > 0 {
			c.triage = append(c.triage, cand[rng.Intn(len(cand))])
		}
	}
}

// debug records trial i in a debug session and answers blame, seek
// fault and watch <target>. Blame must name the rogue store, the
// session must reproduce the campaign's outcome, and every seek of a
// trial must print the same text.
func (c *campaign) debug(ph *phase, i int) (*opec.DebugSession, error) {
	r := c.rows[c.trials[i].row]
	spec := r.specs[c.trials[i].idx]
	sess, err := call(ph.rec, "debug.record", func() (*opec.DebugSession, error) {
		return opec.NewDebugSession(opec.DebugConfig{App: r.app, Spec: &spec, Policy: c.pol, MaxCycles: r.budget})
	})
	if err != nil {
		return nil, fmt.Errorf("triage %s: %w", spec, err)
	}
	if got, want := sess.Outcome, c.ref[i]; got == nil || got.Verdict != want.Verdict || got.Cycles != want.Cycles {
		return nil, fmt.Errorf("triage %s: the session did not reproduce the trial's outcome", spec)
	}
	blame, err := call(ph.rec, "debug.blame", func() (string, error) { return sess.Blame(0) })
	if err != nil {
		return nil, fmt.Errorf("triage %s: blame: %w", spec, err)
	}
	if !strings.Contains(blame, "rogue store:") {
		return nil, fmt.Errorf("triage %s: blame names no rogue store:\n%s", spec, blame)
	}
	seek, err := call(ph.rec, "debug.seek", func() (string, error) {
		fc, err := sess.FaultCycle()
		if err != nil {
			return "", err
		}
		return sess.Seek(fc)
	})
	if err != nil {
		return nil, fmt.Errorf("triage %s: seek fault: %w", spec, err)
	}
	if want, ok := c.seeks[i]; !ok {
		c.seeks[i] = seek
	} else if err := sameText("seek fault of "+spec.String(), want, seek); err != nil {
		return nil, err
	}
	if _, err := call(ph.rec, "debug.watch", func() (string, error) {
		addr, n, err := sess.ResolveGlobal(spec.Target)
		if err != nil {
			return "", err
		}
		return sess.Watch(addr, n, 0, 0)
	}); err != nil {
		return nil, fmt.Errorf("triage %s: watch %s: %w", spec, spec.Target, err)
	}
	return sess, nil
}

// probe times restoring each row's checkpoint on its own, the part of a
// trial the fork engine replaced power-on boot with.
func (c *campaign) probe(ph *phase, probes map[string]float64) {
	var us []float64
	for _, r := range c.rows {
		t := time.Now()
		_, err := call(ph.rec, "run.reset", func() (int, error) { return 0, r.forge.Reset() })
		us = append(us, float64(time.Since(t))/1e3)
		ph.led.op(err)
	}
	probes["run.reset_us"] = median(us)
}

func (c *campaign) live() any { return []any{c.rows, c.sessions} }

// sameText reports whether got repeats want byte for byte.
func sameText(what, want, got string) error {
	if want == got {
		return nil
	}
	return errors.New(what + " differs from its first run")
}
