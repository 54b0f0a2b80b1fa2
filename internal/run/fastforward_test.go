package run_test

import (
	"fmt"
	"strings"
	"testing"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/run"
	"opec/internal/trace"
)

// ffObs is everything a run exposes that the busy-wait fast-forward
// must leave untouched.
type ffObs struct {
	err      string
	check    string
	cycles   uint64
	instrs   uint64
	digest   string
	counters map[string]uint64 // every registry counter but mach.ff.*
	trace    string            // the ring's render; "" untraced
	skipped  uint64            // mach.ff.skipped_instrs
}

// traceMode selects the trace an observation attaches.
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
type everyEvent struct{}

func (everyEvent) HandleEvent(trace.Event) {}

// ffSchemes are the five builds the evaluation runs.
var ffSchemes = []string{"vanilla", "opec", "aces1", "aces2", "aces3"}

// observeFF runs app under scheme on backend with the given trace.
func observeFF(t *testing.T, app *apps.App, scheme, backend string, mode traceMode) ffObs {
	t.Helper()
	inst := app.New()
	opts := run.Options{Backend: backend}
	if mode != untraced {
		opts.Trace = trace.NewBuffer(256)
	}
	if mode == reference {
		opts.Trace.Attach(everyEvent{})
	}
	var res *run.Result
	var err error
	switch scheme {
	case "vanilla":
		res, err = run.VanillaWith(inst, opts)
	case "opec":
		var b *core.Build
		if b, err = core.Compile(inst.Mod, inst.Board, inst.Cfg); err != nil {
			t.Fatal(err)
		}
		res, err = run.OPECWith(inst, b, opts)
	default:
		strat := map[string]aces.Strategy{"aces1": aces.Filename, "aces2": aces.FilenameNoOpt, "aces3": aces.Peripheral}[scheme]
		var b *aces.Build
		if b, err = aces.Compile(inst.Mod, inst.Board, strat); err != nil {
			t.Fatal(err)
		}
		res, err = run.ACESWith(inst, b, opts)
	}
	o := ffObs{counters: map[string]uint64{}}
	if err != nil {
		o.err = err.Error()
	}
	if res == nil {
		return o
	}
	if err == nil {
		if cerr := run.AndCheck(inst, res); cerr != nil {
			o.check = cerr.Error()
		}
	}
	m := res.Machine
	o.cycles, o.instrs, o.digest = res.Cycles, m.InstrCount, m.StateDigest()
	reg := trace.NewRegistry()
	reg.Register(m)
	if opts.Trace != nil {
		reg.Register(opts.Trace)
		o.trace = opts.Trace.RenderText()
	}
	if res.Mon != nil {
		reg.Register(&res.Mon.Stats)
	}
	if res.ACES != nil {
		reg.Register(res.ACES)
	}
	for _, c := range reg.Snapshot() {
		switch {
		case c.Name == "mach.ff.skipped_instrs":
			o.skipped = c.Value
		case strings.HasPrefix(c.Name, "mach.ff."):
		default:
			o.counters[c.Name] = c.Value
		}
	}
	return o
}

func (o ffObs) diff(ref ffObs) string {
	var d []string
	if o.err != ref.err || o.check != ref.check {
		d = append(d, fmt.Sprintf("outcome %q/%q, reference %q/%q", o.err, o.check, ref.err, ref.check))
	}
	if o.cycles != ref.cycles || o.instrs != ref.instrs {
		d = append(d, fmt.Sprintf("%d cycles %d instrs, reference %d cycles %d instrs", o.cycles, o.instrs, ref.cycles, ref.instrs))
	}
	if o.digest != ref.digest {
		d = append(d, fmt.Sprintf("state digest %s, reference %s", o.digest, ref.digest))
	}
	for name, v := range ref.counters {
		if got, ok := o.counters[name]; !ok || got != v {
			d = append(d, fmt.Sprintf("%s = %d, reference %d", name, got, v))
		}
	}
	if len(o.counters) != len(ref.counters) {
		d = append(d, fmt.Sprintf("%d counters, reference %d", len(o.counters), len(ref.counters)))
	}
	if o.trace != ref.trace {
		d = append(d, "trace ring differs from the reference's")
	}
	return strings.Join(d, "; ")
}

// TestFastForwardMatchesTracedRuns is the full-scale differential for
// the busy-wait fast-forward: every workload under every scheme, on
// both execution backends, must produce the same cycles, instruction
// count, final state digest, correctness-check outcome and registry
// counters untraced and ring-only traced (both skipping) as the
// reference (executing every iteration), and the ring-only trace must
// hold the reference's events, emitted and dropped counts. It also
// proves the skip engages on both backends, traced or not.
func TestFastForwardMatchesTracedRuns(t *testing.T) {
	if testing.Short() || raceDetector {
		// Single-threaded and long; the race detector adds nothing.
		t.Skip("full-scale differential")
	}
	for _, backend := range []string{run.BackendInterp, run.BackendXlat} {
		skipping := map[string]bool{}
		for _, app := range apps.All() {
			for _, scheme := range ffSchemes {
				fast := observeFF(t, app, scheme, backend, untraced)
				ring := observeFF(t, app, scheme, backend, ringOnly)
				ref := observeFF(t, app, scheme, backend, reference)
				if d := ring.diff(ref); d != "" {
					t.Errorf("%s %s/%s ring-only trace: %s", backend, app.Name, scheme, d)
				}
				if ring.skipped != fast.skipped {
					t.Errorf("%s %s/%s: ring-only traced run skipped %d instructions, untraced %d", backend, app.Name, scheme, ring.skipped, fast.skipped)
				}
				fast.trace = ref.trace
				for name, v := range ref.counters {
					if strings.HasPrefix(name, "trace.") {
						fast.counters[name] = v
					}
				}
				if d := fast.diff(ref); d != "" {
					t.Errorf("%s %s/%s: %s", backend, app.Name, scheme, d)
				}
				if ref.skipped != 0 {
					t.Errorf("%s %s/%s: reference run skipped %d instructions", backend, app.Name, scheme, ref.skipped)
				}
				if fast.skipped > 0 {
					skipping[app.Name] = true
				}
			}
		}
		// CoreMark is compute-bound; every other workload waits on a
		// device and must skip under at least one scheme.
		for _, app := range apps.All() {
			if app.Name != "CoreMark" && !skipping[app.Name] {
				t.Errorf("%s: %s never fast-forwarded", backend, app.Name)
			}
		}
	}
}
