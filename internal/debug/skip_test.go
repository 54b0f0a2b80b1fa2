package debug

import (
	"fmt"
	"testing"

	"opec/internal/apps"
	"opec/internal/exper"
	"opec/internal/inject"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/trace"
)

// everyEvent is a trace handler that is not a trace.Repeater: attached
// to a bus, it makes the fast-forward execute every poll iteration.
type everyEvent struct{}

func (everyEvent) HandleEvent(trace.Event) {}

// skipProbe is a session's execution hook. It records the machine each
// execution runs on, and when forced attaches an everyEvent handler to
// the execution's bus.
type skipProbe struct {
	forced bool
	m      *mach.Machine
}

func (p *skipProbe) hook(buf *trace.Buffer) func(*mach.Machine) {
	if p.forced {
		buf.Attach(everyEvent{})
	}
	return func(m *mach.Machine) { p.m = m }
}

// episodes reads mach.ff.episodes off the latest execution's machine.
func (p *skipProbe) episodes() uint64 {
	for _, c := range p.m.Counters() {
		if c.Name == "mach.ff.episodes" {
			return c.Value
		}
	}
	return 0
}

// triage records cfg's run with the probe hooked in and answers every
// query a triage asks, about global target. It returns the answers and
// the skips each execution took: the recording's first, then one per
// query.
func triage(t *testing.T, cfg Config, p *skipProbe, target string) (answers []string, skips []uint64) {
	t.Helper()
	cfg.hook = p.hook
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	skips = append(skips, p.episodes())
	ask := func(what string, out string, err error) {
		t.Helper()
		if err != nil {
			out = "error: " + err.Error()
		}
		answers = append(answers, what+":\n"+out)
		skips = append(skips, p.episodes())
	}
	answers = append(answers, "info:\n"+s.Info(), "keyframes:\n"+s.Keyframes().Render())
	out, err := s.Blame(0)
	ask("blame", out, err)
	fc, err := s.FaultCycle()
	if err != nil {
		t.Fatal(err)
	}
	st := s.Store()
	for _, c := range []uint64{fc, st.FirstCycle(), st.Event(st.Len() / 2).Cycle, st.LastCycle()} {
		out, err := s.Seek(c)
		ask(fmt.Sprintf("seek %d", c), out, err)
	}
	addr, n, err := s.ResolveGlobal(target)
	if err != nil {
		t.Fatal(err)
	}
	out, err = s.Watch(addr, n, 0, 0)
	ask("watch "+target, out, err)
	out, err = s.LastWriter(addr, n, fc+1000)
	ask("last-writer "+target, out, err)
	ask("verify keyframes", "", s.VerifyKeyframes())
	return answers, skips
}

// sameTriage records cfg twice, skipping and forced to execute every
// iteration, and requires byte-identical answers. When the run polls,
// every execution of the skipping session must fast-forward; the
// forced session's never may.
func sameTriage(t *testing.T, cfg Config, target string, polls bool) {
	t.Helper()
	got, skips := triage(t, cfg, &skipProbe{}, target)
	want, forcedSkips := triage(t, cfg, &skipProbe{forced: true}, target)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("skipping session answers differently:\n--- forced\n%s\n--- skipping\n%s", want[i], got[i])
		}
	}
	for i := range skips {
		if (skips[i] > 0) != polls || forcedSkips[i] != 0 {
			t.Errorf("execution %d: skipping session fast-forwarded %d times (the run polls: %v), forced session %d times",
				i, skips[i], polls, forcedSkips[i])
		}
	}
}

// TestSkippingSessionsMatchForced is the debugger's skip-versus-
// reference differential: recording, blame, seek, watch, last-writer
// and keyframe verification fast-forward poll loops and must answer
// byte-identically to a session whose every execution runs each
// iteration. It covers the §6.1 KEY session on both backends and one
// recovered rogue-store trial per quick-scale app.
func TestSkippingSessionsMatchForced(t *testing.T) {
	restart := monitor.Policy{Kind: monitor.RestartOperation}
	spec, err := inject.ParseSpec(keyOverwriteSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"interp", "xlat"} {
		t.Run("KEY/"+backend, func(t *testing.T) {
			t.Parallel()
			sameTriage(t, Config{App: apps.PinLockN(1), Spec: &spec, Policy: restart, Backend: backend}, "KEY", true)
		})
	}
	for _, app := range exper.AppsFor(exper.Quick) {
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			spec, polls := recoveredRogueStore(t, app, restart)
			sameTriage(t, Config{App: app, Spec: &spec, Policy: restart}, spec.Target, polls)
		})
	}
}

// recoveredRogueStore returns the first rogue store to a global in
// app's seed-1 campaign plan that the policy recovers from, and
// whether the trial, run untraced, fast-forwards (CoreMark never
// polls).
func recoveredRogueStore(t *testing.T, app *apps.App, pol monitor.Policy) (inject.Spec, bool) {
	t.Helper()
	forge, err := inject.NewForge(app)
	if err != nil {
		t.Fatal(err)
	}
	mod := forge.Instance().Mod
	for _, spec := range inject.Plan(forge.Build(), forge.Instance().Devices, inject.DefaultConfig(1)) {
		if spec.Kind != inject.RogueStore || mod.Global(spec.Target) == nil {
			continue
		}
		p := &skipProbe{}
		out, err := forge.ObservedRun(spec, pol, 0, nil, false, p.hook(nil))
		if err != nil {
			t.Fatal(err)
		}
		if out.Verdict == inject.Recovered {
			return spec, p.episodes() > 0
		}
	}
	t.Fatalf("%s: no recovered rogue store to a global in the plan", app.Name)
	return inject.Spec{}, false
}
