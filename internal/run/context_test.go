package run_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/mach"
	"opec/internal/run"
	"opec/internal/trace"
)

// bootScheme compiles a fresh instance of app for scheme and boots it.
func bootScheme(t *testing.T, app *apps.App, scheme string) *run.Context {
	t.Helper()
	inst := app.New()
	var c *run.Context
	var err error
	switch scheme {
	case "vanilla":
		c, err = run.BootVanilla(inst)
	case "opec", "opec-pmp":
		var b *core.Build
		if b, err = core.Compile(inst.Mod, inst.Board, inst.Cfg); err != nil {
			t.Fatal(err)
		}
		if scheme == "opec" {
			c, err = run.BootOPEC(inst, b)
		} else {
			c, err = run.BootOPECPMP(inst, b)
		}
	default:
		strat := map[string]aces.Strategy{"aces1": aces.Filename, "aces2": aces.FilenameNoOpt, "aces3": aces.Peripheral}[scheme]
		var b *aces.Build
		if b, err = aces.Compile(inst.Mod, inst.Board, strat); err != nil {
			t.Fatal(err)
		}
		c, err = run.BootACES(inst, b)
	}
	if err != nil {
		t.Fatalf("%s/%s: boot: %v", app.Name, scheme, err)
	}
	return c
}

// forkObs is what a clean fork exposes: its outcome, cycles, final
// machine state and every registry counter.
type forkObs struct {
	err, check string
	cycles     uint64
	digest     string
	counters   map[string]uint64
}

func observeFork(c *run.Context) forkObs {
	res, err := c.Fork(run.Options{})
	o := forkObs{counters: map[string]uint64{}}
	if err != nil {
		o.err = err.Error()
	} else if cerr := run.AndCheck(c.Inst, res); cerr != nil {
		o.check = cerr.Error()
	}
	o.cycles, o.digest = res.Cycles, res.Machine.StateDigest()
	reg := trace.NewRegistry()
	reg.Register(res.Machine)
	if res.Mon != nil {
		reg.Register(&res.Mon.Stats)
	}
	if res.ACES != nil {
		reg.Register(res.ACES)
	}
	for _, k := range reg.Snapshot() {
		o.counters[k.Name] = k.Value
	}
	return o
}

func (o forkObs) diff(ref forkObs) string {
	var d []string
	if o.err != ref.err || o.check != ref.check {
		d = append(d, fmt.Sprintf("outcome %q/%q, power-on %q/%q", o.err, o.check, ref.err, ref.check))
	}
	if o.cycles != ref.cycles || o.digest != ref.digest {
		d = append(d, fmt.Sprintf("%d cycles digest %s, power-on %d cycles digest %s", o.cycles, o.digest, ref.cycles, ref.digest))
	}
	names := map[string]bool{}
	for k := range o.counters {
		names[k] = true
	}
	for k := range ref.counters {
		names[k] = true
	}
	var sorted []string
	for k := range names {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if o.counters[k] != ref.counters[k] {
			d = append(d, fmt.Sprintf("%s = %d, power-on %d", k, o.counters[k], ref.counters[k]))
		}
	}
	return strings.Join(d, "; ")
}

// TestForkAfterDirtyForkMatchesBoot is fork-equals-boot at the run
// layer, for every scheme: after a dirty fork — traced, with a stack
// exhaustion injected at main and a 5000-cycle budget — a Context's
// next clean fork must equal a fresh boot's first in outcome, cycles,
// final state and every machine, monitor and ACES counter.
func TestForkAfterDirtyForkMatchesBoot(t *testing.T) {
	// Four workloads at the evaluation harness's quick scale.
	quick := []*apps.App{apps.PinLockN(5), apps.AnimationN(3), apps.TCPEchoN(3, 9), apps.CoreMarkN(3)}
	for _, app := range quick {
		for _, scheme := range []string{"vanilla", "opec", "opec-pmp", "aces1", "aces2", "aces3"} {
			want := observeFork(bootScheme(t, app, scheme))

			c := bootScheme(t, app, scheme)
			main := c.Inst.Mod.MustFunc("main")
			if _, err := c.Fork(run.Options{
				MaxCycles: 5000,
				Trace:     trace.NewBuffer(256),
				Arm: func(m *mach.Machine) {
					m.Arm(&mach.Injection{Func: main, N: 1, Fire: func(m *mach.Machine) error {
						m.SP = m.StackLimit + 16
						return nil
					}})
				},
			}); err == nil {
				t.Errorf("%s/%s: the dirty fork ran clean", app.Name, scheme)
			}
			if d := observeFork(c).diff(want); d != "" {
				t.Errorf("%s/%s: fork after a dirty fork: %s", app.Name, scheme, d)
			}
		}
	}
}
