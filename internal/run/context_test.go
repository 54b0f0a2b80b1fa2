package run_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/dev"
	"opec/internal/mach"
	"opec/internal/run"
	"opec/internal/trace"
)

// quickApps are five workloads at the evaluation harness's quick
// scale, FatFs-uSD the one that writes its SD card, and schemes every
// scheme a Context boots.
var (
	quickApps = []*apps.App{apps.PinLockN(5), apps.AnimationN(3), apps.TCPEchoN(3, 9), apps.CoreMarkN(3), apps.FatFsUSD()}
	schemes   = []string{"vanilla", "opec", "opec-pmp", "aces1", "aces2", "aces3"}
)

// sdCard returns the instance's SD card, or nil.
func sdCard(inst *apps.Instance) *dev.SDCard {
	for _, d := range inst.Devices {
		if sd, ok := d.(*dev.SDCard); ok {
			return sd
		}
	}
	return nil
}

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
// machine state, the SD card's contents and every registry counter.
type forkObs struct {
	err, check string
	cycles     uint64
	digest     string
	card       []byte
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
	if sd := sdCard(c.Inst); sd != nil {
		o.card = sd.Data()
	}
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
	if !bytes.Equal(o.card, ref.card) {
		d = append(d, "SD card contents differ from power-on's")
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
// final state, SD card contents and every machine, monitor and ACES
// counter. FatFs-uSD first runs one fork to completion, which writes a
// file to its card, so a card write leaking into a later fork shows.
func TestForkAfterDirtyForkMatchesBoot(t *testing.T) {
	for _, app := range quickApps {
		for _, scheme := range schemes {
			want := observeFork(bootScheme(t, app, scheme))

			c := bootScheme(t, app, scheme)
			if app.Name == "FatFs-uSD" {
				// A whole run writes STM32.TXT to the card, which the
				// checkpoint's card does not hold.
				if _, err := c.Fork(run.Options{}); err != nil {
					t.Fatalf("%s/%s: the card-writing fork: %v", app.Name, scheme, err)
				}
				if _, ok := dev.ReadFileFromImage(sdCard(c.Inst).Data(), "STM32   TXT"); !ok {
					t.Fatalf("%s/%s: the card-writing fork left no STM32.TXT on the card", app.Name, scheme)
				}
			}
			main := c.Inst.Mod.MustFunc("main")
			buf := trace.NewBuffer(256)
			if _, err := c.Fork(run.Options{
				MaxCycles: 5000,
				Trace:     buf,
				Arm: func(m *mach.Machine) {
					m.Arm(&mach.Injection{Func: main, N: 1, Fire: func(m *mach.Machine) error {
						m.SP = m.StackLimit + 16
						return nil
					}})
				},
			}); err == nil {
				t.Errorf("%s/%s: the dirty fork ran clean", app.Name, scheme)
			}
			if buf.Emitted() == 0 {
				t.Errorf("%s/%s: the dirty fork recorded no events", app.Name, scheme)
			}
			if d := observeFork(c).diff(want); d != "" {
				t.Errorf("%s/%s: fork after a dirty fork: %s", app.Name, scheme, d)
			}
		}
	}
}

// TestSnapshotIDIsRestoredStateDigest: a snapshot id is the digest of
// the state it restores, so a fork's machine, read before its first
// instruction, digests to its Context's snapshot id.
func TestSnapshotIDIsRestoredStateDigest(t *testing.T) {
	for _, app := range quickApps {
		for _, scheme := range schemes {
			c := bootScheme(t, app, scheme)
			var digest string
			// Boot spent more than one cycle, so the fork stops at its
			// first block; only the Arm hook's reading matters.
			if _, err := c.Fork(run.Options{MaxCycles: 1, Arm: func(m *mach.Machine) {
				digest = m.StateDigest()
			}}); err == nil {
				t.Fatalf("%s/%s: a one-cycle fork ran to its halt point", app.Name, scheme)
			}
			if id := c.SnapshotID(); digest != id {
				t.Errorf("%s/%s: restored state digests to %s, snapshot id is %s", app.Name, scheme, digest, id)
			}
		}
	}
}

// TestForkKeepsBootDefaultBackend: a Context forks on the default
// backend it booted under, whatever the process default says when a
// later fork runs.
func TestForkKeepsBootDefaultBackend(t *testing.T) {
	saved := run.DefaultBackend
	defer func() { run.DefaultBackend = saved }()
	run.DefaultBackend = run.BackendInterp
	c := bootScheme(t, apps.PinLockN(5), "opec")
	run.DefaultBackend = run.BackendXlat
	var backend mach.Backend
	if _, err := c.Fork(run.Options{Arm: func(m *mach.Machine) { backend = m.ExecBackend() }}); err != nil {
		t.Fatal(err)
	}
	if backend != nil {
		t.Errorf("a Context booted under the interpreter forked on %s", backend.Name())
	}
}
