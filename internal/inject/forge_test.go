package inject

import (
	"reflect"
	"testing"

	"opec/internal/apps"
	"opec/internal/mach"
	"opec/internal/monitor"
)

// The forge's byte-identity contract on a single trial: forking the
// §6.1 rogue store from the checkpoint returns the same outcome as a
// power-on run, and the forge machine is reusable — the same trial
// forked twice in a row agrees with itself.
func TestForgeMatchesPowerOnTrial(t *testing.T) {
	app := apps.PinLockN(2)
	spec := Spec{Kind: RogueStore, Func: "Lock_Task", N: 1, Target: "KEY", Bit: -1, Value: 0xEE}
	pol := monitor.Policy{Kind: monitor.RestartOperation}

	want, err := RunOPEC(app, spec, pol, 0)
	if err != nil {
		t.Fatal(err)
	}
	forge, err := NewForge(app)
	if err != nil {
		t.Fatal(err)
	}
	if forge.SnapshotID() == "" {
		t.Fatal("forge has no snapshot id")
	}
	for i := 0; i < 2; i++ {
		got, err := forge.Run(spec, pol, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("fork %d: outcome %+v != power-on %+v", i, got, want)
		}
	}
}

// The certificate-lifecycle regression (restart-after-injection on a
// paranoid forge): the restore that starts every forge trial reinstates
// the boot-time certificate table, and the Arm hook clears it again
// before the trial runs. If that ordering were reversed, an in-trial
// restart would execute the corrupted operation with elision
// re-enabled, and the paranoid machine would panic on the first elided
// access that disagrees with the full protection check — which the
// forge's recover would surface as a CrashedMonitor verdict.
//
// The rogue store is the known restart driver (contained by the MPU,
// operation restarted once); the planned bit-flip trials sweep the
// same lifecycle across corrupted-data runs.
func TestForgeRestartAfterInjectionParanoid(t *testing.T) {
	t.Parallel()
	app := apps.PinLockN(2).WithChecks(mach.CheckParanoid)
	forge, err := NewForge(app)
	if err != nil {
		t.Fatal(err)
	}
	pol := monitor.Policy{Kind: monitor.RestartOperation}

	out, err := forge.Run(Spec{Kind: RogueStore, Func: "Lock_Task", N: 1, Target: "KEY", Bit: -1, Value: 0xEE}, pol, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict == CrashedMonitor {
		t.Fatalf("paranoid restart trial crashed: %s", out.Err)
	}
	if out.Verdict != Recovered || out.Restarts != 1 {
		t.Fatalf("restart trial: verdict %v restarts %d (%s), want recovered after 1 restart",
			out.Verdict, out.Restarts, out.Err)
	}

	inst, b := compilePinLock(t, 2)
	restarted := false
	for _, sp := range Plan(b, inst.Devices, DefaultConfig(42)) {
		if sp.Kind != BitFlip {
			continue
		}
		out, err := forge.Run(sp, pol, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out.Verdict == CrashedMonitor {
			t.Errorf("%s: paranoid bit-flip trial crashed: %s", sp, out.Err)
		}
		restarted = restarted || out.Restarts > 0
	}
	if !restarted {
		t.Log("no planned bit flip tripped a restart at this seed; rogue-store leg covered the restart path")
	}
}

// TestForgeBitFlipAfterForkMatchesReference is the regression for
// state a forge machine carries from one trial into the next. The
// restore that starts every trial must drop the derived lookup caches
// (micro-TLB entries, the last-device cache) and reinstate the
// boot-time certificates, which the Arm hook of an injected trial
// clears again. One forge runs at the paranoid level, caches on and
// every elided access re-adjudicated (a certificate the MPU denies
// panics into a CrashedMonitor verdict); a reference forge runs without
// caches or certificates. Both run the §6.1 rogue store and every
// planned bit flip, each followed by a clean trial. Every outcome field
// must agree; the paranoid forge's injected trials must elide nothing
// and its clean ones must elide; the reference forge must elide nothing
// and hit no lookup cache.
func TestForgeBitFlipAfterForkMatchesReference(t *testing.T) {
	t.Parallel()
	app := apps.PinLockN(2)
	pol := monitor.Policy{Kind: monitor.RestartOperation}
	mkForge := func(c mach.Checks) *Forge {
		t.Helper()
		f, err := NewForge(app.WithChecks(c))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	fp, fr := mkForge(mach.CheckParanoid), mkForge(mach.CheckReference)

	inst, b := compilePinLock(t, 2)
	specs := []Spec{
		{Kind: RogueStore, Func: "Lock_Task", N: 1, Target: "KEY", Bit: -1, Value: 0xEE},
	}
	for _, sp := range Plan(b, inst.Devices, DefaultConfig(42)) {
		if sp.Kind == BitFlip {
			specs = append(specs, sp)
		}
	}

	// counter reads one counter off a forge's machine; elided counts
	// from the checkpoint, which a restore rewinds it to.
	var mp, mr *mach.Machine
	counter := func(m *mach.Machine, name string) uint64 {
		for _, c := range m.Counters() {
			if c.Name == name {
				return c.Value
			}
		}
		return 0
	}
	var cleanElided uint64
	trial := func(name string, spec *Spec) {
		t.Helper()
		var before uint64
		op, err := fp.Trial(spec, pol, 0, nil, false, func(m *mach.Machine) {
			mp, before = m, counter(m, "mach.proofs.elided")
		})
		if err != nil {
			t.Fatalf("%s paranoid: %v", name, err)
		}
		if n := counter(mp, "mach.proofs.elided") - before; spec == nil {
			cleanElided += n
		} else if n != 0 {
			t.Errorf("%s: an injected trial elided %d accesses; it must run fully checked", name, n)
		}
		or, err := fr.Trial(spec, pol, 0, nil, false, func(m *mach.Machine) { mr = m })
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		for _, c := range []string{"mach.proofs.elided", "mach.tlb.hits", "mach.bus.dev_cache_hits"} {
			if n := counter(mr, c); n != 0 {
				t.Errorf("%s: the reference forge reads %s = %d, want 0", name, c, n)
			}
		}
		if op.Verdict == CrashedMonitor && or.Verdict != CrashedMonitor {
			t.Errorf("%s: paranoid trial crashed where the reference did not (stale certificate?): %s", name, op.Err)
			return
		}
		if !reflect.DeepEqual(op, or) {
			t.Errorf("%s: fork outcome diverges:\n  paranoid:  %+v\n  reference: %+v", name, op, or)
		}
	}
	for _, sp := range specs {
		trial(sp.String(), &sp)
		trial("clean after "+sp.String(), nil)
	}
	if cleanElided == 0 {
		t.Error("no clean trial elided an access: the forks re-checked nothing")
	}
}
