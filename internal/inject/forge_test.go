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

// The certificate-lifecycle regression (restart-after-injection under
// OPEC_MACH_PARANOID semantics): the restore that starts every forge
// trial reinstates the boot-time certificate table, and the Arm hook
// clears it again before the trial runs. If that ordering were
// reversed, an in-trial restart would execute the corrupted operation
// with elision re-enabled, and paranoid mode would panic on the first
// elided access that disagrees with the full protection check — which
// the forge's recover would surface as a CrashedMonitor verdict.
//
// The rogue store is the known restart driver (contained by the MPU,
// operation restarted once); the planned bit-flip trials sweep the
// same lifecycle across corrupted-data runs.
func TestForgeRestartAfterInjectionParanoid(t *testing.T) {
	savedP, savedD := mach.ParanoidProofs, mach.DisableProofs
	defer func() { mach.ParanoidProofs, mach.DisableProofs = savedP, savedD }()
	mach.ParanoidProofs, mach.DisableProofs = true, false

	app := apps.PinLockN(2)
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

// TestForgeBitFlipAfterForkXlatParanoid is the regression for state a
// forge machine carries from one trial into the next. The restore that
// starts every trial must drop the derived lookup caches (micro-TLB
// entries, the last-device cache) and reinstate the boot-time
// certificates, which the Arm hook of an injected trial clears again.
// One forge runs with its caches on and every elided access
// re-adjudicated (paranoid: a certificate the MPU denies panics into a
// CrashedMonitor verdict); a reference forge runs uncached
// (OPEC_MACH_NOCACHE) and consumes no certificates (OPEC_MACH_NOPROOF).
// Both run the §6.1 rogue store and every planned bit flip, each
// followed by a clean trial. Every outcome field must agree, the first
// forge's injected trials must elide nothing, and its clean ones must
// elide. (The name dates from when the other forge ran a second,
// translating engine, whose cache could have kept a certificate-fused
// path across forks.)
func TestForgeBitFlipAfterForkXlatParanoid(t *testing.T) {
	savedP, savedD, savedC := mach.ParanoidProofs, mach.DisableProofs, mach.DisableCaches
	defer func() {
		mach.ParanoidProofs, mach.DisableProofs, mach.DisableCaches = savedP, savedD, savedC
	}()
	paranoid := func() { mach.ParanoidProofs, mach.DisableProofs, mach.DisableCaches = true, false, false }
	reference := func() { mach.ParanoidProofs, mach.DisableProofs, mach.DisableCaches = false, true, true }

	app := apps.PinLockN(2)
	pol := monitor.Policy{Kind: monitor.RestartOperation}
	mkForge := func(mode func()) *Forge {
		t.Helper()
		mode() // a machine reads DisableCaches when its bus is built
		f, err := NewForge(app)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	fp, fr := mkForge(paranoid), mkForge(reference)

	inst, b := compilePinLock(t, 2)
	specs := []Spec{
		{Kind: RogueStore, Func: "Lock_Task", N: 1, Target: "KEY", Bit: -1, Value: 0xEE},
	}
	for _, sp := range Plan(b, inst.Devices, DefaultConfig(42)) {
		if sp.Kind == BitFlip {
			specs = append(specs, sp)
		}
	}

	// elided reads mach.proofs.elided, a statistic restores leave
	// running, off the paranoid forge's machine.
	var m *mach.Machine
	elided := func() uint64 {
		for _, c := range m.Counters() {
			if c.Name == "mach.proofs.elided" {
				return c.Value
			}
		}
		return 0
	}
	var cleanElided uint64
	trial := func(name string, spec *Spec) {
		t.Helper()
		paranoid()
		var before uint64
		op, err := fp.Trial(spec, pol, 0, nil, false, func(fm *mach.Machine) { m = fm; before = elided() })
		if err != nil {
			t.Fatalf("%s paranoid: %v", name, err)
		}
		if n := elided() - before; spec == nil {
			cleanElided += n
		} else if n != 0 {
			t.Errorf("%s: an injected trial elided %d accesses; it must run fully checked", name, n)
		}
		reference()
		or, err := fr.Trial(spec, pol, 0, nil, false, nil)
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
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
