package inject

import (
	"reflect"
	"testing"

	"opec/internal/apps"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/run"
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

// TestForgeBitFlipAfterForkXlatParanoid is the translation-cache
// invalidation regression for the xlat backend: the forge's Arm hook
// clears the certificate table after every fork-restore, so any
// certificate-fused fast path the translation cache built during an
// earlier trial must be re-keyed away, never served stale. Paranoid
// mode turns a stale fused path into a monitor crash (re-adjudication
// panics on the first unsound elision), and the interp forge running
// the same specs pins byte-identity of every outcome field.
func TestForgeBitFlipAfterForkXlatParanoid(t *testing.T) {
	savedP, savedD := mach.ParanoidProofs, mach.DisableProofs
	savedB := run.DefaultBackend
	defer func() {
		mach.ParanoidProofs, mach.DisableProofs = savedP, savedD
		run.DefaultBackend = savedB
	}()
	mach.ParanoidProofs, mach.DisableProofs = true, false

	app := apps.PinLockN(2)
	pol := monitor.Policy{Kind: monitor.RestartOperation}

	mkForge := func(backend string) *Forge {
		t.Helper()
		run.DefaultBackend = backend
		f, err := NewForge(app)
		if err != nil {
			t.Fatalf("%s forge: %v", backend, err)
		}
		// A forge forks on the default it booted under; pinning the
		// backend as well keeps the comparison independent of that.
		f.Backend = backend
		return f
	}
	fi := mkForge(run.BackendInterp)
	fx := mkForge(run.BackendXlat)

	inst, b := compilePinLock(t, 2)
	specs := []Spec{
		// The §6.1 rogue store first: its trial runs with certificates
		// installed at boot (fused variants get built), then every
		// later fork clears them — the exact stale-closure hazard.
		{Kind: RogueStore, Func: "Lock_Task", N: 1, Target: "KEY", Bit: -1, Value: 0xEE},
	}
	for _, sp := range Plan(b, inst.Devices, DefaultConfig(42)) {
		if sp.Kind == BitFlip {
			specs = append(specs, sp)
		}
	}

	for _, sp := range specs {
		oi, err := fi.Run(sp, pol, 0)
		if err != nil {
			t.Fatalf("%s interp: %v", sp, err)
		}
		ox, err := fx.Run(sp, pol, 0)
		if err != nil {
			t.Fatalf("%s xlat: %v", sp, err)
		}
		if ox.Verdict == CrashedMonitor && oi.Verdict != CrashedMonitor {
			t.Errorf("%s: xlat trial crashed where interp did not (stale fused path?): %s", sp, ox.Err)
			continue
		}
		if !reflect.DeepEqual(oi, ox) {
			t.Errorf("%s: fork outcome diverges:\n  interp: %+v\n  xlat:   %+v", sp, oi, ox)
		}
	}
}
