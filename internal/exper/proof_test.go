package exper

import (
	"testing"

	"opec/internal/core"
	"opec/internal/mach"
)

// TestProofTransparency is the acceptance check for proof-guided
// MPU-check elision: with certificate consumption disabled
// (OPEC_MACH_NOPROOF semantics), every rendered experiment table must be
// byte-identical and every run's final cycle count value-identical to
// the eliding sweep. Proofs may buy wall-clock time only — never
// architected behavior.
func TestProofTransparency(t *testing.T) {
	if testing.Short() {
		t.Skip("full double sweep in -short mode")
	}
	saved := mach.DisableProofs
	defer func() { mach.DisableProofs = saved }()

	mach.DisableProofs = false
	elideOut, elideCycles := sweepAll(t, Quick)
	mach.DisableProofs = true
	checkOut, checkCycles := sweepAll(t, Quick)

	if elideOut != checkOut {
		t.Errorf("rendered experiment output differs with proofs disabled:\n--- eliding ---\n%s\n--- checked ---\n%s", elideOut, checkOut)
	}
	for k, e := range elideCycles {
		if c := checkCycles[k]; e != c {
			t.Errorf("%s: final cycles = %d eliding vs %d checked", k, e, c)
		}
	}
	if len(elideCycles) == 0 {
		t.Fatal("no per-run cycle counts compared")
	}
}

// TestProofParanoidSweep re-runs the experiment sweep with every elided
// access re-adjudicated through the full protection check
// (OPEC_MACH_PARANOID semantics): any disagreement between a static
// certificate and the dynamic verdict panics inside the interpreter and
// fails the sweep — the differential soundness check for the proof
// engine, across every workload and scheme the harness exercises.
func TestProofParanoidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full paranoid sweep in -short mode")
	}
	savedP, savedD := mach.ParanoidProofs, mach.DisableProofs
	defer func() { mach.ParanoidProofs, mach.DisableProofs = savedP, savedD }()
	mach.ParanoidProofs, mach.DisableProofs = true, false

	sweepAll(t, Quick)
}

// TestRenderedTablesBackendIdentity renders Table 1 and Figure 9 with
// every elided access re-adjudicated (OPEC_MACH_PARANOID semantics) and
// requires both byte-identical to the plain render. The tables embed
// absolute cycle counts, so this pins that re-adjudication moves no
// timing, not just that it finds no unsound proof. (The name dates from
// when the second render ran on a second, translating engine.)
func TestRenderedTablesBackendIdentity(t *testing.T) {
	savedP, savedD := mach.ParanoidProofs, mach.DisableProofs
	defer func() { mach.ParanoidProofs, mach.DisableProofs = savedP, savedD }()
	mach.DisableProofs = false
	render := func(paranoid bool) (t1, f9 string) {
		mach.ParanoidProofs = paranoid
		h := NewHarness(0)
		rows, err := h.Table1(Quick)
		if err != nil {
			t.Fatalf("paranoid=%v Table1: %v", paranoid, err)
		}
		fig, err := h.Figure9(Quick)
		if err != nil {
			t.Fatalf("paranoid=%v Figure9: %v", paranoid, err)
		}
		return RenderTable1(rows), RenderFigure9(fig)
	}
	t1, f9 := render(false)
	t1p, f9p := render(true)
	if t1 != t1p {
		t.Errorf("Table 1 differs under paranoid proofs:\n--- plain ---\n%s--- paranoid ---\n%s", t1, t1p)
	}
	if f9 != f9p {
		t.Errorf("Figure 9 differs under paranoid proofs:\n--- plain ---\n%s--- paranoid ---\n%s", f9, f9p)
	}
}

// TestProofCoverageFloor pins the proof engine's precision acceptance
// floor: at least five of the seven workloads must certify at least
// half of their static memory accesses, and no build may contain a
// provably-faulting (rejected) access.
func TestProofCoverageFloor(t *testing.T) {
	covered, total := 0, 0
	for _, app := range AppsFor(Quick) {
		inst := app.New()
		b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if b.Proofs == nil {
			t.Fatalf("%s: build has no proof result", app.Name)
		}
		static, proven, rejected := b.Proofs.Static(), b.Proofs.Proven(), b.Proofs.Rejected()
		if static == 0 {
			t.Fatalf("%s: no static accesses analyzed", app.Name)
		}
		if rejected != 0 {
			t.Errorf("%s: %d provably-faulting accesses", app.Name, rejected)
		}
		cov := 100 * float64(proven) / float64(static)
		t.Logf("%s: static=%d proven=%d coverage=%.1f%%", app.Name, static, proven, cov)
		total++
		if cov >= 50 {
			covered++
		}
	}
	if total != 7 {
		t.Fatalf("workload count = %d, want 7", total)
	}
	if covered < 5 {
		t.Errorf("proof coverage >= 50%% on %d of %d workloads, want >= 5", covered, total)
	}
}
