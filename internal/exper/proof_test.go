package exper

import (
	"testing"

	"opec/internal/core"
)

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
