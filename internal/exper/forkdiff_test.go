package exper

import (
	"testing"

	"opec/internal/mach"
	"opec/internal/monitor"
)

// The fork engine's acceptance invariant: a seeded campaign forked
// from per-row snapshots renders a byte-identical verdict table — and
// identical per-trial verdicts, error strings, cycle counts and
// recovery counters — against the power-on boot engine, at parallelism
// 1 and at full parallelism.
func TestInjectForkMatchesBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign replays every workload in -short mode")
	}
	cfg := tinyCampaign(3)
	pol := monitor.Policy{}
	boot, err := NewHarness(0).InjectWith(Quick, cfg, pol, EngineBoot)
	if err != nil {
		t.Fatal(err)
	}
	bootTable := RenderInject(boot)

	for _, parallel := range []int{1, 0} {
		fork, err := NewHarness(parallel).InjectWith(Quick, cfg, pol, EngineFork)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if got := RenderInject(fork); got != bootTable {
			t.Errorf("parallel=%d: fork table differs from boot table:\n--- boot ---\n%s--- fork ---\n%s",
				parallel, bootTable, got)
		}
		if len(fork) != len(boot) {
			t.Fatalf("parallel=%d: %d fork rows vs %d boot rows", parallel, len(fork), len(boot))
		}
		for i := range fork {
			fr, br := fork[i], boot[i]
			if fr.SnapID == "" {
				t.Errorf("%s/%s: fork row has no snapshot id", fr.App, fr.Scheme)
			}
			if len(fr.Outcomes) != len(br.Outcomes) {
				t.Fatalf("%s/%s: %d fork trials vs %d boot trials", fr.App, fr.Scheme, len(fr.Outcomes), len(br.Outcomes))
			}
			for k := range fr.Outcomes {
				fo, bo := fr.Outcomes[k], br.Outcomes[k]
				if fo.Verdict != bo.Verdict || fo.Err != bo.Err || fo.Cycles != bo.Cycles ||
					fo.Restarts != bo.Restarts || fo.Quarantines != bo.Quarantines ||
					fo.RestartCycles != bo.RestartCycles {
					t.Errorf("%s/%s trial %s: fork %+v != boot %+v",
						fr.App, fr.Scheme, fo.Spec, fo, bo)
				}
			}
		}
	}
}

// TestInjectCampaignAgreesAcrossCheckLevels runs the seeded campaign
// three ways. The oracle is the boot engine at the reference level:
// every trial from power-on, every MPU verdict and device lookup made
// afresh, no certificate held. The boot engine at the fast level, and
// the fork engine at the paranoid level (caches on, every elided access
// re-adjudicated), must match it byte for byte. The fork leg is the
// end-to-end check that machines forked trial after trial, whose
// micro-TLB and device cache stay warm between restores, replay
// exactly. Each harness's clean OPEC runs, which fix the trial budgets,
// must show its level applied.
func TestInjectCampaignAgreesAcrossCheckLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign replays every workload in -short mode")
	}
	t.Parallel()
	cfg := tinyCampaign(11)
	pol := monitor.Policy{Kind: monitor.RestartOperation}

	table := func(c mach.Checks, engine InjectEngine) string {
		h := NewHarness(0)
		h.checks = c
		rows, err := h.InjectWith(Quick, cfg, pol, engine)
		if err != nil {
			t.Fatalf("%s %v: %v", c, engine, err)
		}
		for _, app := range h.appsFor(Quick) {
			ro, err := h.Cache.OPECRun(app, Quick)
			if err != nil {
				t.Fatal(err)
			}
			checkLevelApplied(t, c, app.Name+" OPEC", ro.Machine, true)
		}
		return RenderInject(rows)
	}
	oracle := table(mach.CheckReference, EngineBoot)
	if got := table(mach.CheckFast, EngineBoot); got != oracle {
		t.Errorf("fast boot campaign differs:\n--- reference boot ---\n%s--- fast boot ---\n%s", oracle, got)
	}
	if got := table(mach.CheckParanoid, EngineFork); got != oracle {
		t.Errorf("paranoid fork campaign differs:\n--- reference boot ---\n%s--- paranoid fork ---\n%s", oracle, got)
	}
}
