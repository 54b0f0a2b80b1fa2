package exper

import (
	"sync"
	"testing"

	"opec/internal/mach"
)

// checkLevelApplied fails t unless a finished run's counters show check
// level c: a reference machine elides nothing and hits no lookup cache,
// and a fast or paranoid OPEC machine elides. what names the run.
func checkLevelApplied(t *testing.T, c mach.Checks, what string, m *mach.Machine, opec bool) {
	t.Helper()
	counters := map[string]uint64{}
	for _, k := range m.Counters() {
		counters[k.Name] = k.Value
	}
	if c != mach.CheckReference {
		if opec && counters["mach.proofs.elided"] == 0 {
			t.Errorf("%s at the %s level elided no access", what, c)
		}
		return
	}
	for _, name := range []string{"mach.proofs.elided", "mach.tlb.hits", "mach.bus.dev_cache_hits"} {
		if n := counters[name]; n != 0 {
			t.Errorf("%s at the reference level: %s = %d, want 0", what, name, n)
		}
	}
}

// levelSweep is every quick experiment rendered at one check level,
// plus the cached vanilla and OPEC run of each workload.
type levelSweep struct {
	checks mach.Checks
	tables []sweptTable
	runs   []sweptRun
}

type sweptTable struct{ name, text string }

type sweptRun struct {
	name   string
	opec   bool
	cycles uint64
	m      *mach.Machine
}

var (
	sweepOnce [3]sync.Once
	sweeps    [3]*levelSweep
	sweepErrs [3]error
)

// sweepAt returns the quick sweep at check level c, made once per test
// process: the tests that compare two levels share each level's sweep.
func sweepAt(t *testing.T, c mach.Checks) *levelSweep {
	t.Helper()
	sweepOnce[c].Do(func() { sweeps[c], sweepErrs[c] = runSweep(c) })
	if sweepErrs[c] != nil {
		t.Fatalf("%s sweep: %v", c, sweepErrs[c])
	}
	return sweeps[c]
}

// runSweep renders every experiment with one shared harness at check
// level c.
func runSweep(c mach.Checks) (*levelSweep, error) {
	h := NewHarness(1)
	h.checks = c
	s := &levelSweep{checks: c}

	t1, err := h.Table1(Quick)
	if err != nil {
		return nil, err
	}
	f9, err := h.Figure9(Quick)
	if err != nil {
		return nil, err
	}
	t2, err := h.Table2(Quick)
	if err != nil {
		return nil, err
	}
	f10, err := h.Figure10(Quick)
	if err != nil {
		return nil, err
	}
	f11, err := h.Figure11(Quick)
	if err != nil {
		return nil, err
	}
	t3, err := h.Table3(Quick)
	if err != nil {
		return nil, err
	}
	s.tables = []sweptTable{
		{"Table 1", RenderTable1(t1)},
		{"Figure 9", RenderFigure9(f9)},
		{"Table 2", RenderTable2(t2)},
		{"Figure 10", RenderFigure10(f10)},
		{"Figure 11", RenderFigure11(f11)},
		{"Table 3", RenderTable3(t3)},
	}

	for _, app := range h.appsFor(Quick) {
		van, err := h.Cache.VanillaRun(app, Quick)
		if err != nil {
			return nil, err
		}
		op, err := h.Cache.OPECRun(app, Quick)
		if err != nil {
			return nil, err
		}
		s.runs = append(s.runs,
			sweptRun{app.Name + "/vanilla", false, van.Cycles, van.Machine},
			sweptRun{app.Name + "/opec", true, op.Cycles, op.Machine})
	}
	return s, nil
}

// checkApplied fails t unless every run of the sweep shows its level.
func (s *levelSweep) checkApplied(t *testing.T) {
	t.Helper()
	if len(s.runs) == 0 {
		t.Fatalf("%s sweep made no runs", s.checks)
	}
	for _, r := range s.runs {
		checkLevelApplied(t, s.checks, r.name, r.m, r.opec)
	}
}

// compareSweeps requires the quick sweeps at levels a and b to render
// every experiment to the same bytes and to end every vanilla and OPEC
// run on the same cycle, and each sweep's counters to show its level.
func compareSweeps(t *testing.T, a, b mach.Checks) {
	t.Helper()
	sa, sb := sweepAt(t, a), sweepAt(t, b)
	sa.checkApplied(t)
	sb.checkApplied(t)
	for i, ta := range sa.tables {
		if tb := sb.tables[i]; ta.text != tb.text {
			t.Errorf("%s differs:\n--- %s ---\n%s\n--- %s ---\n%s", ta.name, a, ta.text, b, tb.text)
		}
	}
	for i, ra := range sa.runs {
		if rb := sb.runs[i]; ra.cycles != rb.cycles {
			t.Errorf("%s: final cycles = %d %s vs %d %s", ra.name, ra.cycles, a, rb.cycles, b)
		}
	}
}

// TestCacheTransparency is the acceptance check for the simulator's
// lookup caches (MPU micro-TLB, bus last-device cache). Paranoid and
// reference machines both adjudicate every access through the MPU; only
// the paranoid one has the caches on. Every rendered table and every
// run's final cycle count must match: caches may buy wall-clock time
// only, never architected behavior.
func TestCacheTransparency(t *testing.T) {
	t.Parallel()
	compareSweeps(t, mach.CheckParanoid, mach.CheckReference)
}

// TestProofTransparency is the acceptance check for proof-guided
// MPU-check elision. Fast and paranoid machines have the same caches;
// the fast one skips the check on every certified access, the paranoid
// one takes the checked path for it. Every rendered table and every
// run's final cycle count must match: proofs may buy wall-clock time
// only, never architected behavior.
func TestProofTransparency(t *testing.T) {
	t.Parallel()
	compareSweeps(t, mach.CheckFast, mach.CheckParanoid)
}

// TestProofParanoidSweep runs the sweep with every elided access
// re-adjudicated through the full protection check: any disagreement
// between a static certificate and the dynamic verdict panics inside the
// interpreter and fails the sweep — the differential soundness check
// for the proof engine, across every workload and scheme the harness
// exercises. Every OPEC run must have re-checked some elided access.
func TestProofParanoidSweep(t *testing.T) {
	t.Parallel()
	sweepAt(t, mach.CheckParanoid).checkApplied(t)
}

// TestRenderedTablesBackendIdentity renders every experiment on fast
// machines, which take every shortcut, and on reference machines, which
// take none, and requires each table byte-identical. The tables embed
// absolute cycle counts, so this pins that the shortcuts together move
// no timing.
func TestRenderedTablesBackendIdentity(t *testing.T) {
	t.Parallel()
	compareSweeps(t, mach.CheckFast, mach.CheckReference)
}
