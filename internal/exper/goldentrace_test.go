package exper

import (
	"strings"
	"testing"

	"opec/internal/apps"
	"opec/internal/inject"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/trace"
)

// keyOverwriteSpec is the §6.1 case study as a replayable trial: on
// Lock_Task's first entry, a rogue store of 0xEE into KEY.
var keyOverwriteSpec = inject.Spec{
	Kind: inject.RogueStore, Func: "Lock_Task", N: 1,
	Target: "KEY", Value: 0xEE,
}

// traceKeyOverwrite replays the exploit on a fresh forge at check level
// c under the restart policy with a trace attached, checks the level
// applied, and returns the deterministic text render.
func traceKeyOverwrite(t *testing.T, c mach.Checks) string {
	t.Helper()
	forge, err := inject.NewForge(apps.PinLockN(1).WithChecks(c))
	if err != nil {
		t.Fatal(err)
	}
	buf := trace.NewBuffer(0)
	var m *mach.Machine
	out, err := forge.ObservedRun(keyOverwriteSpec, monitor.Policy{Kind: monitor.RestartOperation}, 0, buf, false,
		func(fm *mach.Machine) { m = fm })
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict != inject.Recovered {
		t.Fatalf("exploit verdict = %v, want %v", out.Verdict, inject.Recovered)
	}
	checkLevelApplied(t, c, "the KEY overwrite", m, false)
	return buf.RenderText()
}

// TestGoldenKeyOverwriteTrace pins the event sequence of the paper's
// KEY-overwrite exploit: the gate enters Lock_Task, the MPU raises a
// MemManage write fault on KEY's public original, and the policy
// restarts the operation — in that order, byte-identically across
// repeated runs and on a reference machine, without lookup caches
// (extending the cache-transparency invariant to the event trace).
func TestGoldenKeyOverwriteTrace(t *testing.T) {
	t.Parallel()
	golden := traceKeyOverwrite(t, mach.CheckFast)

	// Ordered containment chain: gate enter → MemManage fault → restart.
	// Each link is anchored after the previous one; boot-time emulation
	// faults (PPB accesses) precede the gate and must not satisfy the
	// chain.
	gate := strings.Index(golden, "gate-enter    gate=Lock_Task")
	if gate < 0 {
		t.Fatalf("no Lock_Task gate entry in trace:\n%s", golden)
	}
	fault := strings.Index(golden[gate:], "fault         kind=0 write")
	if fault < 0 {
		t.Fatalf("no MemManage write fault after the Lock_Task gate:\n%s", golden)
	}
	fault += gate
	recovery := strings.Index(golden[fault:], "recovery      restart attempt=1")
	if recovery < 0 {
		t.Fatalf("no restart recovery after the fault:\n%s", golden)
	}

	if again := traceKeyOverwrite(t, mach.CheckFast); again != golden {
		t.Error("trace differs between identical runs")
	}
	if ref := traceKeyOverwrite(t, mach.CheckReference); ref != golden {
		t.Error("trace differs on a reference machine: the lookup caches are not transparent to events")
	}
}

// TestGoldenKeyOverwriteTraceOnReusedForge extends the golden-trace
// invariant to a reused forge: after its machine has run other trials —
// a coverage-traced one among them, as fuzzing runs, and clean ones
// that consume certificates — the §6.1 exploit's full event stream must
// render byte-identically to a fresh forge's. Each fork-restore must
// rewind everything the stream shows.
func TestGoldenKeyOverwriteTraceOnReusedForge(t *testing.T) {
	golden := traceKeyOverwrite(t, mach.CheckFast)
	forge, err := inject.NewForge(apps.PinLockN(1))
	if err != nil {
		t.Fatal(err)
	}
	pol := monitor.Policy{Kind: monitor.RestartOperation}
	plan := inject.Plan(forge.Build(), forge.Instance().Devices, inject.DefaultConfig(1))
	if len(plan) > 6 {
		plan = plan[:6]
	}
	for i := range plan {
		if _, err := forge.TraceRun(plan[i], pol, 0, trace.NewBuffer(256), i == 0); err != nil {
			t.Fatal(err)
		}
		if _, err := forge.Trial(nil, pol, 0, nil, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	buf := trace.NewBuffer(0)
	out, err := forge.TraceRun(keyOverwriteSpec, pol, 0, buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict != inject.Recovered {
		t.Fatalf("exploit verdict on the reused forge = %v, want %v", out.Verdict, inject.Recovered)
	}
	if reused := buf.RenderText(); reused != golden {
		t.Errorf("golden trace differs on a reused forge:\n--- fresh ---\n%s--- reused ---\n%s", golden, reused)
	}
}

// TestProfileParallelismInvariant renders the profiling experiment at
// two harness parallelism levels; like every other rendered table, the
// output must be byte-identical.
func TestProfileParallelismInvariant(t *testing.T) {
	serial, err := NewHarness(1).Profile(Quick)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewHarness(4).Profile(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := RenderProfile(serial), RenderProfile(wide); a != b {
		t.Errorf("profile render differs across parallelism:\n--- parallel=1 ---\n%s\n--- parallel=4 ---\n%s", a, b)
	}
}
