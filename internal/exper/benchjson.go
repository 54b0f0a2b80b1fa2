package exper

import (
	"encoding/json"
	"fmt"
	"time"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/inject"
	"opec/internal/monitor"
	"opec/internal/run"
)

// This file produces the machine-readable simulator-throughput baseline
// (BENCH_mach.json). The report has two halves: per-workload simulated
// instruction throughput (one fresh, timed run per app × scheme, so no
// memoized result hides the simulator cost), and wall-clock timings for
// each experiment of a shared-harness sweep. Later PRs regenerate the
// file and compare against the committed baseline to keep the perf
// trajectory visible.

// BenchSchema identifies the report format; bump on breaking changes.
// v2 added the recovery section (restart latency per workload); v3 the
// profile section (per-workload cycle attribution + counter snapshot);
// v4 the proof section (static proof coverage + simulator throughput
// with and without proof-guided MPU-check elision); v5 the snapshot
// section (checkpoint-restore latency and fork-vs-boot campaign
// throughput); v6 the backend section (threaded-code translation vs
// interpreter A/B on the dispatch-bound sweep and every workload); v7
// the fuzz section (coverage-guided campaign throughput plus the
// guided-vs-random unique-edge inequality); v8 drops the backend
// section with the translation engine it measured (DESIGN.md §12); v9
// drops the proof section's single-sample elision throughput pair,
// keeping its coverage columns.
const BenchSchema = "opec-bench/mach/v9"

// BenchSchemes is the fixed execution-scheme order of the report.
var BenchSchemes = []string{"vanilla", "opec", "aces"}

// benchExperimentNames is the fixed harness-sweep order.
var benchExperimentNames = []string{"table1", "figure9", "table2", "figure10", "figure11", "table3", "profile"}

// BenchWorkload is one timed run of one app under one scheme.
type BenchWorkload struct {
	App         string  `json:"app"`
	Scheme      string  `json:"scheme"`
	Instrs      uint64  `json:"instrs"`
	Cycles      uint64  `json:"cycles"`
	WallSeconds float64 `json:"wall_seconds"`
	SimMIPS     float64 `json:"sim_mips"` // simulated instructions / wall second / 1e6
}

// BenchExperiment is the wall-clock cost of one experiment in a
// shared-harness sweep (cache-warm ordering matches opec-bench -exp all).
type BenchExperiment struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
}

// BenchRecovery is the restart-latency measurement of one workload:
// the first planned rogue store from a non-default operation, replayed
// under the RestartOperation policy, with the monitor's modeled restart
// cost. Workloads whose trial catalogue has no restartable rogue store
// have no entry.
type BenchRecovery struct {
	App  string `json:"app"`
	Spec string `json:"spec"` // the replayable trial measured
	// Restarts is the number of operation restarts the trial caused.
	Restarts uint64 `json:"restarts"`
	// RestartCycles is the total modeled cycles spent re-initializing
	// (backoff + data/stack/relocation restoration + MPU reload).
	RestartCycles uint64 `json:"restart_cycles"`
	// CyclesPerRestart is RestartCycles / Restarts.
	CyclesPerRestart float64 `json:"cycles_per_restart"`
}

// BenchProof is one workload's proof-engine summary: the static proof
// coverage of its OPEC build.
type BenchProof struct {
	App         string  `json:"app"`
	Static      int     `json:"static_accesses"`
	Proven      int     `json:"proven"`
	Rejected    int     `json:"rejected"`
	CoveragePct float64 `json:"coverage_pct"`
}

// BenchSnapshot is the fork-engine measurement (schema v5): the same
// seeded quick-sweep campaign run on the power-on engine and on the
// boot-once/fork-many engine, with the byte-identity differential and
// the isolated checkpoint-restore latency. The campaign always runs at
// quick scale — the section measures the engine, not the workloads.
type BenchSnapshot struct {
	// Workloads/Trials size the measured campaign (rows × trial lists).
	Workloads int `json:"workloads"`
	Trials    int `json:"trials"`
	// ForkMicros is the mean wall-clock cost of one checkpoint restore
	// (Forge.Reset), timed in isolation on the first quick workload.
	ForkMicros float64 `json:"fork_micros"`
	// Boot/Fork wall times and trial throughputs for the whole campaign,
	// planning included, at the report's parallelism.
	BootWallSeconds  float64 `json:"boot_wall_seconds"`
	ForkWallSeconds  float64 `json:"fork_wall_seconds"`
	BootTrialsPerSec float64 `json:"boot_trials_per_sec"`
	ForkTrialsPerSec float64 `json:"fork_trials_per_sec"`
	// Speedup is ForkTrialsPerSec / BootTrialsPerSec; the acceptance
	// floor is 10×.
	Speedup float64 `json:"speedup"`
	// Identical reports the correctness differential: both engines
	// rendered byte-identical verdict tables and agreed on every
	// trial's verdict, error text, cycle count and recovery counters.
	Identical bool `json:"identical"`
}

// BenchFuzz is the adversarial-fuzzing section (schema v7): the
// standard-shape campaign (FuzzSeed, FuzzBudget) against the quick
// frame-queue workload, run guided and as the random ablation.
// Campaigns are deterministic, so the recorded unique-edge counts are
// facts of the (seed, budget) pair; only WallSeconds and InputsPerSec
// vary between regenerations.
type BenchFuzz struct {
	App    string `json:"app"`
	Seed   int64  `json:"seed"`
	Inputs int    `json:"inputs"` // per campaign (guided and random alike)
	// WallSeconds / InputsPerSec time the guided campaign, boot and
	// calibration included, at the report's parallelism.
	WallSeconds  float64 `json:"wall_seconds"`
	InputsPerSec float64 `json:"inputs_per_sec"`
	// UniqueEdgesGuided must exceed UniqueEdgesRandom — the
	// coverage-feedback acceptance inequality; EdgeRatio is their
	// quotient.
	UniqueEdgesGuided int     `json:"unique_edges_guided"`
	UniqueEdgesRandom int     `json:"unique_edges_random"`
	EdgeRatio         float64 `json:"edge_ratio"`
	// CorpusFrames/CorpusGates size the guided corpus after the run.
	CorpusFrames int `json:"corpus_frames"`
	CorpusGates  int `json:"corpus_gates"`
	// Findings counts the guided campaign's non-clean trials; Escapes
	// totals isolation escapes across both campaigns and must be zero.
	Findings int `json:"findings"`
	Escapes  int `json:"escapes"`
}

// BenchReport is the top-level BENCH_mach.json document.
type BenchReport struct {
	Schema      string            `json:"schema"`
	Scale       string            `json:"scale"`
	Parallel    int               `json:"parallel"`
	Workloads   []BenchWorkload   `json:"workloads"`
	Experiments []BenchExperiment `json:"experiments"`
	Recovery    []BenchRecovery   `json:"recovery"`
	// Profile is the per-workload attribution summary (the same rows
	// `opec-bench -exp profile` renders), with each run's unified
	// counter snapshot.
	Profile []ProfileRow `json:"profile"`
	// Proof is the per-workload proof-coverage section (schema v4).
	Proof []BenchProof `json:"proof"`
	// Snapshot is the fork-engine latency/throughput/differential
	// section (schema v5).
	Snapshot *BenchSnapshot `json:"snapshot"`
	// Fuzz is the adversarial-fuzzing section (schema v7).
	Fuzz *BenchFuzz `json:"fuzz"`
}

// CollectBench measures simulator throughput at scale s. Workload runs
// execute serially (each is individually timed); the experiment sweep
// uses a harness with the given parallelism, mirroring a normal
// opec-bench invocation.
func CollectBench(s AppSet, parallel int) (*BenchReport, error) {
	rep := &BenchReport{Schema: BenchSchema, Scale: scaleName(s), Parallel: parallel}

	acesSet := make(map[string]bool)
	for _, app := range acesApps(AppsFor(s)) {
		acesSet[app.Name] = true
	}
	for _, app := range AppsFor(s) {
		for _, scheme := range BenchSchemes {
			if scheme == "aces" && !acesSet[app.Name] {
				continue // ACES runs only the five comparison workloads
			}
			w, err := benchOne(app.Name, scheme, func() (*run.Result, error) {
				inst := app.New()
				switch scheme {
				case "vanilla":
					return run.Vanilla(inst)
				case "opec":
					return run.OPEC(inst)
				default:
					return run.ACES(inst, aces.Filename)
				}
			})
			if err != nil {
				return nil, fmt.Errorf("bench %s/%s: %w", app.Name, scheme, err)
			}
			rep.Workloads = append(rep.Workloads, w)
		}
	}

	h := NewHarness(parallel)
	for _, name := range benchExperimentNames {
		start := time.Now()
		var err error
		switch name {
		case "table1":
			_, err = h.Table1(s)
		case "figure9":
			_, err = h.Figure9(s)
		case "table2":
			_, err = h.Table2(s)
		case "figure10":
			_, err = h.Figure10(s)
		case "figure11":
			_, err = h.Figure11(s)
		case "table3":
			_, err = h.Table3(s)
		case "profile":
			rep.Profile, err = h.Profile(s)
		}
		if err != nil {
			return nil, fmt.Errorf("bench experiment %s: %w", name, err)
		}
		rep.Experiments = append(rep.Experiments, BenchExperiment{
			Name:        name,
			WallSeconds: time.Since(start).Seconds(),
		})
	}

	for _, app := range AppsFor(s) {
		rec, ok, err := measureRecovery(app)
		if err != nil {
			return nil, fmt.Errorf("bench recovery %s: %w", app.Name, err)
		}
		if ok {
			rep.Recovery = append(rep.Recovery, rec)
		}
	}

	for _, app := range AppsFor(s) {
		pr, err := measureProof(app)
		if err != nil {
			return nil, fmt.Errorf("bench proof %s: %w", app.Name, err)
		}
		rep.Proof = append(rep.Proof, pr)
	}

	snap, err := measureSnapshot(parallel)
	if err != nil {
		return nil, fmt.Errorf("bench snapshot: %w", err)
	}
	rep.Snapshot = &snap

	fz, err := measureFuzz(parallel)
	if err != nil {
		return nil, fmt.Errorf("bench fuzz: %w", err)
	}
	rep.Fuzz = &fz
	return rep, nil
}

// measureFuzz runs the standard-shape fuzzing campaign twice — guided,
// then the random ablation — on the quick frame-queue workload, timing
// the guided leg for throughput. Like the snapshot section, it always
// runs at quick scale: the section measures the engine. The strict
// guided>random inequality is validated by ValidateBenchReport, so a
// baseline can only regenerate while coverage feedback still earns its
// keep.
func measureFuzz(parallel int) (BenchFuzz, error) {
	h := NewHarness(parallel)
	pol := monitor.Policy{}
	start := time.Now()
	guided, err := h.Fuzz(Quick, FuzzSeed, FuzzBudget, false, pol)
	if err != nil {
		return BenchFuzz{}, err
	}
	wall := time.Since(start).Seconds()
	random, err := h.Fuzz(Quick, FuzzSeed, FuzzBudget, true, pol)
	if err != nil {
		return BenchFuzz{}, err
	}
	f := BenchFuzz{
		App: guided.App, Seed: guided.Seed, Inputs: guided.Inputs,
		WallSeconds:       wall,
		UniqueEdgesGuided: guided.UniqueEdges,
		UniqueEdgesRandom: random.UniqueEdges,
		CorpusFrames:      guided.CorpusFrames,
		CorpusGates:       guided.CorpusGates,
		Findings:          guided.TotalFindings,
		Escapes:           guided.Escapes() + random.Escapes(),
	}
	if wall > 0 {
		f.InputsPerSec = float64(guided.Inputs) / wall
	}
	if random.UniqueEdges > 0 {
		f.EdgeRatio = float64(guided.UniqueEdges) / float64(random.UniqueEdges)
	}
	return f, nil
}

// snapshotSweepConfig shapes the snapshot section's quick sweep: a
// dense malformed-gate fuzz of every workload's supervisor-call
// surface. Gate trials fire at the first entry of main and die inside
// the gate check, so per-trial cost is dominated by what the engines
// differ on — power-on reconstruction versus checkpoint restore — and
// the recorded speedup measures the engine, not the simulator. (On the
// mixed default campaign the simulated post-injection run dominates
// both engines equally; see DESIGN.md §11.) This is also the
// fuzzing-shaped workload the fork engine exists for: high volumes of
// short adversarial trials against the gate/parser surface. (The
// planner has no all-gate shape — a zero victim cap means "all", so
// gateOnly prunes the planned rows down to their gate trials.)
var snapshotSweepConfig = inject.Config{
	Seed: benchRecoverySeed, VictimsPerOp: 1, PeriphsPerOp: 1, GateTrials: 160,
}

// gateOnly restricts every planned row to its forged-SVC gate trials
// (the garbage-argument variant is dropped too: a sanitizer that lets
// garbage through runs a full session, which measures the simulator
// rather than the engine).
func gateOnly(plans []*rowPlan) {
	for _, p := range plans {
		var specs []inject.Spec
		for _, sp := range p.specs {
			if sp.Kind == inject.BadGate && len(sp.Args) == 0 {
				specs = append(specs, sp)
			}
		}
		p.specs = specs
		p.row.Trials = len(specs)
	}
}

// measureSnapshot runs the gate-fuzz quick sweep on both trial engines
// and compares them: wall-clock throughput for the headline speedup
// and the full per-trial differential for the Identical flag. Planning
// (which memoizes each workload's compile and clean-run budget in the
// shared cache) happens once, untimed — the walls cover exactly the
// trial execution the engines disagree on.
func measureSnapshot(parallel int) (BenchSnapshot, error) {
	pol := monitor.Policy{}
	h := NewHarness(parallel)

	bootPlans, err := h.planInject(Quick, snapshotSweepConfig, pol)
	if err != nil {
		return BenchSnapshot{}, err
	}
	gateOnly(bootPlans)
	start := time.Now()
	if err := h.runInject(bootPlans, pol, EngineBoot); err != nil {
		return BenchSnapshot{}, err
	}
	bootWall := time.Since(start).Seconds()
	boot := aggregateInject(bootPlans)

	forkPlans, err := h.planInject(Quick, snapshotSweepConfig, pol)
	if err != nil {
		return BenchSnapshot{}, err
	}
	gateOnly(forkPlans)
	start = time.Now()
	if err := h.runInject(forkPlans, pol, EngineFork); err != nil {
		return BenchSnapshot{}, err
	}
	forkWall := time.Since(start).Seconds()
	fork := aggregateInject(forkPlans)

	sn := BenchSnapshot{
		Workloads:       len(fork),
		BootWallSeconds: bootWall,
		ForkWallSeconds: forkWall,
		Identical:       InjectRunsIdentical(boot, fork),
	}
	for _, r := range fork {
		sn.Trials += r.Trials
	}
	if bootWall > 0 {
		sn.BootTrialsPerSec = float64(sn.Trials) / bootWall
	}
	if forkWall > 0 {
		sn.ForkTrialsPerSec = float64(sn.Trials) / forkWall
	}
	if sn.BootTrialsPerSec > 0 {
		sn.Speedup = sn.ForkTrialsPerSec / sn.BootTrialsPerSec
	}

	// Isolated checkpoint-restore latency on the first quick workload.
	forge, err := inject.NewForge(AppsFor(Quick)[0])
	if err != nil {
		return BenchSnapshot{}, err
	}
	const resets = 100
	start = time.Now()
	for i := 0; i < resets; i++ {
		if err := forge.Reset(); err != nil {
			return BenchSnapshot{}, err
		}
	}
	sn.ForkMicros = time.Since(start).Seconds() / resets * 1e6
	return sn, nil
}

// InjectRunsIdentical is the fork-vs-boot differential: byte-identical
// rendered tables and per-trial agreement on verdict, error text,
// cycles and recovery counters. The bench snapshot section and
// opec-bench's -inject-engine diff mode both gate on it.
func InjectRunsIdentical(boot, fork []InjectRow) bool {
	if RenderInject(boot) != RenderInject(fork) || len(boot) != len(fork) {
		return false
	}
	for i := range fork {
		fr, br := fork[i], boot[i]
		if len(fr.Outcomes) != len(br.Outcomes) {
			return false
		}
		for k := range fr.Outcomes {
			fo, bo := fr.Outcomes[k], br.Outcomes[k]
			if fo.Verdict != bo.Verdict || fo.Err != bo.Err || fo.Cycles != bo.Cycles ||
				fo.Restarts != bo.Restarts || fo.Quarantines != bo.Quarantines ||
				fo.RestartCycles != bo.RestartCycles {
				return false
			}
		}
	}
	return true
}

// measureProof collects one workload's proof-coverage summary.
func measureProof(app *apps.App) (BenchProof, error) {
	inst := app.New()
	b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
	if err != nil {
		return BenchProof{}, err
	}
	pr := BenchProof{App: app.Name}
	if p := b.Proofs; p != nil {
		pr.Static, pr.Proven, pr.Rejected = p.Static(), p.Proven(), p.Rejected()
		if pr.Static > 0 {
			pr.CoveragePct = 100 * float64(pr.Proven) / float64(pr.Static)
		}
	}
	return pr, nil
}

// benchRecoverySeed fixes the trial catalogue the recovery measurements
// draw from, so the measured spec is stable across regenerations.
const benchRecoverySeed = 1

// measureRecovery times one operation restart on app: the first planned
// rogue store from a non-default operation is contained by the MPU,
// RestartOperation re-initializes the operation, and the monitor's
// restart cycle counter is the latency. ok is false when the workload
// plans no such trial or the trial never reached its trigger.
func measureRecovery(app *apps.App) (BenchRecovery, bool, error) {
	inst := app.New()
	b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
	if err != nil {
		return BenchRecovery{}, false, err
	}
	var spec inject.Spec
	found := false
	for _, sp := range inject.Plan(b, inst.Devices, inject.DefaultConfig(benchRecoverySeed)) {
		if sp.Kind == inject.RogueStore && sp.Func != "main" {
			spec, found = sp, true
			break
		}
	}
	if !found {
		return BenchRecovery{}, false, nil
	}
	out, err := inject.RunOPEC(app, spec, monitor.Policy{Kind: monitor.RestartOperation}, 0)
	if err != nil {
		return BenchRecovery{}, false, err
	}
	if out.Restarts == 0 || out.RestartCycles == 0 {
		return BenchRecovery{}, false, nil
	}
	return BenchRecovery{
		App:              app.Name,
		Spec:             spec.String(),
		Restarts:         out.Restarts,
		RestartCycles:    out.RestartCycles,
		CyclesPerRestart: float64(out.RestartCycles) / float64(out.Restarts),
	}, true, nil
}

// benchOne times a single fresh run and derives throughput.
func benchOne(app, scheme string, do func() (*run.Result, error)) (BenchWorkload, error) {
	start := time.Now()
	res, err := do()
	wall := time.Since(start).Seconds()
	if err != nil {
		return BenchWorkload{}, err
	}
	w := BenchWorkload{
		App:         app,
		Scheme:      scheme,
		Instrs:      res.Machine.InstrCount,
		Cycles:      res.Cycles,
		WallSeconds: wall,
	}
	if wall > 0 {
		w.SimMIPS = float64(w.Instrs) / wall / 1e6
	}
	return w, nil
}

func scaleName(s AppSet) string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// MarshalBenchReport renders the report as stable, indented JSON.
func MarshalBenchReport(rep *BenchReport) ([]byte, error) {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ValidateBenchReport parses data and checks it is a complete report:
// correct schema, every workload of its recorded scale present under
// every applicable scheme with positive throughput, and every
// experiment timed. opec-bench -validate and CI call this.
func ValidateBenchReport(data []byte) (*BenchReport, error) {
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench report: %w", err)
	}
	if rep.Schema != BenchSchema {
		return nil, fmt.Errorf("bench report: schema %q, want %q", rep.Schema, BenchSchema)
	}
	var scale AppSet
	switch rep.Scale {
	case "full":
		scale = Full
	case "quick":
		scale = Quick
	default:
		return nil, fmt.Errorf("bench report: unknown scale %q", rep.Scale)
	}

	have := make(map[string]BenchWorkload, len(rep.Workloads))
	for _, w := range rep.Workloads {
		have[w.App+"/"+w.Scheme] = w
	}
	acesSet := make(map[string]bool)
	for _, app := range acesApps(AppsFor(scale)) {
		acesSet[app.Name] = true
	}
	for _, app := range AppsFor(scale) {
		for _, scheme := range BenchSchemes {
			if scheme == "aces" && !acesSet[app.Name] {
				continue
			}
			w, ok := have[app.Name+"/"+scheme]
			if !ok {
				return nil, fmt.Errorf("bench report: missing workload %s/%s", app.Name, scheme)
			}
			if w.Instrs == 0 || w.Cycles == 0 || w.SimMIPS <= 0 {
				return nil, fmt.Errorf("bench report: degenerate workload %s/%s: %+v", app.Name, scheme, w)
			}
		}
	}

	haveExp := make(map[string]bool, len(rep.Experiments))
	for _, e := range rep.Experiments {
		haveExp[e.Name] = true
	}
	for _, name := range benchExperimentNames {
		if !haveExp[name] {
			return nil, fmt.Errorf("bench report: missing experiment timing %q", name)
		}
	}

	// Profile section: one attribution row per workload of the scale,
	// with live event streams, a unified counter snapshot, and a switch
	// cost per activation matching the monitor's modeled gate round-trip
	// within 5% (the attribution-consistency acceptance check).
	haveProf := make(map[string]ProfileRow, len(rep.Profile))
	for _, p := range rep.Profile {
		haveProf[p.App] = p
	}
	for _, app := range AppsFor(scale) {
		p, ok := haveProf[app.Name]
		if !ok {
			return nil, fmt.Errorf("bench report: missing profile row for %s", app.Name)
		}
		if p.Cycles == 0 || p.Events == 0 || len(p.Counters) == 0 {
			return nil, fmt.Errorf("bench report: degenerate profile row %s: %+v", app.Name, p)
		}
		if p.Activations > 0 {
			model := float64(monitor.ModeledSwitchCycles)
			if p.SwitchPerActivation < 0.95*model || p.SwitchPerActivation > 1.05*model {
				return nil, fmt.Errorf("bench report: profile %s: switch cycles/activation %.1f outside 5%% of modeled %d",
					app.Name, p.SwitchPerActivation, monitor.ModeledSwitchCycles)
			}
		}
	}

	// Proof section (v4): one row per workload with a sane coverage
	// figure. The proof engine's acceptance floor — coverage of at least half
	// the static accesses on at least five workloads — is enforced here
	// so a precision regression cannot regenerate a valid baseline.
	haveProof := make(map[string]BenchProof, len(rep.Proof))
	for _, p := range rep.Proof {
		haveProof[p.App] = p
	}
	covered := 0
	for _, app := range AppsFor(scale) {
		p, ok := haveProof[app.Name]
		if !ok {
			return nil, fmt.Errorf("bench report: missing proof row for %s", app.Name)
		}
		if p.Static <= 0 || p.Proven <= 0 || p.CoveragePct <= 0 || p.CoveragePct > 100 {
			return nil, fmt.Errorf("bench report: degenerate proof row %s: %+v", app.Name, p)
		}
		if p.Rejected != 0 {
			return nil, fmt.Errorf("bench report: proof row %s has %d rejected accesses — the build should not have compiled", app.Name, p.Rejected)
		}
		if p.CoveragePct >= 50 {
			covered++
		}
	}
	if n := len(AppsFor(scale)); n >= 5 && covered < 5 {
		return nil, fmt.Errorf("bench report: proof coverage >= 50%% on %d of %d workloads, want >= 5", covered, n)
	}

	// Snapshot section (v5): the fork engine must have run the quick
	// campaign, matched the power-on engine byte for byte, and cleared
	// the 10× throughput floor.
	if rep.Snapshot == nil {
		return nil, fmt.Errorf("bench report: missing snapshot section")
	}
	sn := rep.Snapshot
	if sn.Workloads <= 0 || sn.Trials <= 0 || sn.ForkMicros <= 0 ||
		sn.BootWallSeconds <= 0 || sn.ForkWallSeconds <= 0 ||
		sn.BootTrialsPerSec <= 0 || sn.ForkTrialsPerSec <= 0 {
		return nil, fmt.Errorf("bench report: degenerate snapshot section: %+v", sn)
	}
	if !sn.Identical {
		return nil, fmt.Errorf("bench report: fork engine diverged from the power-on engine")
	}
	if sn.Speedup < 10 {
		return nil, fmt.Errorf("bench report: fork-engine speedup %.1fx below the 10x floor", sn.Speedup)
	}

	// Fuzz section (v7): the guided campaign must have run the standard
	// shape with sane throughput, beaten the random ablation on unique
	// edges (strictly — the coverage-feedback acceptance inequality),
	// and contained every input.
	if rep.Fuzz == nil {
		return nil, fmt.Errorf("bench report: missing fuzz section")
	}
	fz := rep.Fuzz
	if fz.App == "" || fz.Inputs <= 0 || fz.WallSeconds <= 0 || fz.InputsPerSec <= 0 ||
		fz.UniqueEdgesGuided <= 0 || fz.UniqueEdgesRandom <= 0 || fz.Findings <= 0 {
		return nil, fmt.Errorf("bench report: degenerate fuzz section: %+v", fz)
	}
	if fz.UniqueEdgesGuided <= fz.UniqueEdgesRandom {
		return nil, fmt.Errorf("bench report: guided fuzzing found %d unique edges, random ablation %d — coverage feedback bought nothing",
			fz.UniqueEdgesGuided, fz.UniqueEdgesRandom)
	}
	if fz.Escapes != 0 {
		return nil, fmt.Errorf("bench report: fuzz campaigns recorded %d isolation escapes", fz.Escapes)
	}

	// Recovery section: at least two workloads must demonstrate a
	// measured restart (the recovery policies' acceptance floor), every
	// entry must name a workload of the scale, replay as a valid spec,
	// and carry a positive latency.
	if len(rep.Recovery) < 2 {
		return nil, fmt.Errorf("bench report: recovery section has %d workloads, want >= 2", len(rep.Recovery))
	}
	knownApp := make(map[string]bool)
	for _, app := range AppsFor(scale) {
		knownApp[app.Name] = true
	}
	for _, r := range rep.Recovery {
		if !knownApp[r.App] {
			return nil, fmt.Errorf("bench report: recovery entry for unknown workload %q", r.App)
		}
		if _, err := inject.ParseSpec(r.Spec); err != nil {
			return nil, fmt.Errorf("bench report: recovery %s: %w", r.App, err)
		}
		if r.Restarts == 0 || r.RestartCycles == 0 || r.CyclesPerRestart <= 0 {
			return nil, fmt.Errorf("bench report: degenerate recovery entry %s: %+v", r.App, r)
		}
	}
	return &rep, nil
}
