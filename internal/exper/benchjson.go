package exper

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/inject"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/run"
)

// This file produces the repository's exact performance ledger
// (BENCH_mach.json). Every figure in it is a deterministic fact of the
// source tree — instruction and cycle counts, fast-forward counters,
// modeled restart latency, monitor attribution, proof coverage,
// fork-vs-boot identity and fuzz coverage — so a regeneration is
// byte-identical at any parallelism, and CI diffs one against the
// committed file. Host time is measured by layerbench, in repeated CPU
// samples, not here.

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
// keeping its coverage columns; v10 keeps only deterministic figures:
// it drops every wall time, throughput, speedup, the parallelism and
// the experiment timings, and adds each run's fast-forward counters.
const BenchSchema = "opec-bench/mach/v10"

// BenchWorkload is one app × scheme run's exact figures, read from the
// harness cache's memoized, checked run; scheme "aces" is ACES1
// (aces.Filename). A workload that stops
// skipping its poll loops keeps every cycle count, so only the
// fast-forward columns show it.
type BenchWorkload struct {
	App             string `json:"app"`
	Scheme          string `json:"scheme"`
	Instrs          uint64 `json:"instrs"`
	Cycles          uint64 `json:"cycles"`
	FFEpisodes      uint64 `json:"ff_episodes"`       // mach.ff.episodes
	FFSkippedInstrs uint64 `json:"ff_skipped_instrs"` // mach.ff.skipped_instrs
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

// BenchSnapshot is the fork-engine differential: the same seeded
// quick-scale gate-fuzz campaign run on the power-on engine and on the
// boot-once/fork-many engine. The campaign always runs at quick scale —
// the section measures the engine, not the workloads.
type BenchSnapshot struct {
	// Workloads/Trials size the campaign (rows × trial lists).
	Workloads int `json:"workloads"`
	Trials    int `json:"trials"`
	// Identical reports that both engines rendered byte-identical
	// verdict tables and agreed on every trial's verdict, error text,
	// cycle count and recovery counters.
	Identical bool `json:"identical"`
}

// BenchFuzz is the adversarial-fuzzing section: the standard-shape
// campaign (FuzzSeed, FuzzBudget) against the quick frame-queue
// workload, run guided and as the random ablation. Campaigns are
// deterministic, so every figure is a fact of the (seed, budget) pair.
type BenchFuzz struct {
	App    string `json:"app"`
	Seed   int64  `json:"seed"`
	Inputs int    `json:"inputs"` // per campaign (guided and random alike)
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
	Schema    string          `json:"schema"`
	Scale     string          `json:"scale"`
	Workloads []BenchWorkload `json:"workloads"`
	Recovery  []BenchRecovery `json:"recovery"`
	// Profile is the per-workload attribution summary (the same rows
	// `opec-bench -exp profile` renders), with each run's unified
	// counter snapshot.
	Profile  []ProfileRow  `json:"profile"`
	Proof    []BenchProof  `json:"proof"`
	Snapshot BenchSnapshot `json:"snapshot"`
	Fuzz     BenchFuzz     `json:"fuzz"`
}

// CollectBench builds the ledger at scale s on a harness of the given
// parallelism and runs every gate on it; the report is byte-identical
// at any parallelism. A run that fails its correctness check, a gate
// that does not hold, or a fork engine less than 10× faster than
// power-on boot fails collection.
func CollectBench(s AppSet, parallel int) (*BenchReport, error) {
	h := NewHarness(parallel)
	rep := &BenchReport{Schema: BenchSchema, Scale: scaleName(s)}

	appList := h.appsFor(s)
	acesSet := make(map[string]bool)
	for _, app := range acesApps(appList) {
		acesSet[app.Name] = true
	}
	perApp := make([][]BenchWorkload, len(appList))
	err := h.forEach(len(appList), func(i int) error {
		app := appList[i]
		for _, scheme := range []string{"vanilla", "opec", "aces"} {
			var res *run.Result
			var err error
			switch scheme {
			case "vanilla":
				res, err = h.Cache.VanillaRun(app, s)
			case "opec":
				res, err = h.Cache.OPECRun(app, s)
			default:
				if !acesSet[app.Name] {
					continue // ACES runs only the five comparison workloads
				}
				res, err = h.Cache.ACESRun(app, s, aces.Filename)
			}
			if err != nil {
				return fmt.Errorf("bench %s/%s: %w", app.Name, scheme, err)
			}
			w := BenchWorkload{App: app.Name, Scheme: scheme, Instrs: res.Machine.InstrCount, Cycles: res.Cycles}
			w.FFEpisodes, w.FFSkippedInstrs = ffCounts(res.Machine)
			perApp[i] = append(perApp[i], w)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range perApp {
		rep.Workloads = append(rep.Workloads, rows...)
	}

	if rep.Profile, err = h.Profile(s); err != nil {
		return nil, fmt.Errorf("bench profile: %w", err)
	}

	for _, app := range appList {
		rec, ok, err := h.measureRecovery(app, s)
		if err != nil {
			return nil, fmt.Errorf("bench recovery %s: %w", app.Name, err)
		}
		if ok {
			rep.Recovery = append(rep.Recovery, rec)
		}
	}

	for _, app := range appList {
		b, err := h.Cache.OPECBuild(app, s)
		if err != nil {
			return nil, fmt.Errorf("bench proof %s: %w", app.Name, err)
		}
		pr := BenchProof{App: app.Name}
		if p := b.Proofs; p != nil {
			pr.Static, pr.Proven, pr.Rejected = p.Static(), p.Proven(), p.Rejected()
			if pr.Static > 0 {
				pr.CoveragePct = 100 * float64(pr.Proven) / float64(pr.Static)
			}
		}
		rep.Proof = append(rep.Proof, pr)
	}

	if rep.Snapshot, err = h.measureSnapshot(); err != nil {
		return nil, fmt.Errorf("bench snapshot: %w", err)
	}
	if rep.Fuzz, err = h.measureFuzz(); err != nil {
		return nil, fmt.Errorf("bench fuzz: %w", err)
	}
	if err := checkBench(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// ffCounts reads a finished run's fast-forward counters.
func ffCounts(m *mach.Machine) (episodes, skipped uint64) {
	for _, c := range m.Counters() {
		switch c.Name {
		case "mach.ff.episodes":
			episodes = c.Value
		case "mach.ff.skipped_instrs":
			skipped = c.Value
		}
	}
	return episodes, skipped
}

// checkBench runs the ledger's exact gates; each error names its gate.
// They hold at both scales, so a regression in any of them cannot
// regenerate the ledger.
func checkBench(rep *BenchReport) error {
	// The attribution-consistency check: the traced switch cost per
	// activation matches the monitor's modeled gate round-trip.
	model := float64(monitor.ModeledSwitchCycles)
	for _, p := range rep.Profile {
		if p.Activations > 0 && (p.SwitchPerActivation < 0.95*model || p.SwitchPerActivation > 1.05*model) {
			return fmt.Errorf("bench gate switch cost: profile %s: %.1f cycles per activation, outside 5%% of the modeled %d",
				p.App, p.SwitchPerActivation, monitor.ModeledSwitchCycles)
		}
	}

	// The proof engine's floor: at least half the static accesses proven
	// on at least five workloads, and no build with a rejected access.
	covered := 0
	for _, p := range rep.Proof {
		if p.Rejected != 0 {
			return fmt.Errorf("bench gate proof rejection: %s has %d rejected accesses — the build should not have compiled", p.App, p.Rejected)
		}
		if p.CoveragePct >= 50 {
			covered++
		}
	}
	if covered < 5 {
		return fmt.Errorf("bench gate proof coverage: >= 50%% on %d of %d workloads, want >= 5", covered, len(rep.Proof))
	}

	if !rep.Snapshot.Identical {
		return fmt.Errorf("bench gate fork identity: the fork engine diverged from the power-on engine")
	}

	fz := rep.Fuzz
	if fz.UniqueEdgesGuided <= fz.UniqueEdgesRandom {
		return fmt.Errorf("bench gate fuzz guidance: guided fuzzing found %d unique edges, random ablation %d — coverage feedback bought nothing",
			fz.UniqueEdgesGuided, fz.UniqueEdgesRandom)
	}
	if fz.Escapes != 0 {
		return fmt.Errorf("bench gate fuzz escapes: fuzz campaigns recorded %d isolation escapes", fz.Escapes)
	}

	// The recovery policies' floor: at least two workloads demonstrate a
	// restart, each from a replayable trial.
	if len(rep.Recovery) < 2 {
		return fmt.Errorf("bench gate recovery floor: %d workloads restarted, want >= 2", len(rep.Recovery))
	}
	for _, r := range rep.Recovery {
		if _, err := inject.ParseSpec(r.Spec); err != nil {
			return fmt.Errorf("bench gate recovery spec: %s: %w", r.App, err)
		}
	}
	return nil
}

// measureFuzz runs the standard-shape fuzzing campaign twice — guided,
// then the random ablation — on the quick frame-queue workload. Like
// the snapshot section, it always runs at quick scale: the section
// measures the engine.
func (h *Harness) measureFuzz() (BenchFuzz, error) {
	pol := monitor.Policy{}
	guided, err := h.Fuzz(Quick, FuzzSeed, FuzzBudget, false, pol)
	if err != nil {
		return BenchFuzz{}, err
	}
	random, err := h.Fuzz(Quick, FuzzSeed, FuzzBudget, true, pol)
	if err != nil {
		return BenchFuzz{}, err
	}
	f := BenchFuzz{
		App: guided.App, Seed: guided.Seed, Inputs: guided.Inputs,
		UniqueEdgesGuided: guided.UniqueEdges,
		UniqueEdgesRandom: random.UniqueEdges,
		CorpusFrames:      guided.CorpusFrames,
		CorpusGates:       guided.CorpusGates,
		Findings:          guided.TotalFindings,
		Escapes:           guided.Escapes() + random.Escapes(),
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
// the fork-vs-boot ratio measures the engine, not the simulator. (On
// the mixed default campaign the simulated post-injection run
// dominates both engines equally; see DESIGN.md §11.) This is also the
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

// forkSpeedupFloor is how many times faster than power-on boot the
// fork engine must run the gate-fuzz sweep.
const forkSpeedupFloor = 10

// measureSnapshot runs the gate-fuzz quick sweep on both trial engines
// and compares them trial by trial for the Identical flag. It also
// times the two engines' trial execution — planning, which memoizes
// each workload's compile and clean-run budget in the harness cache,
// happens once, untimed — prints their ratio to stderr and fails below
// the 10× floor. The ratio is a single host-time sample, so it gates
// the collection but is not recorded.
func (h *Harness) measureSnapshot() (BenchSnapshot, error) {
	pol := monitor.Policy{}
	sweep := func(engine InjectEngine) ([]InjectRow, time.Duration, error) {
		plans, err := h.planInject(Quick, snapshotSweepConfig, pol)
		if err != nil {
			return nil, 0, err
		}
		gateOnly(plans)
		start := time.Now()
		if err := h.runInject(plans, pol, engine); err != nil {
			return nil, 0, err
		}
		return aggregateInject(plans), time.Since(start), nil
	}
	boot, bootWall, err := sweep(EngineBoot)
	if err != nil {
		return BenchSnapshot{}, err
	}
	fork, forkWall, err := sweep(EngineFork)
	if err != nil {
		return BenchSnapshot{}, err
	}

	sn := BenchSnapshot{Workloads: len(fork), Identical: InjectRunsIdentical(boot, fork)}
	for _, r := range fork {
		sn.Trials += r.Trials
	}
	speedup := bootWall.Seconds() / forkWall.Seconds()
	fmt.Fprintf(os.Stderr, "bench: fork engine %.1fx faster than power-on boot over %d trials (boot %.3f s, fork %.3f s; floor %dx)\n",
		speedup, sn.Trials, bootWall.Seconds(), forkWall.Seconds(), forkSpeedupFloor)
	if speedup < forkSpeedupFloor {
		return BenchSnapshot{}, fmt.Errorf("fork engine %.1fx faster than power-on boot, below the %dx floor", speedup, forkSpeedupFloor)
	}
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

// benchRecoverySeed fixes the trial catalogue the recovery measurements
// draw from, so the measured spec is stable across regenerations.
const benchRecoverySeed = 1

// measureRecovery measures one operation restart on app: the first
// planned rogue store from a non-default operation is contained by the
// MPU, RestartOperation re-initializes the operation, and the
// monitor's restart cycle counter is the latency. ok is false when the
// workload plans no such trial or the trial never reached its trigger.
func (h *Harness) measureRecovery(app *apps.App, s AppSet) (BenchRecovery, bool, error) {
	a, err := h.Cache.opecArtifact(app, s)
	if err != nil {
		return BenchRecovery{}, false, err
	}
	var spec inject.Spec
	found := false
	for _, sp := range inject.Plan(a.b, a.inst.Devices, inject.DefaultConfig(benchRecoverySeed)) {
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
