// Package opec is a from-scratch reproduction of "OPEC: Operation-based
// Security Isolation for Bare-metal Embedded Systems" (EuroSys 2022):
// the operation-based isolation scheme itself (compiler partitioning +
// privileged reference monitor), the ACES baseline it is evaluated
// against, and the full substrate the paper's evaluation runs on — an
// ARMv7-M-class machine simulator with an 8-region MPU, two STM32 board
// models, device peripherals, a HAL-style firmware library authored in
// the project IR, and the seven evaluated workloads.
//
// The package is a facade over the internal implementation:
//
//   - Workloads: Apps, AppByName build fresh workload instances.
//   - Running: RunVanilla, RunOPEC, RunACES execute an instance under
//     the three build flavours the paper compares.
//   - Compiling only: CompileOPEC, CompileACES produce build artifacts
//     (partitioning, policies, layouts) without running.
//   - Evaluation: Table1, Figure9, Table2, Figure10, Figure11, Table3
//     regenerate the paper's tables and figures; Render* print them.
//   - Case study: PinLockCaseStudy reproduces Section 6.1's attack
//     contrast between OPEC and ACES.
//   - Observability: NewTraceBuffer + RunOPECWith attach the cycle-
//     stamped event bus to a run; NewProfiler folds events into
//     per-operation attribution; ExportTraceChrome / ExportTraceJSONL
//     serialize traces; ProfileAll runs the profiling experiment.
package opec

import (
	"errors"
	"fmt"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/debug"
	"opec/internal/exper"
	"opec/internal/fuzz"
	"opec/internal/inject"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/run"
	"opec/internal/trace"
	"opec/internal/vet"
)

// Core types, re-exported for API users.
type (
	// App is a named workload constructor.
	App = apps.App
	// Instance is one freshly built workload: module, entries, board,
	// devices and its correctness check.
	Instance = apps.Instance
	// Result is a finished run (cycles, machine, per-flavour handles).
	Result = run.Result
	// Build is the OPEC compiler output: operations, layout, policies.
	Build = core.Build
	// Operation is one isolated domain.
	Operation = core.Operation
	// Strategy selects an ACES partitioning policy.
	Strategy = aces.Strategy
	// ACESBuild is the ACES baseline's compile output.
	ACESBuild = aces.Build
	// Monitor is the runtime reference monitor of a booted OPEC image.
	Monitor = monitor.Monitor
	// VetReport is the output of the static isolation auditor.
	VetReport = vet.Report
	// VetDiagnostic is one auditor finding.
	VetDiagnostic = vet.Diagnostic
	// Harness runs the evaluation's experiments over a shared memoized
	// build cache with a bounded worker pool.
	Harness = exper.Harness
	// BuildCache memoizes compiled builds and finished runs keyed by
	// (application, scheme, scale).
	BuildCache = exper.Cache
	// InjectSpec is one replayable fault-injection trial.
	InjectSpec = inject.Spec
	// InjectOutcome is one finished trial with its verdict.
	InjectOutcome = inject.Outcome
	// InjectConfig sizes a seeded fault-injection campaign.
	InjectConfig = inject.Config
	// InjectVerdict classifies a trial's outcome.
	InjectVerdict = inject.Verdict
	// InjectRow is one workload × scheme leg of a campaign.
	InjectRow = exper.InjectRow
	// InjectEngine selects how a campaign executes its trials
	// (boot-once/fork-many versus power-on per trial).
	InjectEngine = exper.InjectEngine
	// Forge is the boot-once/fork-many trial engine for one workload:
	// compile and boot once, checkpoint, fork every trial from the
	// snapshot. Its SnapshotID plus a spec is a complete replay
	// coordinate (opec-run -replay).
	Forge = inject.Forge
	// RecoveryPolicy configures the monitor's reaction to contained
	// faults (abort, restart with backoff, quarantine).
	RecoveryPolicy = monitor.Policy
	// FuzzOptions configures one coverage-guided fuzzing campaign;
	// FuzzReport is its deterministic summary.
	FuzzOptions = fuzz.Options
	FuzzReport  = fuzz.Report
)

// Standard fuzzing-campaign shape (the configuration BENCH v7 records).
const (
	FuzzSeed   = exper.FuzzSeed
	FuzzBudget = exper.FuzzBudget
)

// Fuzzing re-exports.
var (
	// RunFuzz executes one campaign (Harness.Fuzz is the harness-shaped
	// entry point the CLIs use).
	RunFuzz = fuzz.Run
	// RenderFuzz prints a campaign summary.
	RenderFuzz = exper.RenderFuzz
)

// Campaign trial engines.
const (
	EngineFork = exper.EngineFork
	EngineBoot = exper.EngineBoot
)

// The monitor's recovery policy kinds.
const (
	PolicyAbort      = monitor.Abort
	PolicyRestart    = monitor.RestartOperation
	PolicyQuarantine = monitor.Quarantine
)

// Fault-injection and recovery re-exports.
var (
	// ParseInjectSpec parses the replay syntax of opec-run -inject.
	ParseInjectSpec = inject.ParseSpec
	// DefaultInjectConfig is the standard campaign shape at a seed.
	DefaultInjectConfig = inject.DefaultConfig
	// ParsePolicy resolves a recovery policy name.
	ParsePolicy = monitor.ParsePolicy
	// InjectOPEC replays one trial under OPEC with a recovery policy.
	InjectOPEC = inject.RunOPEC
	// InjectACES replays one trial under an ACES strategy.
	InjectACES = inject.RunACES
	// RenderInject prints a campaign's containment table.
	RenderInject = exper.RenderInject
	// NewForge boots one workload under OPEC and checkpoints it at the
	// pre-injection point; NewACESForge does the same under an ACES
	// strategy.
	NewForge     = inject.NewForge
	NewACESForge = inject.NewACESForge
	// InjectRunsIdentical is the fork-vs-boot campaign differential:
	// byte-identical tables and per-trial agreement.
	InjectRunsIdentical = exper.InjectRunsIdentical
)

// NewHarness returns an experiment harness with an empty build cache
// running at most parallel concurrent per-app jobs (0 = GOMAXPROCS).
// One harness per sweep is the intended shape: experiments share
// memoized builds and runs, and rendered output is byte-identical at
// every parallelism level.
func NewHarness(parallel int) *Harness { return exper.NewHarness(parallel) }

// The three evaluated ACES strategies.
const (
	ACES1 = aces.Filename
	ACES2 = aces.FilenameNoOpt
	ACES3 = aces.Peripheral
)

// Experiment scale selectors.
const (
	Full  = exper.Full
	Quick = exper.Quick
)

// Vet diagnostic severities.
const (
	VetInfo  = vet.SevInfo
	VetWarn  = vet.SevWarn
	VetError = vet.SevError
)

// Execution-backend names. The interpreter is the reference engine and
// differential oracle; the threaded-code translation engine (xlat) is
// observably identical — same cycles, faults, traces and counters —
// and faster on dispatch-bound code.
const (
	ExecInterp = run.BackendInterp
	ExecXlat   = run.BackendXlat
)

// SetExecBackend selects the process-wide execution backend ("interp",
// "xlat", or "" for the OPEC_MACH_BACKEND environment default). The
// CLIs' -backend flag routes here.
func SetExecBackend(name string) error { return run.SetDefaultBackend(name) }

// Apps returns the seven evaluation workloads at paper scale.
func Apps() []*App { return apps.All() }

// QuickApps returns the seven workloads at the harness's Quick scale
// (shrunk rounds — the size tests, benchmarks and CI smokes use).
func QuickApps() []*App { return exper.AppsFor(exper.Quick) }

// AppByName returns a workload constructor by its paper name
// ("PinLock", "Animation", "FatFs-uSD", "LCD-uSD", "TCP-Echo",
// "Camera", "CoreMark").
func AppByName(name string) (*App, error) { return apps.ByName(name) }

// RunVanilla executes the instance as the unprotected baseline.
func RunVanilla(inst *Instance) (*Result, error) { return run.Vanilla(inst) }

// RunOPEC compiles with OPEC-Compiler and executes under OPEC-Monitor.
func RunOPEC(inst *Instance) (*Result, error) { return run.OPEC(inst) }

// RunOPECPMP executes under the monitor's RISC-V PMP backend — the
// "Other Hardware Platforms" extension of the paper's Section 7.
func RunOPECPMP(inst *Instance) (*Result, error) { return run.OPECPMP(inst) }

// RunACES compiles and executes under the ACES baseline.
func RunACES(inst *Instance, s Strategy) (*Result, error) { return run.ACES(inst, s) }

// Check runs the instance's correctness check against a result.
func Check(inst *Instance, res *Result) error { return run.AndCheck(inst, res) }

// CompileOPEC runs the compiler pipeline only: analysis, partitioning,
// shadow layout, instrumentation.
func CompileOPEC(inst *Instance) (*Build, error) {
	return core.Compile(inst.Mod, inst.Board, inst.Cfg)
}

// CompileACES runs the baseline's compartment formation and layout.
func CompileACES(inst *Instance, s Strategy) (*aces.Build, error) {
	return aces.Compile(inst.Mod, inst.Board, s)
}

// Vet runs the static least-privilege and isolation auditor
// (opec-vet's seven passes) over a compiled build.
func Vet(b *Build) *VetReport { return vet.Run(b) }

// VetDiff returns the diagnostics in cur that are absent from old — the
// regression set opec-vet's -diff gate fails on.
func VetDiff(old, cur *VetReport) []VetDiagnostic { return vet.Diff(old, cur) }

// VetLoadReport parses a JSON vet report (a -diff baseline).
func VetLoadReport(path string) (*VetReport, error) { return vet.LoadReport(path) }

// Evaluation harness re-exports.
var (
	Table1   = exper.Table1
	Figure9  = exper.Figure9
	Table2   = exper.Table2
	Figure10 = exper.Figure10
	Figure11 = exper.Figure11
	Table3   = exper.Table3

	RenderTable1   = exper.RenderTable1
	RenderFigure9  = exper.RenderFigure9
	RenderTable2   = exper.RenderTable2
	RenderFigure10 = exper.RenderFigure10
	RenderFigure11 = exper.RenderFigure11
	RenderTable3   = exper.RenderTable3
)

// Observability re-exports: the event trace bus, the profiler, and the
// unified counter registry.
type (
	// TraceBuffer is the fixed-capacity event ring the simulator,
	// monitor and ACES runtime emit into. A nil buffer disables tracing
	// at zero cost.
	TraceBuffer = trace.Buffer
	// TraceEvent is one cycle-stamped event on the bus.
	TraceEvent = trace.Event
	// Profiler folds the live event stream into per-domain attribution.
	Profiler = trace.Profiler
	// Profile is a finished per-domain cycle-attribution breakdown.
	Profile = trace.Profile
	// OpProfile is one domain's share of a Profile.
	OpProfile = trace.OpProfile
	// Counter is one named monotonic count.
	Counter = trace.Counter
	// CounterRegistry merges counter sources into one sorted snapshot.
	CounterRegistry = trace.Registry
	// RunOptions tunes a run: recovery policy, injection arming, trace
	// attachment.
	RunOptions = run.Options
	// ProfileRow is one workload's row of the profiling experiment.
	ProfileRow = exper.ProfileRow
)

var (
	// NewTraceBuffer allocates an event ring (0 = default capacity).
	NewTraceBuffer = trace.NewBuffer
	// NewProfiler attaches a profiler to a buffer's live stream.
	NewProfiler = trace.NewProfiler
	// ExportTraceJSONL serializes a trace as one JSON object per line.
	ExportTraceJSONL = trace.ExportJSONL
	// ImportTraceJSONL reloads a JSONL trace for re-export or analysis.
	ImportTraceJSONL = trace.ImportJSONL
	// ExportTraceChrome serializes a trace in Chrome trace_event format
	// (chrome://tracing, Perfetto).
	ExportTraceChrome = trace.ExportChrome
	// ValidateChromeTrace checks a Chrome export parses and contains at
	// least one duration slice per required operation.
	ValidateChromeTrace = trace.ValidateChrome
	// RenderTraceCounters prints a counter snapshot, one per line.
	RenderTraceCounters = trace.RenderCounters
	// RunVanillaWith / RunOPECWith / RunOPECPMPWith / RunACESWith are
	// the Options-taking run entry points (trace attachment, recovery
	// policy, injection).
	RunVanillaWith = run.VanillaWith
	RunOPECWith    = run.OPECWith
	RunOPECPMPWith = run.OPECPMPWith
	RunACESWith    = run.ACESWith
	// InjectOPECTraced replays one fault-injection trial with a trace
	// buffer attached (the golden-trace path for Section 6.1).
	InjectOPECTraced = inject.TraceOPEC
	// ProfileAll runs the profiling experiment over every workload.
	ProfileAll = exper.ProfileAll
	// RenderProfile prints the profiling experiment's tables.
	RenderProfile = exper.RenderProfile
)

// Time-travel debugger re-exports (internal/debug, cmd/opec-debug).
type (
	// DebugConfig describes one debuggable run: a workload plus an
	// optional inject/fuzz spec and the checkpointer shape.
	DebugConfig = debug.Config
	// DebugSession is one recorded run with its indexed trace store and
	// keyframe checkpoints, answering seek / watch / last-writer /
	// blame queries by deterministic re-execution.
	DebugSession = debug.Session
)

var (
	// NewDebugSession boots and records a run for time-travel queries.
	NewDebugSession = debug.New
)

// Simulator-throughput baseline (BENCH_mach.json) re-exports.
type (
	// BenchReport is the machine-readable simulator perf baseline.
	BenchReport = exper.BenchReport
	// BenchWorkload is one timed app × scheme run inside a BenchReport.
	BenchWorkload = exper.BenchWorkload
	// BenchBackend is the execution-backend A/B section (schema v6).
	BenchBackend = exper.BenchBackend
)

var (
	// CollectBench measures per-workload simulated MIPS and harness
	// sweep timings at a scale.
	CollectBench = exper.CollectBench
	// MarshalBenchReport renders a report as indented JSON.
	MarshalBenchReport = exper.MarshalBenchReport
	// ValidateBenchReport checks a BENCH_mach.json document is complete.
	ValidateBenchReport = exper.ValidateBenchReport
)

// CaseStudyResult reports Section 6.1's contrast: the same arbitrary
// write targeting PinLock's KEY from a compromised Lock_Task, under
// OPEC and under ACES.
type CaseStudyResult struct {
	// OPECBlocked reports that OPEC terminated the attack with a
	// MemManage fault before KEY was modified.
	OPECBlocked bool
	// OPECFault is the fault that stopped the attack.
	OPECFault string
	// ACESKeyOverwritten reports that the write landed under ACES
	// (KEY co-located in a merged, accessible region).
	ACESKeyOverwritten bool
}

// PinLockCaseStudy reproduces the Section 6.1 case study: it compiles
// PinLock twice, injects the post-compile arbitrary write
// (Lock_Task exploiting the buggy HAL_UART_Receive_IT to overwrite
// KEY), and runs both builds.
func PinLockCaseStudy() (*CaseStudyResult, error) {
	out := &CaseStudyResult{}

	// --- OPEC ---
	inst := apps.PinLockN(1).New()
	b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
	if err != nil {
		return nil, err
	}
	injectKeyOverwrite(inst.Mod)
	if _, err = run.OPECWith(inst, b, run.Options{}); err == nil {
		return nil, errors.New("opec: attack unexpectedly survived under OPEC")
	}
	var f *mach.Fault
	if errors.As(err, &f) && f.Kind == mach.FaultMemManage && f.Write {
		out.OPECBlocked = true
		out.OPECFault = f.Error()
	} else {
		return nil, fmt.Errorf("opec: unexpected attack outcome under OPEC: %w", err)
	}

	// --- ACES ---
	instA := apps.PinLockN(1).New()
	ab, err := aces.Compile(instA.Mod, instA.Board, aces.FilenameNoOpt)
	if err != nil {
		return nil, err
	}
	injectKeyOverwrite(instA.Mod)
	resA, err := run.ACESWith(instA, ab, run.Options{})
	if err != nil {
		return nil, fmt.Errorf("opec: ACES run with attack: %w", err)
	}
	key := instA.Mod.Global("KEY")
	v, _ := resA.Machine.Bus.RawLoad(ab.GlobalAddr[key], 1)
	out.ACESKeyOverwritten = v == attackByte
	return out, nil
}

// attackByte is the value the injected arbitrary write stores into KEY.
const attackByte = 0xEE

// injectKeyOverwrite models the runtime compromise: an arbitrary write
// to KEY prepended to Lock_Task after compilation (the compiler never
// saw the access, exactly like an exploited memory-corruption bug).
func injectKeyOverwrite(m *ir.Module) {
	lt := m.MustFunc("Lock_Task")
	key := m.Global("KEY")
	in := &ir.Instr{Op: ir.OpStore, Typ: ir.I8, Args: []ir.Value{key, ir.CI(attackByte)}}
	entry := lt.Entry()
	entry.Instrs = append([]*ir.Instr{in}, entry.Instrs...)
}
