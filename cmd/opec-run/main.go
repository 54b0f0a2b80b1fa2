// Command opec-run executes one of the evaluation workloads on the
// simulated board under a chosen build flavour, verifies the workload's
// end-to-end correctness check, and reports cycles and isolation
// statistics.
//
// Usage:
//
//	opec-run -app PinLock -mode opec
//	opec-run -app TCP-Echo -mode vanilla
//	opec-run -app FatFs-uSD -mode aces1
//
// With -trace, the run records the cycle-stamped event stream (gate
// crossings, exceptions, MPU programming, faults, recovery) and prints
// it in the chosen format; -profile folds the same stream into
// per-operation cycle attribution:
//
//	opec-run -app PinLock -mode opec -trace
//	opec-run -app PinLock -mode opec -trace -trace-format chrome -trace-out pinlock.json
//	opec-run -app PinLock -mode opec -profile
//
// With -inject, opec-run replays one fault-injection trial (the spec
// syntax campaigns print) instead of a clean run, and exits non-zero
// when the fault escapes its domain:
//
//	opec-run -app PinLock -mode opec -inject 'store:Lock_Task:1:KEY:0:-1:0xee'
//	opec-run -app PinLock -mode opec -policy restart -inject 'store:Lock_Task:1:KEY:0:-1:0xee'
//	opec-run -app PinLock -mode aces2 -inject 'store:Lock_Task:1:KEY:0:-1:0xee'
//
// With -replay, opec-run replays one trial of a fork-engine campaign
// from its snapshot coordinate — the snapshot id the campaign printed
// plus the trial spec, joined by '@'. The workload is rebuilt and
// checkpointed (compilation and boot are deterministic), the rebuilt
// checkpoint's id must match the coordinate, and the single trial runs
// forked from it:
//
//	opec-run -app PinLock -mode opec -replay '2acc408c9ff6df58@store:Lock_Task:1:KEY:0:-1:0xee'
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"opec"
	"opec/internal/metrics"
)

func main() {
	appName := flag.String("app", "", "workload name")
	mode := flag.String("mode", "opec", "vanilla | opec | opec-pmp | aces1 | aces2 | aces3")
	tasks := flag.Bool("tasks", false, "print the per-task executed-function listing (the GDB-substitute)")
	doTrace := flag.Bool("trace", false, "record the run's event trace and print/export it")
	traceFormat := flag.String("trace-format", "text", "trace export format: text | jsonl | chrome")
	traceOut := flag.String("trace-out", "", "write the trace export to this file instead of stdout")
	traceCheck := flag.Bool("trace-check", false, "validate the chrome export (parses, one slice per domain); implies -trace-format chrome")
	doProfile := flag.Bool("profile", false, "print per-operation cycle attribution (implies tracing)")
	traceCap := flag.Int("trace-cap", 0, "event ring capacity (0 = default)")
	quick := flag.Bool("quick", false, "use the Quick-scale workload variant (shrunk rounds, as in tests/CI)")
	injectSpec := flag.String("inject", "", "replay one fault-injection trial (kind:func:n:target:off:bit:value[:args])")
	replaySpec := flag.String("replay", "", "replay one fork-engine campaign trial from '<snapshot-id>@<spec>'")
	policy := flag.String("policy", "abort", "recovery policy under -inject/-replay: abort | restart | quarantine")
	maxCycles := flag.Uint64("max-cycles", 0, "cycle budget for -inject/-replay trials (0 = unlimited); fuzzing campaigns print their trial budget, and replaying a hung finding needs the same budget to reproduce its verdict")
	backend := flag.String("backend", "", "execution backend: interp | xlat (default: OPEC_MACH_BACKEND, else interp); results are byte-identical, only wall-clock differs")
	flag.Parse()

	if *backend != "" { // leave the OPEC_MACH_BACKEND default in place otherwise
		if err := opec.SetExecBackend(*backend); err != nil {
			fmt.Fprintln(os.Stderr, "opec-run:", err)
			os.Exit(2)
		}
	}

	if *appName == "" {
		fmt.Fprintln(os.Stderr, "opec-run: -app is required")
		os.Exit(2)
	}
	pol, err := opec.ParsePolicy(*policy)
	fail(err)
	app, err := opec.AppByName(*appName)
	fail(err)
	if *quick {
		app = nil
		for _, a := range opec.QuickApps() {
			if a.Name == *appName {
				app = a
			}
		}
		if app == nil {
			fail(fmt.Errorf("no quick-scale variant of %q", *appName))
		}
	}

	if *injectSpec != "" {
		replayTrial(app, *mode, *injectSpec, pol, *maxCycles)
		return
	}
	if *replaySpec != "" {
		replayFromSnapshot(app, *mode, *replaySpec, pol, *maxCycles)
		return
	}
	inst := app.New()

	if *tasks {
		tr, err := metrics.TraceTasks(inst)
		fail(err)
		for _, task := range tr.Order {
			fmt.Printf("task %-18s executed %d functions:\n", task, len(tr.Executed[task]))
			names := make([]string, 0, len(tr.Executed[task]))
			for n := range tr.Executed[task] {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Printf("    %s\n", n)
			}
		}
		return
	}

	if *traceCheck {
		*doTrace = true
		*traceFormat = "chrome"
	}
	var buf *opec.TraceBuffer
	var prof *opec.Profiler
	if *doTrace || *doProfile {
		buf = opec.NewTraceBuffer(*traceCap)
		if *doProfile {
			prof = opec.NewProfiler(buf)
		}
	}
	opts := opec.RunOptions{Trace: buf}

	var res *opec.Result
	switch strings.ToLower(*mode) {
	case "vanilla":
		res, err = opec.RunVanillaWith(inst, opts)
	case "opec":
		res, err = opec.RunOPECWith(inst, mustCompileOPEC(inst), opts)
	case "opec-pmp":
		res, err = opec.RunOPECPMPWith(inst, mustCompileOPEC(inst), opts)
	case "aces1":
		res, err = opec.RunACESWith(inst, mustCompileACES(inst, opec.ACES1), opts)
	case "aces2":
		res, err = opec.RunACESWith(inst, mustCompileACES(inst, opec.ACES2), opts)
	case "aces3":
		res, err = opec.RunACESWith(inst, mustCompileACES(inst, opec.ACES3), opts)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	fail(err)

	fmt.Printf("%s under %s on %s: %d cycles, %d instructions\n",
		inst.Mod.Name, *mode, inst.Board.Name, res.Cycles, res.Machine.InstrCount)
	if err := opec.Check(inst, res); err != nil {
		fail(fmt.Errorf("correctness check FAILED: %w", err))
	}
	fmt.Println("correctness check passed")

	if res.Mon != nil {
		s := res.Mon.Stats
		fmt.Printf("monitor: switches=%d wordsSynced=%d relocUpdates=%d stackRelocs=%d periphRemaps=%d emulations=%d\n",
			s.Switches, s.WordsSynced, s.RelocUpdates, s.StackRelocs, s.PeriphRemaps, s.Emulations)
	}
	if res.ACES != nil {
		fmt.Printf("aces: compartment switches=%d emulator hits=%d privileged code=%dB\n",
			res.ACES.Switches, res.ACES.EmulatorHits, res.ABld.PrivilegedCodeBytes())
	}

	if buf != nil {
		if d := buf.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "opec-run: warning: trace ring dropped %d of %d events — raise -trace-cap for a complete export (counters and drop accounting stay exact)\n",
				d, buf.Emitted())
		}
		// Unified counter snapshot: machine (+ bus, MPU/TLB), monitor or
		// ACES runtime, and the trace bus itself, in stable sorted order.
		reg := &opec.CounterRegistry{}
		reg.Register(res.Machine)
		if res.Mon != nil {
			reg.Register(&res.Mon.Stats)
		}
		if res.ACES != nil {
			reg.Register(res.ACES)
		}
		reg.Register(buf)
		fmt.Printf("counters:\n%s", indent(opec.RenderTraceCounters(reg.Snapshot())))
	}

	if prof != nil {
		p := prof.Finish(res.Cycles)
		fmt.Printf("profile:\n%s", indent(p.Render()))
	}
	if *doTrace {
		exportTrace(buf, res, *traceFormat, *traceOut, *traceCheck)
	}
}

// exportTrace serializes the recorded events and writes them to path
// (or stdout), optionally validating the chrome form against the run's
// domain names.
func exportTrace(buf *opec.TraceBuffer, res *opec.Result, format, path string, check bool) {
	var out []byte
	var err error
	switch format {
	case "text":
		out = []byte(buf.RenderText())
	case "jsonl":
		out, err = opec.ExportTraceJSONL(buf, res.Cycles)
	case "chrome":
		out, err = opec.ExportTraceChrome(buf, res.Cycles)
	default:
		err = fmt.Errorf("unknown trace format %q (want text | jsonl | chrome)", format)
	}
	fail(err)

	if check {
		fail(opec.ValidateChromeTrace(out, domainNames(res)))
		fmt.Println("trace check passed: chrome export parses, every domain has a slice")
	}
	if path == "" {
		os.Stdout.Write(out)
		return
	}
	fail(os.WriteFile(path, out, 0o644))
	fmt.Printf("trace: wrote %d bytes to %s (%s)\n", len(out), path, format)
}

// domainNames lists the isolation domains a trace of this run must
// contain slices for: operations under OPEC, compartments under ACES.
func domainNames(res *opec.Result) []string {
	var names []string
	if res.Build != nil {
		for _, op := range res.Build.Ops {
			names = append(names, op.Name)
		}
	}
	if res.ABld != nil {
		for _, c := range res.ABld.Comps {
			names = append(names, "comp:"+c.Name)
		}
	}
	return names
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "    " + strings.Join(lines, "\n    ") + "\n"
}

func mustCompileOPEC(inst *opec.Instance) *opec.Build {
	b, err := opec.CompileOPEC(inst)
	fail(err)
	return b
}

func mustCompileACES(inst *opec.Instance, s opec.Strategy) *opec.ACESBuild {
	b, err := opec.CompileACES(inst, s)
	fail(err)
	return b
}

// replayTrial runs one fault-injection trial and reports its verdict;
// an uncontained verdict (escape or monitor crash) exits non-zero.
func replayTrial(app *opec.App, mode, specText string, pol opec.RecoveryPolicy, maxCycles uint64) {
	spec, err := opec.ParseInjectSpec(specText)
	fail(err)

	var out opec.InjectOutcome
	switch strings.ToLower(mode) {
	case "opec":
		out, err = opec.InjectOPEC(app, spec, pol, maxCycles)
	case "aces1":
		out, err = opec.InjectACES(app, spec, opec.ACES1, maxCycles)
	case "aces2":
		out, err = opec.InjectACES(app, spec, opec.ACES2, maxCycles)
	case "aces3":
		out, err = opec.InjectACES(app, spec, opec.ACES3, maxCycles)
	default:
		err = fmt.Errorf("mode %q does not support -inject (want opec | aces1 | aces2 | aces3)", mode)
	}
	fail(err)
	reportTrial(app, mode, spec, out)
}

// replayFromSnapshot replays one fork-engine campaign trial from its
// '<snapshot-id>@<spec>' coordinate: rebuild and checkpoint the
// workload, verify the checkpoint hashes to the recorded id, fork the
// single trial. The '@' separator keeps the coordinate unambiguous —
// specs use ':' internally.
func replayFromSnapshot(app *opec.App, mode, coord string, pol opec.RecoveryPolicy, maxCycles uint64) {
	id, specText, ok := strings.Cut(coord, "@")
	if !ok || id == "" || specText == "" {
		fail(fmt.Errorf("-replay wants '<snapshot-id>@<spec>', got %q", coord))
	}
	spec, err := opec.ParseInjectSpec(specText)
	fail(err)

	var forge *opec.Forge
	switch strings.ToLower(mode) {
	case "opec":
		forge, err = opec.NewForge(app)
	case "aces2":
		forge, err = opec.NewACESForge(app, opec.ACES2)
	default:
		err = fmt.Errorf("mode %q does not support -replay (want opec | aces2, the campaign schemes)", mode)
	}
	fail(err)
	if got := forge.SnapshotID(); got != id {
		fail(fmt.Errorf("snapshot id mismatch: rebuilt checkpoint is %s, coordinate names %s (different workload scale or build?)", got, id))
	}

	out, err := forge.Run(spec, pol, maxCycles)
	fail(err)
	fmt.Printf("replayed from snapshot %s\n", id)
	reportTrial(app, mode, spec, out)
}

// reportTrial prints a trial's verdict and exits non-zero when the
// fault escaped its domain.
func reportTrial(app *opec.App, mode string, spec opec.InjectSpec, out opec.InjectOutcome) {
	fmt.Printf("%s under %s: trial %s\n", app.Name, mode, spec)
	fmt.Printf("  verdict: %s\n", out.Verdict)
	if out.Err != "" {
		fmt.Printf("  detail:  %s\n", out.Err)
	}
	if out.Cycles > 0 {
		fmt.Printf("  cycles:  %d\n", out.Cycles)
	}
	if out.Restarts > 0 || out.Quarantines > 0 {
		fmt.Printf("  recovery: restarts=%d quarantines=%d restart_cycles=%d\n",
			out.Restarts, out.Quarantines, out.RestartCycles)
	}
	if !out.Verdict.Contained() {
		os.Exit(1)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "opec-run:", err)
		os.Exit(1)
	}
}
