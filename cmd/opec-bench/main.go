// Command opec-bench regenerates the paper's evaluation: every table
// and figure of Section 6 plus the Section 6.1 case study.
//
// All experiments of one invocation share a single harness, so builds
// and runs memoized by one table are reused by the next (Table 2 finds
// Figure 9's vanilla and OPEC runs already cached, Figure 11 reuses
// Figure 10's ACES builds). Per-app work fans out over -parallel
// workers; results are reassembled in the fixed application order, so
// the output is byte-identical at every parallelism level.
//
// Usage:
//
//	opec-bench -exp all
//	opec-bench -exp all -parallel 8
//	opec-bench -exp table1
//	opec-bench -exp figure9 -quick
//	opec-bench -exp casestudy
//	opec-bench -exp profile -quick
//	opec-bench -exp inject -seed 1 -policy restart
//	opec-bench -exp inject -quick -assert-contained
//	opec-bench -exp inject -quick -inject-engine diff
//	opec-bench -exp fuzz -quick -fuzz-budget 2000 -assert-contained
//	opec-bench -exp fuzz -quick -fuzz-random
//	opec-bench -exp bench -benchjson BENCH_mach.json
//	opec-bench -validate BENCH_mach.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"opec"
)

func main() {
	exp := flag.String("exp", "all", "table1 | figure9 | table2 | figure10 | figure11 | table3 | casestudy | profile | inject | fuzz | bench | all")
	quick := flag.Bool("quick", false, "use reduced workload sizes")
	parallel := flag.Int("parallel", 0, "max concurrent per-app jobs (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 1, "fault-injection campaign seed (-exp inject)")
	policy := flag.String("policy", "abort", "recovery policy for -exp inject: abort | restart | quarantine")
	assertContained := flag.Bool("assert-contained", false, "with -exp inject/fuzz: exit non-zero unless every OPEC trial is contained")
	fuzzBudget := flag.Int("fuzz-budget", opec.FuzzBudget, "fuzz inputs to execute (-exp fuzz); -seed seeds the campaign")
	fuzzRandom := flag.Bool("fuzz-random", false, "with -exp fuzz: ablate coverage guidance (same mutators, corpus frozen at the seeds)")
	injectEngine := flag.String("inject-engine", "fork", "trial engine for -exp inject: fork (boot once per row, fork every trial) | boot (power-on per trial) | diff (run both, exit non-zero unless byte-identical)")
	benchjson := flag.String("benchjson", "", "write the simulator-throughput baseline (BENCH_mach.json) to this file; implies -exp bench unless another experiment is named")
	validate := flag.String("validate", "", "validate an existing BENCH_mach.json and exit")
	backend := flag.String("backend", "", "execution backend: interp | xlat (default: OPEC_MACH_BACKEND, else interp); results are byte-identical, only wall-clock differs")
	flag.Parse()

	if *backend != "" { // leave the OPEC_MACH_BACKEND default in place otherwise
		fail(opec.SetExecBackend(*backend))
	}
	pol, err := opec.ParsePolicy(*policy)
	fail(err)
	engine, err := parseEngine(*injectEngine)
	fail(err)

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		fail(err)
		rep, err := opec.ValidateBenchReport(data)
		fail(err)
		fmt.Printf("%s: valid %s report (scale %s, %d workloads, %d experiments)\n",
			*validate, rep.Schema, rep.Scale, len(rep.Workloads), len(rep.Experiments))
		return
	}

	scale := opec.Full
	if *quick {
		scale = opec.Quick
	}
	if *benchjson != "" && *exp == "all" {
		*exp = "bench"
	}
	h := opec.NewHarness(*parallel)

	want := func(name string) bool { return *exp == "all" || strings.EqualFold(*exp, name) }
	ran := false

	if want("table1") {
		rows, err := h.Table1(scale)
		fail(err)
		fmt.Println(opec.RenderTable1(rows))
		ran = true
	}
	if want("figure9") {
		rows, err := h.Figure9(scale)
		fail(err)
		fmt.Println(opec.RenderFigure9(rows))
		ran = true
	}
	if want("table2") {
		rows, err := h.Table2(scale)
		fail(err)
		fmt.Println(opec.RenderTable2(rows))
		ran = true
	}
	if want("figure10") {
		series, err := h.Figure10(scale)
		fail(err)
		fmt.Println(opec.RenderFigure10(series))
		ran = true
	}
	if want("figure11") {
		series, err := h.Figure11(scale)
		fail(err)
		fmt.Println(opec.RenderFigure11(series))
		ran = true
	}
	if want("table3") {
		rows, err := h.Table3(scale)
		fail(err)
		fmt.Println(opec.RenderTable3(rows))
		ran = true
	}
	if want("profile") {
		rows, err := h.Profile(scale)
		fail(err)
		fmt.Println(opec.RenderProfile(rows))
		ran = true
	}
	if want("casestudy") {
		res, err := opec.PinLockCaseStudy()
		fail(err)
		fmt.Println("Section 6.1 case study: arbitrary write to KEY from compromised Lock_Task")
		fmt.Printf("  under OPEC: blocked=%v (%s)\n", res.OPECBlocked, res.OPECFault)
		fmt.Printf("  under ACES: KEY overwritten=%v\n", res.ACESKeyOverwritten)
		ran = true
	}
	// Not part of -exp all: every trial compiles and runs a fresh
	// workload, so a campaign multiplies the sweep's cost.
	if strings.EqualFold(*exp, "inject") {
		cfg := opec.DefaultInjectConfig(*seed)
		var rows []opec.InjectRow
		switch engine {
		case "fork":
			rows, err = h.InjectWith(scale, cfg, pol, opec.EngineFork)
		case "boot":
			rows, err = h.InjectWith(scale, cfg, pol, opec.EngineBoot)
		case "diff":
			// The correctness invariant, end to end: the same campaign on
			// both engines must agree byte for byte — rendered table,
			// per-trial verdicts, error text, cycles, recovery counters.
			var boot []opec.InjectRow
			boot, err = h.InjectWith(scale, cfg, pol, opec.EngineBoot)
			fail(err)
			rows, err = h.InjectWith(scale, cfg, pol, opec.EngineFork)
			fail(err)
			if !opec.InjectRunsIdentical(boot, rows) {
				fmt.Print(opec.RenderInject(boot))
				fmt.Print(opec.RenderInject(rows))
				fail(fmt.Errorf("inject: fork engine diverged from power-on engine"))
			}
			trials := 0
			for _, r := range rows {
				trials += r.Trials
			}
			fmt.Printf("differential: fork == boot over %d trials\n", trials)
		}
		fail(err)
		fmt.Println(opec.RenderInject(rows))
		quickFlag := ""
		if *quick {
			quickFlag = " -quick"
		}
		for _, r := range rows {
			if r.SnapID != "" && len(r.Outcomes) > 0 {
				fmt.Printf("  replay any %s/%s trial: opec-run -app %s -mode %s%s -replay '%s@<spec>'\n",
					r.App, r.Scheme, r.App, replayMode(r.Scheme), quickFlag, r.SnapID)
			}
		}
		if *assertContained {
			for _, r := range rows {
				if r.Scheme == "OPEC" && r.Contained() != r.Trials {
					fail(fmt.Errorf("inject: %s under OPEC: only %d/%d trials contained (first escape: %s)",
						r.App, r.Contained(), r.Trials, r.FirstEscape))
				}
			}
			fmt.Println("assert-contained: every OPEC trial contained")
		}
		ran = true
	}
	// Not part of -exp all: a fuzzing campaign's cost is set by its
	// budget, not the sweep's shape.
	if strings.EqualFold(*exp, "fuzz") {
		rep, err := h.Fuzz(scale, *seed, *fuzzBudget, *fuzzRandom, pol, *backend)
		fail(err)
		fmt.Print(opec.RenderFuzz(rep))
		quickFlag := ""
		if *quick {
			quickFlag = " -quick"
		}
		if len(rep.Findings) > 0 {
			fmt.Printf("  replay any finding: opec-run -app %s -mode opec%s -max-cycles %d -replay '%s@<spec>'\n",
				rep.App, quickFlag, rep.TrialCycles, rep.SnapshotID)
		}
		if *assertContained {
			if n := rep.Escapes(); n > 0 {
				fail(fmt.Errorf("fuzz: %d of %d inputs escaped isolation", n, rep.Inputs))
			}
			fmt.Println("assert-contained: every fuzz input contained")
		}
		ran = true
	}
	// Not part of -exp all: the bench sweep re-times fresh runs and
	// would double every workload's cost.
	if strings.EqualFold(*exp, "bench") {
		rep, err := opec.CollectBench(scale, *parallel)
		fail(err)
		data, err := opec.MarshalBenchReport(rep)
		fail(err)
		out := *benchjson
		if out == "" {
			out = "BENCH_mach.json"
		}
		fail(os.WriteFile(out, data, 0o644))
		fmt.Printf("wrote %s (%s scale, %d workloads, %d experiments)\n",
			out, rep.Scale, len(rep.Workloads), len(rep.Experiments))
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "opec-bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// parseEngine checks -inject-engine's value, in any case.
func parseEngine(name string) (string, error) {
	switch e := strings.ToLower(name); e {
	case "fork", "boot", "diff":
		return e, nil
	}
	return "", fmt.Errorf("unknown -inject-engine %q (want fork | boot | diff)", name)
}

// replayMode maps a campaign scheme to the opec-run -mode that
// replays its trials.
func replayMode(scheme string) string {
	if scheme == "ACES-2" {
		return "aces2"
	}
	return "opec"
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "opec-bench:", err)
		os.Exit(1)
	}
}
