// Package exper regenerates every table and figure of the paper's
// evaluation (Section 6): Table 1 (security metrics), Figure 9
// (performance overheads), Table 2 (comparison to ACES), Figure 10
// (partition-time over-privilege CDFs), Figure 11 (execution-time
// over-privilege per task) and Table 3 (icall analysis efficiency).
//
// Experiments are methods on a Harness, which owns a memoized build
// cache (compilation mutates modules, so the cache compiles one fresh
// workload instance per (app, scheme, scale) key and shares the
// immutable build) and a bounded worker pool that fans per-app work
// out while reassembling results in the fixed application order —
// rendered tables are byte-identical at every parallelism level. The
// package-level functions are one-shot conveniences over a fresh
// harness; a sweep over several experiments should share one harness
// so builds and runs are reused across them.
package exper

import (
	"fmt"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/metrics"
)

// AppSet selects workload sizes.
type AppSet int

// Full matches the paper's profiling windows; Quick shrinks rounds for
// tests and benchmarks.
const (
	Full AppSet = iota
	Quick
)

// AppsFor returns the seven workloads at the requested scale.
func AppsFor(s AppSet) []*apps.App {
	if s == Full {
		return apps.All()
	}
	return []*apps.App{
		apps.PinLockN(5),
		apps.AnimationN(3),
		apps.FatFsUSD(),
		apps.LCDuSDN(2),
		apps.TCPEchoN(3, 9),
		apps.Camera(),
		apps.CoreMarkN(3),
	}
}

// acesApps returns the five ACES-comparison workloads (Section 6.4) of
// a scale's workload list.
func acesApps(all []*apps.App) []*apps.App { return all[:5] }

// Strategies is the evaluated ACES policy order.
var Strategies = []aces.Strategy{aces.Filename, aces.FilenameNoOpt, aces.Peripheral}

// One-shot conveniences: each builds a fresh harness (default
// parallelism), so repeated calls recompile from scratch. Sweeps
// should construct one Harness and call its methods instead.

// Table1 computes the Table 1 metrics for every workload.
func Table1(s AppSet) ([]Table1Row, error) { return NewHarness(0).Table1(s) }

// Figure9 measures runtime, Flash and SRAM overheads for every
// workload.
func Figure9(s AppSet) ([]Figure9Row, error) { return NewHarness(0).Figure9(s) }

// Table2 runs the five ACES applications under OPEC and all three ACES
// strategies.
func Table2(s AppSet) ([]Table2Row, error) { return NewHarness(0).Table2(s) }

// Figure10 computes the PT CDFs of the five ACES applications.
func Figure10(s AppSet) ([]Figure10Series, error) { return NewHarness(0).Figure10(s) }

// Figure11 evaluates per-task execution-time over-privilege.
func Figure11(s AppSet) ([]Figure11Series, error) { return NewHarness(0).Figure11(s) }

// Table3 reports the indirect-call resolution statistics per workload.
func Table3(s AppSet) ([]Table3Row, error) { return NewHarness(0).Table3(s) }

// ---- Table 1 ----

// Table1Row is one application's security metrics.
type Table1Row struct {
	App         string
	Ops         int
	AvgFuncs    float64
	PriCode     int     // privileged (monitor) code bytes
	PriCodePct  float64 // vs baseline application code
	AvgGVars    float64 // average accessible global bytes per operation
	AvgGVarsPct float64 // vs total writable global bytes
}

// Table1 computes the Table 1 metrics for every workload.
func (h *Harness) Table1(s AppSet) ([]Table1Row, error) {
	appList := h.appsFor(s)
	rows := make([]Table1Row, len(appList))
	err := h.forEach(len(appList), func(i int) error {
		app := appList[i]
		b, err := h.Cache.OPECBuild(app, s)
		if err != nil {
			return fmt.Errorf("table1: %w", err)
		}
		row := Table1Row{App: app.Name, Ops: len(b.Ops), PriCode: b.MonitorCodeBytes}
		funcs, gbytes := 0, 0
		for _, op := range b.Ops {
			funcs += len(op.Funcs)
			gbytes += op.GlobalBytes()
		}
		row.AvgFuncs = float64(funcs) / float64(len(b.Ops))
		row.AvgGVars = float64(gbytes) / float64(len(b.Ops))
		row.PriCodePct = 100 * float64(b.MonitorCodeBytes) / float64(b.CodeBytes+b.RODataBytes)
		total := b.Mod.DataBytes()
		if total > 0 {
			row.AvgGVarsPct = 100 * row.AvgGVars / float64(total)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	if avg, ok := averageTable1(rows); ok {
		rows = append(rows, avg)
	}
	return rows, nil
}

// averageTable1 builds the "Average" row. An empty row set has no
// average (the unguarded division would produce a NaN row), reported
// via the second return.
func averageTable1(rows []Table1Row) (Table1Row, bool) {
	if len(rows) == 0 {
		return Table1Row{}, false
	}
	avg := Table1Row{App: "Average"}
	n := float64(len(rows))
	for _, r := range rows {
		avg.Ops += r.Ops
		avg.AvgFuncs += r.AvgFuncs / n
		avg.PriCode += r.PriCode
		avg.PriCodePct += r.PriCodePct / n
		avg.AvgGVars += r.AvgGVars / n
		avg.AvgGVarsPct += r.AvgGVarsPct / n
	}
	avg.Ops = int(float64(avg.Ops)/n + 0.5)
	avg.PriCode = int(float64(avg.PriCode)/n + 0.5)
	return avg, true
}

// ---- Figure 9 ----

// Figure9Row is one application's OPEC-vs-vanilla overheads.
type Figure9Row struct {
	App        string
	RuntimePct float64
	FlashPct   float64
	SRAMPct    float64

	VanillaCycles uint64
	OPECCycles    uint64
}

// Figure9 measures runtime, Flash and SRAM overheads for every
// workload.
func (h *Harness) Figure9(s AppSet) ([]Figure9Row, error) {
	appList := h.appsFor(s)
	rows := make([]Figure9Row, len(appList))
	err := h.forEach(len(appList), func(i int) error {
		row, err := h.figure9One(appList[i], s)
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n := float64(len(rows)); n > 0 {
		avg := Figure9Row{App: "Average"}
		for _, r := range rows {
			avg.RuntimePct += r.RuntimePct / n
			avg.FlashPct += r.FlashPct / n
			avg.SRAMPct += r.SRAMPct / n
		}
		rows = append(rows, avg)
	}
	return rows, nil
}

func (h *Harness) figure9One(app *apps.App, s AppSet) (Figure9Row, error) {
	rv, err := h.Cache.VanillaRun(app, s)
	if err != nil {
		return Figure9Row{}, fmt.Errorf("figure9: %w", err)
	}
	ro, err := h.Cache.OPECRun(app, s)
	if err != nil {
		return Figure9Row{}, fmt.Errorf("figure9: %w", err)
	}
	board := ro.Build.Board
	return Figure9Row{
		App:           app.Name,
		RuntimePct:    100 * (float64(ro.Cycles)/float64(rv.Cycles) - 1),
		FlashPct:      100 * float64(ro.Build.FlashUsed-rv.Van.FlashUsed) / float64(board.FlashSize),
		SRAMPct:       100 * float64(ro.Build.SRAMUsed-rv.Van.SRAMUsed) / float64(board.SRAMSize),
		VanillaCycles: rv.Cycles,
		OPECCycles:    ro.Cycles,
	}, nil
}

// ---- Table 2 ----

// Table2Row compares one policy on one application.
type Table2Row struct {
	App    string
	Policy string  // "OPEC", "ACES-1", "ACES-2", "ACES-3"
	RO     float64 // runtime overhead factor vs vanilla (X)
	FO     float64 // Flash overhead %
	SO     float64 // SRAM overhead %
	PAC    float64 // privileged application code %
}

// Table2 runs the five ACES applications under OPEC and all three ACES
// strategies.
func (h *Harness) Table2(s AppSet) ([]Table2Row, error) {
	appList := acesApps(h.appsFor(s))
	perApp := make([][]Table2Row, len(appList))
	err := h.forEach(len(appList), func(i int) error {
		app := appList[i]
		rv, err := h.Cache.VanillaRun(app, s)
		if err != nil {
			return fmt.Errorf("table2: %w", err)
		}
		ro, err := h.Cache.OPECRun(app, s)
		if err != nil {
			return fmt.Errorf("table2: %w", err)
		}
		board := ro.Build.Board
		rows := []Table2Row{{
			App: app.Name, Policy: "OPEC",
			RO:  float64(ro.Cycles) / float64(rv.Cycles),
			FO:  100 * float64(ro.Build.FlashUsed-rv.Van.FlashUsed) / float64(board.FlashSize),
			SO:  100 * float64(ro.Build.SRAMUsed-rv.Van.SRAMUsed) / float64(board.SRAMSize),
			PAC: 0, // OPEC keeps all application code unprivileged
		}}
		for j, strat := range Strategies {
			ra, err := h.Cache.ACESRun(app, s, strat)
			if err != nil {
				return fmt.Errorf("table2: %w", err)
			}
			rows = append(rows, Table2Row{
				App: app.Name, Policy: fmt.Sprintf("ACES-%d", j+1),
				RO:  float64(ra.Cycles) / float64(rv.Cycles),
				FO:  100 * float64(ra.ABld.FlashUsed-rv.Van.FlashUsed) / float64(board.FlashSize),
				SO:  100 * float64(ra.ABld.SRAMUsed-rv.Van.SRAMUsed) / float64(board.SRAMSize),
				PAC: 100 * float64(ra.ABld.PrivilegedCodeBytes()) / float64(ra.ABld.CodeBytes),
			})
		}
		perApp[i] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, r := range perApp {
		rows = append(rows, r...)
	}
	return rows, nil
}

// ---- Figure 10 ----

// Figure10Series is the PT CDF of one app under one strategy.
type Figure10Series struct {
	App      string
	Strategy string
	PTs      []float64 // raw per-compartment PT values
	// Thresholds/CDF are the plotted cumulative-ratio points.
	Thresholds []float64
	CDF        []float64
}

// Figure10Thresholds are the plot's x-axis points.
var Figure10Thresholds = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// Figure10 computes the PT CDFs of the five ACES applications under the
// three strategies (plus OPEC's, which is identically zero — included
// so the claim is produced by measurement, not assumption).
func (h *Harness) Figure10(s AppSet) ([]Figure10Series, error) {
	appList := acesApps(h.appsFor(s))
	perApp := make([][]Figure10Series, len(appList))
	err := h.forEach(len(appList), func(i int) error {
		app := appList[i]
		var out []Figure10Series
		for j, strat := range Strategies {
			b, err := h.Cache.ACESBuild(app, s, strat)
			if err != nil {
				return fmt.Errorf("figure10: %w", err)
			}
			pts := metrics.PTsForACES(b)
			out = append(out, Figure10Series{
				App: app.Name, Strategy: fmt.Sprintf("ACES%d", j+1),
				PTs:        pts,
				Thresholds: Figure10Thresholds,
				CDF:        metrics.CumulativeRatio(pts, Figure10Thresholds),
			})
		}
		ob, err := h.Cache.OPECBuild(app, s)
		if err != nil {
			return fmt.Errorf("figure10: %w", err)
		}
		pts := metrics.PTsForOPEC(ob)
		out = append(out, Figure10Series{
			App: app.Name, Strategy: "OPEC",
			PTs:        pts,
			Thresholds: Figure10Thresholds,
			CDF:        metrics.CumulativeRatio(pts, Figure10Thresholds),
		})
		perApp[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []Figure10Series
	for _, series := range perApp {
		out = append(out, series...)
	}
	return out, nil
}

// ---- Figure 11 ----

// Figure11Series is the per-task ET of one app under one policy.
type Figure11Series struct {
	App      string
	Strategy string
	Tasks    []string
	ET       []float64
}

// Figure11 traces each of the five applications once and evaluates the
// per-task execution-time over-privilege under OPEC and the three ACES
// strategies.
func (h *Harness) Figure11(s AppSet) ([]Figure11Series, error) {
	appList := acesApps(h.appsFor(s))
	perApp := make([][]Figure11Series, len(appList))
	err := h.forEach(len(appList), func(i int) error {
		app := appList[i]
		tr, err := h.Cache.Trace(app, s)
		if err != nil {
			return fmt.Errorf("figure11: %w", err)
		}
		ob, err := h.Cache.OPECBuild(app, s)
		if err != nil {
			return fmt.Errorf("figure11: %w", err)
		}
		names, ets := metrics.ETForOPEC(ob, tr)
		out := []Figure11Series{{App: app.Name, Strategy: "OPEC", Tasks: names, ET: ets}}
		for j, strat := range Strategies {
			ab, err := h.Cache.ACESBuild(app, s, strat)
			if err != nil {
				return fmt.Errorf("figure11: %w", err)
			}
			anames, aets := metrics.ETForACES(ab, tr)
			out = append(out, Figure11Series{
				App: app.Name, Strategy: fmt.Sprintf("ACES%d", j+1),
				Tasks: anames, ET: aets,
			})
		}
		perApp[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []Figure11Series
	for _, series := range perApp {
		out = append(out, series...)
	}
	return out, nil
}

// ---- Table 3 ----

// Table3Row is one application's icall-analysis efficiency.
type Table3Row struct {
	App        string
	ICalls     int
	SVF        int
	Seconds    float64
	TypeBased  int
	Unresolved int
	AvgTargets float64
	MaxTargets int
}

// Table3 reports the indirect-call resolution statistics per workload.
func (h *Harness) Table3(s AppSet) ([]Table3Row, error) {
	appList := h.appsFor(s)
	rows := make([]Table3Row, len(appList))
	err := h.forEach(len(appList), func(i int) error {
		app := appList[i]
		b, err := h.Cache.OPECBuild(app, s)
		if err != nil {
			return fmt.Errorf("table3: %w", err)
		}
		st := b.Analysis.CG.Stats
		rows[i] = Table3Row{
			App:        app.Name,
			ICalls:     st.NumICalls,
			SVF:        st.ResolvedSVF,
			Seconds:    st.SolveSeconds,
			TypeBased:  st.ResolvedType,
			Unresolved: st.Unresolved,
			AvgTargets: st.AvgTargets,
			MaxTargets: st.MaxTargets,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
