// Package metrics implements the paper's evaluation metrics: the
// partition-time over-privilege value PT (Equation 1), the
// execution-time over-privilege value ET (Equation 2) with its
// function-granularity execution tracing (the role GDB single-stepping
// plays in the paper), and the cumulative-ratio transform behind
// Figure 10.
package metrics

import (
	"fmt"
	"sort"

	"opec/internal/aces"
	"opec/internal/analysis"
	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/ir"
	"opec/internal/run"
	"opec/internal/trace"
)

// var2size sums the sizes of a set of global variables (the paper's
// var2size function). Constants and heap pools are excluded: constants
// are immutable and pools live in the shared heap section under both
// schemes.
func var2size(vars map[*ir.Global]bool) int {
	n := 0
	for g := range vars {
		if g.Const || g.HeapPool {
			continue
		}
		n += g.Size()
	}
	return n
}

// PT computes Equation 1 for one domain: the fraction of its accessible
// global bytes that no member function needs. A domain with no
// accessible globals has PT 0.
func PT(accessible, needed []*ir.Global) float64 {
	acc := make(map[*ir.Global]bool, len(accessible))
	for _, g := range accessible {
		acc[g] = true
	}
	need := make(map[*ir.Global]bool, len(needed))
	for _, g := range needed {
		need[g] = true
	}
	unneeded := make(map[*ir.Global]bool)
	for g := range acc {
		if !need[g] {
			unneeded[g] = true
		}
	}
	den := var2size(acc)
	if den == 0 {
		return 0
	}
	return float64(var2size(unneeded)) / float64(den)
}

// PTsForACES returns the PT value of every compartment under an ACES
// build, in compartment order.
func PTsForACES(b *aces.Build) []float64 {
	out := make([]float64, len(b.Comps))
	for i, c := range b.Comps {
		out[i] = PT(c.AccessibleVars(), c.NeededVars())
	}
	return out
}

// PTsForOPEC returns the PT of every operation — zero by construction,
// since an operation data section contains exactly the globals the
// operation needs; kept as a checked computation rather than a constant
// so tests can falsify the claim.
func PTsForOPEC(b *core.Build) []float64 {
	out := make([]float64, len(b.Ops))
	for i, op := range b.Ops {
		needed := make([]*ir.Global, 0, len(op.Globals))
		needed = append(needed, op.Globals...)
		out[i] = PT(op.Globals, needed)
	}
	return out
}

// CumulativeRatio returns Figure 10's y-values: for each threshold t,
// the fraction of domains whose PT is <= t.
func CumulativeRatio(pts []float64, thresholds []float64) []float64 {
	sorted := append([]float64(nil), pts...)
	sort.Float64s(sorted)
	out := make([]float64, len(thresholds))
	for i, t := range thresholds {
		n := sort.SearchFloat64s(sorted, t+1e-9)
		if len(sorted) == 0 {
			out[i] = 1
		} else {
			out[i] = float64(n) / float64(len(sorted))
		}
	}
	return out
}

// TaskTrace records which functions executed inside each task during a
// real run. A task is one operation-entry activation scope: everything
// executed from entering the entry until it returns (nested entries
// attribute to the inner task, matching the operation definition).
//
// Functions are recorded by name so a trace taken on one module
// instance can be evaluated against builds of fresh instances of the
// same workload (every build compiles its own copy).
type TaskTrace struct {
	// Executed maps task name (entry function name, "main" for the
	// default task) to its executed function-name set.
	Executed map[string]map[string]bool
	// Order is the first-activation order of tasks.
	Order []string
}

// taskFolder folds the machine's EvCall/EvCallRet stream into a
// TaskTrace, attributing every executed function to the innermost
// active task. It runs as a streaming trace sink, so it sees every
// event regardless of ring capacity.
type taskFolder struct {
	buf     *trace.Buffer
	entries map[string]bool
	stack   []string
	record  func(task, fn string)
}

func (f *taskFolder) HandleEvent(e trace.Event) {
	switch e.Kind {
	case trace.EvCall:
		name := f.buf.Name(e.Arg)
		if f.entries[name] {
			f.stack = append(f.stack, name)
		}
		f.record(f.stack[len(f.stack)-1], name)
	case trace.EvCallRet:
		name := f.buf.Name(e.Arg)
		if f.entries[name] && len(f.stack) > 1 {
			f.stack = f.stack[:len(f.stack)-1]
		}
	}
}

// TraceTasks runs the instance under the vanilla build with the event
// trace attached and attributes every executed function to the
// innermost active task by folding the call/return event stream.
// entries is the operation entry set (from the instance's Config).
func TraceTasks(inst *apps.Instance) (*TaskTrace, error) {
	entrySet := make(map[string]bool)
	for _, name := range inst.Cfg.Entries {
		if inst.Mod.Func(name) == nil {
			return nil, fmt.Errorf("metrics: entry %q not found", name)
		}
		entrySet[name] = true
	}

	tr := &TaskTrace{Executed: make(map[string]map[string]bool)}
	record := func(task, fn string) {
		set := tr.Executed[task]
		if set == nil {
			set = make(map[string]bool)
			tr.Executed[task] = set
			tr.Order = append(tr.Order, task)
		}
		set[fn] = true
	}
	// A tiny ring suffices: the folder consumes the stream as a sink, so
	// ring drops cannot lose attribution.
	buf := trace.NewBuffer(64)
	buf.Attach(&taskFolder{buf: buf, entries: entrySet, stack: []string{"main"}, record: record})
	record("main", "main")
	if _, err := run.VanillaWith(inst, run.Options{Trace: buf}); err != nil {
		return nil, err
	}
	return tr, nil
}

// usedVars is Equation 2's numerator input: the global dependencies of
// the functions that actually executed in the task. Executed functions
// are named; mod resolves them into the evaluating build's module.
func usedVars(executed map[string]bool, mod *ir.Module, deps map[*ir.Function]*analysis.FuncDeps) map[*ir.Global]bool {
	used := make(map[*ir.Global]bool)
	for name := range executed {
		f := mod.Func(name)
		if f == nil {
			continue
		}
		d := deps[f]
		if d == nil {
			continue
		}
		for g := range d.Globals {
			used[g] = true
		}
	}
	return used
}

// ET computes Equation 2 given the used and needed variable sets.
func ET(used, needed map[*ir.Global]bool) float64 {
	den := var2size(needed)
	if den == 0 {
		return 0
	}
	return 1 - float64(var2size(used))/float64(den)
}

// ETForOPEC returns the per-task ET under OPEC: each task is one
// operation, and the needed set is the operation's global dependency.
// Tasks are returned in trace order.
func ETForOPEC(b *core.Build, tr *TaskTrace) ([]string, []float64) {
	opByName := make(map[string]*core.Operation, len(b.Ops))
	for _, op := range b.Ops {
		opByName[op.Name] = op
	}
	var names []string
	var ets []float64
	for _, task := range tr.Order {
		op := opByName[task]
		if op == nil {
			continue
		}
		needed := make(map[*ir.Global]bool)
		for _, f := range op.Funcs {
			d := b.Analysis.Deps[f]
			for g := range d.Globals {
				needed[g] = true
			}
		}
		used := usedVars(tr.Executed[task], b.Mod, b.Analysis.Deps)
		names = append(names, task)
		ets = append(ets, ET(used, needed))
	}
	return names, ets
}

// ETForACES returns the per-task ET under an ACES build: the needed set
// is the global dependency of every function inside every compartment
// the task's execution touched (Section 6.4).
func ETForACES(b *aces.Build, tr *TaskTrace) ([]string, []float64) {
	var names []string
	var ets []float64
	for _, task := range tr.Order {
		executed := tr.Executed[task]
		involved := make(map[*aces.Compartment]bool)
		for name := range executed {
			f := b.Mod.Func(name)
			if f == nil {
				continue
			}
			if c := b.CompOf[f]; c != nil {
				involved[c] = true
			}
		}
		needed := make(map[*ir.Global]bool)
		for c := range involved {
			for _, f := range c.Funcs {
				d := b.Analysis.Deps[f]
				for g := range d.Globals {
					needed[g] = true
				}
			}
		}
		used := usedVars(executed, b.Mod, b.Analysis.Deps)
		names = append(names, task)
		ets = append(ets, ET(used, needed))
	}
	return names, ets
}

// SwitchesPerTask counts domain switches a task's execution causes
// under ACES (cross-compartment call edges in the trace are not
// directly observable here, so this uses the static involvement count
// as the Figure 4 proxy: more involved compartments, more switching).
func SwitchesPerTask(b *aces.Build, tr *TaskTrace) map[string]int {
	out := make(map[string]int)
	for task, executed := range tr.Executed {
		involved := make(map[*aces.Compartment]bool)
		for name := range executed {
			f := b.Mod.Func(name)
			if f == nil {
				continue
			}
			if c := b.CompOf[f]; c != nil {
				involved[c] = true
			}
		}
		out[task] = len(involved)
	}
	return out
}
