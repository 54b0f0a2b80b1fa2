package exper

import (
	"fmt"
	"hash/fnv"
	"strings"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/inject"
	"opec/internal/monitor"
	"opec/internal/trace"
)

// The fault-injection campaign experiment: every workload's seeded
// trial catalogue (internal/inject) replayed under OPEC with a chosen
// recovery policy and under the merged-region ACES configuration
// (ACES-2, the §6.1 over-privilege vector), aggregated into one
// containment row per workload × scheme. Trials are symbolic specs, so
// a campaign at one seed is exactly reproducible and any row's first
// escape can be replayed alone with `opec-run -inject`.

// InjectRow aggregates one workload × scheme leg of a campaign.
type InjectRow struct {
	App    string `json:"app"`
	Scheme string `json:"scheme"` // "OPEC" | "ACES-2"
	Policy string `json:"policy"` // OPEC recovery policy; "-" under ACES
	Trials int    `json:"trials"`
	// Counts histograms the trial verdicts, indexed by inject.Verdict.
	Counts [inject.NumVerdicts]int `json:"counts"`
	// Restarts/Quarantines total the recovery-policy activity.
	Restarts    uint64 `json:"restarts"`
	Quarantines uint64 `json:"quarantines"`
	// FirstEscape is the replay spec of the row's first escaped trial
	// (`opec-run -inject <spec>` reproduces it), empty when contained.
	FirstEscape string `json:"first_escape,omitempty"`
	// SnapID is the pre-injection checkpoint identity when the row ran
	// on the fork engine (empty on the power-on engine). Any trial of
	// the row replays exactly from `snap id + spec`:
	// `opec-run -replay '<snap_id>@<spec>'`.
	SnapID string `json:"snap_id,omitempty"`
	// Outcomes holds the row's per-trial outcomes in planning order —
	// the fork-vs-boot differential compares them trial by trial. Not
	// serialized: the aggregate fields above are the reportable result.
	Outcomes []inject.Outcome `json:"-"`
}

// Count returns the number of trials with verdict v.
func (r *InjectRow) Count(v inject.Verdict) int { return r.Counts[v] }

// Escapes returns the row's escaped-trial count.
func (r *InjectRow) Escapes() int { return r.Counts[inject.Escaped] }

// Counters implements trace.CounterSource: the row's verdict histogram
// and recovery activity under dotted names, for the unified registry.
func (r *InjectRow) Counters() []trace.Counter {
	prefix := "inject." + strings.ToLower(r.Scheme) + "."
	out := make([]trace.Counter, 0, inject.NumVerdicts+2)
	for v := 0; v < inject.NumVerdicts; v++ {
		out = append(out, trace.Counter{
			Name:  prefix + inject.Verdict(v).String(),
			Value: uint64(r.Counts[v]),
		})
	}
	out = append(out,
		trace.Counter{Name: prefix + "restarts", Value: r.Restarts},
		trace.Counter{Name: prefix + "quarantines", Value: r.Quarantines},
	)
	return out
}

// Contained returns the number of trials whose verdict kept the fault
// inside its domain.
func (r *InjectRow) Contained() int {
	n := 0
	for v := 0; v < inject.NumVerdicts; v++ {
		if inject.Verdict(v).Contained() {
			n += r.Counts[v]
		}
	}
	return n
}

// InjectEngine selects how a campaign executes its trials.
type InjectEngine int

// Campaign engines.
const (
	// EngineFork boots each (workload, scheme) row once, checkpoints at
	// the pre-injection point, and forks every trial from the snapshot.
	// This is the default: per-trial cost drops from
	// construct+compile+prove+boot+run to restore+run.
	EngineFork InjectEngine = iota
	// EngineBoot builds every trial from power-on — the reference
	// semantics. The differential smoke proves EngineFork renders a
	// byte-identical table against it.
	EngineBoot
)

func (e InjectEngine) String() string {
	if e == EngineBoot {
		return "boot"
	}
	return "fork"
}

// rowPlan is one workload × scheme leg: its aggregate row plus the
// exact trial list and per-trial budget, fixed at planning time.
type rowPlan struct {
	row    InjectRow
	app    *apps.App
	aces   bool
	budget uint64
	specs  []inject.Spec
}

// Inject runs the fault-injection campaign on the fork engine: all
// workloads under OPEC with the given recovery policy, plus the five
// comparison workloads under ACES-2 against the identical trial list
// (minus gate trials, which ACES cannot express).
func (h *Harness) Inject(s AppSet, cfg inject.Config, pol monitor.Policy) ([]InjectRow, error) {
	return h.InjectWith(s, cfg, pol, EngineFork)
}

// InjectWith is Inject with an explicit trial engine. Each workload
// plans from its own seed-derived sub-generator, so the campaign is
// deterministic per (seed, scale) and insensitive to harness
// parallelism — and, by the forge's byte-identity contract, to the
// engine: both engines render the same table. Trials run on a 4×
// budget of the workload's clean-run cycles, bounding hung runs.
func (h *Harness) InjectWith(s AppSet, cfg inject.Config, pol monitor.Policy, engine InjectEngine) ([]InjectRow, error) {
	plans, err := h.planInject(s, cfg, pol)
	if err != nil {
		return nil, err
	}
	if err := h.runInject(plans, pol, engine); err != nil {
		return nil, err
	}
	return aggregateInject(plans), nil
}

// aggregateInject folds each plan's per-trial outcomes into its row,
// in planning order — rows are identical at every parallelism level
// and on either engine.
func aggregateInject(plans []*rowPlan) []InjectRow {
	rows := make([]InjectRow, len(plans))
	for i := range plans {
		r := plans[i].row
		for _, o := range r.Outcomes {
			r.Counts[o.Verdict]++
			r.Restarts += o.Restarts
			r.Quarantines += o.Quarantines
			if o.Verdict == inject.Escaped && r.FirstEscape == "" {
				r.FirstEscape = o.Spec.String()
			}
		}
		rows[i] = r
	}
	return rows
}

// planInject fixes the campaign's rows, trial lists and budgets.
func (h *Harness) planInject(s AppSet, cfg inject.Config, pol monitor.Policy) ([]*rowPlan, error) {
	var plans []*rowPlan
	appList := h.appsFor(s)
	acesSet := make(map[string]bool)
	for _, app := range acesApps(appList) {
		acesSet[app.Name] = true
	}
	for _, app := range appList {
		a, err := h.Cache.opecArtifact(app, s)
		if err != nil {
			return nil, fmt.Errorf("inject: %w", err)
		}
		appCfg := cfg
		appCfg.Seed = subSeed(cfg.Seed, app.Name)
		specs := inject.Plan(a.b, a.inst.Devices, appCfg)

		ro, err := h.Cache.OPECRun(app, s)
		if err != nil {
			return nil, fmt.Errorf("inject: %w", err)
		}
		plans = append(plans, &rowPlan{
			row: InjectRow{
				App: app.Name, Scheme: "OPEC",
				Policy: pol.Kind.String(), Trials: len(specs),
			},
			app: app, budget: 4 * ro.Cycles, specs: specs,
		})

		if !acesSet[app.Name] {
			continue
		}
		ra, err := h.Cache.ACESRun(app, s, aces.FilenameNoOpt)
		if err != nil {
			return nil, fmt.Errorf("inject: %w", err)
		}
		ap := &rowPlan{
			row: InjectRow{App: app.Name, Scheme: "ACES-2", Policy: "-"},
			app: app, aces: true, budget: 4 * ra.Cycles,
		}
		for _, sp := range specs {
			if sp.Kind == inject.BadGate {
				continue
			}
			ap.row.Trials++
			ap.specs = append(ap.specs, sp)
		}
		plans = append(plans, ap)
	}
	return plans, nil
}

// runInject executes every row's trials in planning order. The fork
// engine boots one forge per row and forks every trial from its
// checkpoint; the boot engine boots a fresh forge for every trial —
// the same trial code with a power-on lifetime. Rows run in parallel;
// a forge's machine is serial.
func (h *Harness) runInject(plans []*rowPlan, pol monitor.Policy, engine InjectEngine) error {
	return h.forEach(len(plans), func(i int) error {
		p := plans[i]
		newForge := func() (*inject.Forge, error) {
			if p.aces {
				return inject.NewACESForge(p.app, aces.FilenameNoOpt)
			}
			return inject.NewForge(p.app)
		}
		var rowForge *inject.Forge
		if engine == EngineFork {
			var err error
			if rowForge, err = newForge(); err != nil {
				return fmt.Errorf("inject: %s: %w", p.app.Name, err)
			}
			p.row.SnapID = rowForge.SnapshotID()
		}
		p.row.Outcomes = make([]inject.Outcome, len(p.specs))
		for k, sp := range p.specs {
			forge := rowForge
			if forge == nil {
				var err error
				if forge, err = newForge(); err != nil {
					return fmt.Errorf("inject: %s: %w", p.app.Name, err)
				}
			}
			out, err := forge.Run(sp, pol, p.budget)
			if err != nil {
				return fmt.Errorf("inject: %s trial %s: %w", p.app.Name, sp, err)
			}
			p.row.Outcomes[k] = out
		}
		return nil
	})
}

// subSeed derives a workload's campaign seed, decoupling its trial
// sampling from every other workload's.
func subSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// RenderInject prints the campaign's containment table plus a replay
// line for every row that escaped.
func RenderInject(rows []InjectRow) string {
	var sb strings.Builder
	sb.WriteString("Fault injection: trial verdicts per workload (ESC = isolation escapes)\n")
	fmt.Fprintf(&sb, "%-11s %-7s %-10s %6s %6s %5s %5s %5s %5s %6s %7s %5s %4s %5s %5s %5s\n",
		"Application", "Scheme", "Policy", "Trials", "Untrig",
		"MPU", "Sani", "Gate", "Recov", "Benign", "Corrupt", "Hung", "ESC", "Crash",
		"Rst", "Quar")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-11s %-7s %-10s %6d %6d %5d %5d %5d %5d %6d %7d %5d %4d %5d %5d %5d\n",
			r.App, r.Scheme, r.Policy, r.Trials, r.Count(inject.Untriggered),
			r.Count(inject.ContainedMPU), r.Count(inject.ContainedSanitize),
			r.Count(inject.ContainedGate), r.Count(inject.Recovered),
			r.Count(inject.Benign), r.Count(inject.Corrupted),
			r.Count(inject.Hung), r.Escapes(), r.Count(inject.CrashedMonitor),
			r.Restarts, r.Quarantines)
	}
	for _, r := range rows {
		if r.FirstEscape != "" {
			fmt.Fprintf(&sb, "  replay first escape of %s/%s: opec-run -app %s -mode %s -inject '%s'\n",
				r.App, r.Scheme, r.App, replayMode(r.Scheme), r.FirstEscape)
		}
	}
	return sb.String()
}

func replayMode(scheme string) string {
	if scheme == "ACES-2" {
		return "aces2"
	}
	return "opec"
}
