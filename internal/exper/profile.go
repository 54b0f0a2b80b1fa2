package exper

import (
	"fmt"
	"strings"

	"opec/internal/trace"
)

// The profiling experiment: every workload executed once under OPEC
// with the event trace attached, folded into per-operation cycle
// attribution (the Table 4 analogue — app cycles vs monitor overhead
// split into switch/sync/emulation buckets), plus the run's unified
// counter snapshot (machine, MPU/TLB, bus and monitor counters).

// ProfileRow is one workload's attribution summary. The per-domain
// breakdown is carried alongside for rendering; the JSON form (used by
// the BENCH_mach.json profile section) keeps only the aggregate.
type ProfileRow struct {
	App         string `json:"app"`
	Cycles      uint64 `json:"cycles"`
	Activations uint64 `json:"activations"`
	// Monitor-overhead buckets summed over all domains.
	SwitchCycles   uint64 `json:"switch_cycles"`
	SyncCycles     uint64 `json:"sync_cycles"`
	EmuCycles      uint64 `json:"emu_cycles"`
	RecoveryCycles uint64 `json:"recovery_cycles"`
	// OverheadPct is monitor cycles as a share of wall cycles.
	OverheadPct float64 `json:"overhead_pct"`
	// SwitchPerActivation should match the monitor's modeled gate
	// round-trip cost (monitor.ModeledSwitchCycles) on clean MPU runs.
	SwitchPerActivation float64 `json:"switch_per_activation"`
	// Events/Dropped are the trace bus totals for the run.
	Events  uint64 `json:"events"`
	Dropped uint64 `json:"dropped"`
	// Counters is the unified registry snapshot.
	Counters map[string]uint64 `json:"counters"`

	// Detail is the full per-domain profile (not serialized).
	Detail *trace.Profile `json:"-"`
}

// Profile runs every workload at scale s under OPEC with tracing and
// returns one attribution row per workload, in application order.
func (h *Harness) Profile(s AppSet) ([]ProfileRow, error) {
	appList := h.appsFor(s)
	rows := make([]ProfileRow, len(appList))
	err := h.forEach(len(appList), func(i int) error {
		app := appList[i]
		res, buf, prof, err := h.Cache.ProfileRun(app, s)
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		t := prof.Totals()
		row := ProfileRow{
			App:         app.Name,
			Cycles:      res.Cycles,
			Activations: t.Activations,

			SwitchCycles:   t.SwitchCycles,
			SyncCycles:     t.SyncCycles,
			EmuCycles:      t.EmuCycles,
			RecoveryCycles: t.RecoveryCycles,

			Events:  buf.Emitted(),
			Dropped: buf.Dropped(),
			Detail:  prof,
		}
		if t.WallCycles > 0 {
			row.OverheadPct = 100 * float64(t.MonitorCycles()) / float64(t.WallCycles)
		}
		if t.Activations > 0 {
			row.SwitchPerActivation = float64(t.SwitchCycles) / float64(t.Activations)
		}
		reg := &trace.Registry{}
		reg.Register(res.Machine)
		reg.Register(&res.Mon.Stats)
		reg.Register(buf)
		row.Counters = reg.Map()
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Profile is the one-shot convenience over a fresh harness.
func ProfileAll(s AppSet) ([]ProfileRow, error) { return NewHarness(0).Profile(s) }

// RenderProfile prints the summary table followed by each workload's
// per-domain attribution.
func RenderProfile(rows []ProfileRow) string {
	var sb strings.Builder
	sb.WriteString("Profiling: per-workload monitor-overhead attribution (cycles)\n")
	fmt.Fprintf(&sb, "%-11s %12s %6s %10s %10s %8s %8s %8s %9s %9s\n",
		"Application", "Cycles", "Acts", "Switch", "Sync", "Emu", "Recov",
		"Ovh%", "Sw/Act", "Events")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-11s %12d %6d %10d %10d %8d %8d %7.2f%% %9.1f %9d\n",
			r.App, r.Cycles, r.Activations, r.SwitchCycles, r.SyncCycles,
			r.EmuCycles, r.RecoveryCycles, r.OverheadPct, r.SwitchPerActivation,
			r.Events)
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "\n-- %s --\n%s", r.App, r.Detail.Render())
	}
	return sb.String()
}
