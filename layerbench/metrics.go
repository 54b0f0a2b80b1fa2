package main

import "opec/internal/inject"

// metricDef is one reported metric; the lists below are the ones
// BENCHMARK.json declares, in the same order.
type metricDef struct{ name, unit string }

// endToEnd is what each workload costs its user, measured with tracing
// off, in process CPU time (see clock). A pass is the workload's whole
// user flow once; an operation is one app × scheme pipeline (simulate),
// one fault-injection trial (campaign) or one fuzz input (fuzz).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_cpu_s", "s"},
	{"ops_per_cpu_s", "1/s"},
	{"live_heap_mb", "MB"},
}

// shareLayers are the layers whose self time the traced phase reports
// as a share of its wall time.
var shareLayers = []string{"apps", "core", "monitor", "aces", "mach", "inject", "debug", "fuzz", "other"}

// perLayer is what the traced run reports. Every workload reports every
// metric; a layer a workload never calls reads 0, which is why the
// per-call times here are only those of layers every workload calls
// (the others are printed above the result line).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"apps.new_ms", "ms"},
		{"ir.verify_ms", "ms"},
		{"analysis.pointsto_ms", "ms"},
		{"analysis.pointsto_iters", "count"},
		{"analysis.analyze_ms", "ms"},
		{"core.partition_ms", "ms"},
		{"core.compile_ms", "ms"},
		{"core.layout_certify_ms", "ms"},
		{"absint.proven_pct", "%"},
		{"run.boot_ms", "ms"},
		{"monitor.boot_ms", "ms"},
		{"monitor.run_ms", "ms"},
		{"mach.sim_mips.vanilla", "MIPS"},
		{"mach.sim_mips.opec", "MIPS"},
		{"mach.sim_mips.aces", "MIPS"},
		{"mach.instrs.vanilla", "count"},
		{"mach.instrs.opec", "count"},
		{"mach.instrs.aces", "count"},
		{"mach.sim_cycles.vanilla", "count"},
		{"mach.sim_cycles.opec", "count"},
		{"mach.sim_cycles.aces", "count"},
		{"sim.opec_overhead_pct", "%"},
		{"mach.frame_reuse", "count"},
		{"mach.bus.dev_cache_hits", "count"},
		{"mach.proofs.elided", "count"},
		{"mach.proofs.checked", "count"},
		{"mach.proof_elide_ratio", "ratio"},
		{"mach.tlb.hits", "count"},
		{"mach.tlb.misses", "count"},
		{"mach.tlb.invalidations", "count"},
		{"mach.tlb_hit_ratio", "ratio"},
		{"mach.mpu.reconfigs", "count"},
		{"monitor.switches", "count"},
		{"monitor.words_synced", "count"},
		{"monitor.reloc_updates", "count"},
		{"monitor.emulations", "count"},
		{"monitor.restarts", "count"},
		{"monitor.restart_cycles", "count"},
		{"aces.switches", "count"},
		{"inject.trials", "count"},
	}
	for v := 0; v < inject.NumVerdicts; v++ {
		defs = append(defs, metricDef{"inject.verdicts." + inject.Verdict(v).String(), "count"})
	}
	defs = append(defs,
		metricDef{"debug.sessions", "count"},
		metricDef{"debug.keyframes", "count"},
		metricDef{"debug.reexecs", "count"},
		metricDef{"trace.events_per_trial", "count"},
		metricDef{"trace.cov_overhead_pct", "%"},
		metricDef{"fuzz.inputs", "count"},
		metricDef{"fuzz.unique_edges", "count"},
		metricDef{"fuzz.corpus_frames", "count"},
		metricDef{"fuzz.corpus_gates", "count"},
		metricDef{"fuzz.findings", "count"},
	)
	for _, l := range shareLayers {
		defs = append(defs, metricDef{"span." + l + "_pct", "%"})
	}
	for _, b := range buckets {
		defs = append(defs, metricDef{"self." + b + "_pct", "%"})
	}
	return append(defs,
		metricDef{"go.alloc_mb", "MB"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"bench.pass_wall_s", "s"},
		metricDef{"bench.trace_overhead_pct", "%"},
	)
}()

// layerValues assembles the per-layer metrics of a traced run from the
// last set-up, the untraced, traced and probe phases, the recorded
// spans, the folded CPU profile and the workload's probes.
func layerValues(set, plain, tr, pr *phase, spans []span, cpu map[string]int64, probes map[string]float64) map[string]float64 {
	out := map[string]float64{}
	c := map[string]float64{}
	for _, ph := range []*phase{set, tr, pr} {
		for k, v := range ph.count {
			c[k] += v
		}
	}
	for k, v := range c {
		out[k] = v
	}
	for k, v := range probes {
		out[k] = v
	}

	for _, n := range []string{"apps.new", "ir.verify", "analysis.pointsto", "analysis.analyze",
		"core.partition", "core.compile", "monitor.boot", "monitor.run"} {
		out[n+"_ms"] = mean(durations(spans, n))
	}
	out["core.layout_certify_ms"] = max(0, out["core.compile_ms"]-out["ir.verify_ms"]-
		out["analysis.analyze_ms"]-out["core.partition_ms"])
	boots := append(durations(spans, "monitor.boot"), durations(spans, "aces.boot")...)
	out["run.boot_ms"] = mean(boots)
	out["analysis.pointsto_iters"] = ratio(c["analysis.pointsto_iters"], c["analysis.solves"])
	out["absint.proven_pct"] = 100 * ratio(c["absint.proven"], c["absint.static"])
	out["mach.proof_elide_ratio"] = ratio(c["mach.proofs.elided"], c["mach.proofs.elided"]+c["mach.proofs.checked"])
	out["mach.tlb_hit_ratio"] = ratio(c["mach.tlb.hits"], c["mach.tlb.hits"]+c["mach.tlb.misses"])
	for _, s := range []string{"vanilla", "opec", "aces"} {
		instr := set.instr[s] + tr.instr[s]
		out["mach.sim_mips."+s] = ratio(instr, set.runS[s]+tr.runS[s]) / 1e6
	}

	wall := float64(tr.wall)
	for l, v := range selfByLayer(spans, tr.root) {
		out["span."+l+"_pct"] = 100 * float64(v) / wall
	}
	var total int64
	for _, v := range cpu {
		total += v
	}
	for b, v := range cpu {
		out["self."+b+"_pct"] = 100 * ratio(float64(v), float64(total))
	}
	out["go.alloc_mb"] = plain.allocMB
	out["go.gc_cycles"] = plain.gcs
	out["bench.pass_wall_s"] = median(plain.passS)
	out["bench.trace_overhead_pct"] = 100 * (ratio(median(tr.passCPU), median(plain.passCPU)) - 1)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
