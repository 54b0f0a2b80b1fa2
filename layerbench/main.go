// Command layerbench is the repository's layered performance benchmark.
// It runs one workload per invocation — simulate, campaign or fuzz, see
// README.md — in a closed loop with one client, checks every output,
// and prints one JSON result line last:
//
//	layerbench --workload simulate --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the run measures an untraced and a traced phase of half the
// time each, records spans around every call into a layer, takes a CPU
// profile of the traced phase, and the result carries the per-layer
// metrics instead.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"opec"
)

func main() { os.Exit(bench(os.Args[1:], os.Stdout, os.Stderr)) }

// setupRuns is how many times an untraced run sets its workload up;
// setup_s is the median and the passes use the last set-up. A traced
// run, which does not report setup_s, sets up once.
const setupRuns = 5

// workload is one benchmark workload.
type workload interface {
	// setup compiles, boots, plans and calibrates everything the passes
	// need, replacing any earlier set-up.
	setup(ph *phase) error
	// pass runs one pass of the workload's user flow. Passes after a
	// phase's first stop between operations once the deadline has
	// passed; pass reports whether it ran to the end.
	pass(ph *phase) bool
	// probe times single layer calls the passes cannot separate, after
	// the measured phases, into probes.
	probe(ph *phase, probes map[string]float64)
	// live returns what the workload keeps between passes (forges,
	// sessions, reports), held across the live-heap measurement.
	live() any
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "simulate":
		return newSimulate(seed), nil
	case "campaign":
		return newCampaign(seed), nil
	case "fuzz":
		return newFuzz(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want simulate, campaign or fuzz)", name)
}

// phase is the context of one set-up or one measured phase: its span
// recorder, the run's failure ledger, and what the passes measured.
type phase struct {
	rec      *recorder
	led      *ledger
	deadline time.Time
	// first is set during the phase's first pass, which always runs to
	// the end and is the only pass whose counters are kept.
	first bool
	n     int // index of the pass in progress

	passS   []float64            // wall seconds of each complete pass
	passCPU []float64            // process CPU seconds of each complete pass
	ops     float64              // operations completed
	opCPU   float64              // process CPU seconds those operations took
	lat     map[string][]float64 // named latency samples, milliseconds
	runS    map[string]float64   // host seconds of run phases, by scheme
	instr   map[string]float64   // instructions of those run phases
	count   map[string]float64   // per-layer counters of the first pass
	note    []string             // exact per-workload figures for the report

	root    int           // the phase's span
	wall    time.Duration // the phase's wall time
	allocMB float64       // Go heap allocated by the first pass
	gcs     float64       // GC cycles during the first pass
}

func newPhase(rec *recorder, led *ledger) *phase {
	return &phase{
		rec: rec, led: led, root: -1, first: true,
		lat: map[string][]float64{}, runS: map[string]float64{},
		instr: map[string]float64{}, count: map[string]float64{},
	}
}

// expired reports whether a pass should stop before its next operation.
func (ph *phase) expired() bool { return !ph.first && !time.Now().Before(ph.deadline) }

// request records one finished request of the given kind (pipeline,
// trial, campaign) that started at c: its wall latency, its CPU time and
// the operations it completed. It returns the latency.
func (ph *phase) request(kind string, c clock, ops float64) time.Duration {
	wall, cpu := c.since()
	ph.lat[kind+"_ms"] = append(ph.lat[kind+"_ms"], ms(wall))
	ph.ops += ops
	ph.opCPU += cpu.Seconds()
	return wall
}

// add adds v to counter name during the first pass.
func (ph *phase) add(name string, v float64) {
	if ph.first {
		ph.count[name] += v
	}
}

// tally adds one run phase of a scheme: its host time and instructions.
func (ph *phase) tally(scheme string, d time.Duration, instrs uint64) {
	ph.runS[scheme] += d.Seconds()
	ph.instr[scheme] += float64(instrs)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// clock is a reading of wall time and of the CPU time the process has
// used, all threads (the garbage collector's included) and user and
// system time together. The end-to-end metrics are CPU times: on a
// shared virtual machine the hypervisor steals time from the guest, and
// stolen time inflates wall time but is not accounted to the process.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func now() clock {
	var r syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &r); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return clock{wall: time.Now(), cpu: time.Duration(r.Utime.Nano() + r.Stime.Nano())}
}

// since returns the wall and CPU time elapsed since c.
func (c clock) since() (wall, cpu time.Duration) {
	n := now()
	return n.wall.Sub(c.wall), n.cpu - c.cpu
}

// call times f as a span named name.
func call[T any](r *recorder, name string, f func() (T, error)) (T, error) {
	sp := r.begin(name)
	v, err := f()
	r.end(sp)
	return v, err
}

// measure runs passes of w for seconds (at least one complete pass).
func measure(w workload, ph *phase, name string, seconds float64) {
	var m0, m1 runtime.MemStats
	start := time.Now()
	ph.deadline = start.Add(time.Duration(seconds * float64(time.Second)))
	ph.root = ph.rec.begin("phase." + name)
	for ph.n = 0; ph.n == 0 || time.Now().Before(ph.deadline); ph.n++ {
		ph.first = ph.n == 0
		if ph.first {
			runtime.ReadMemStats(&m0)
		}
		c := now()
		done := w.pass(ph)
		wall, cpu := c.since()
		if ph.first {
			runtime.ReadMemStats(&m1)
			ph.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
			ph.gcs = float64(m1.NumGC - m0.NumGC)
		}
		if done {
			ph.passS = append(ph.passS, wall.Seconds())
			ph.passCPU = append(ph.passCPU, cpu.Seconds())
		}
	}
	ph.first = false
	ph.rec.end(ph.root)
	ph.wall = time.Since(start)
}

// liveHeapMB is the Go heap after a forced collection, with keep live.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	return float64(m.HeapAlloc) / (1 << 20)
}

// machSwitch returns the first OPEC_MACH_* variable in env: each one is
// read on the simulator's hot paths, so a run with one set measures a
// different program.
func machSwitch(env []string) string {
	for _, kv := range env {
		if strings.HasPrefix(kv, "OPEC_MACH_") {
			name, _, _ := strings.Cut(kv, "=")
			return name
		}
	}
	return ""
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func bench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "simulate | campaign | fuzz")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 30, "measured time per run")
	traceOn := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	spanDir := fs.String("spans", "", "directory the traced run writes its spans to (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if v := machSwitch(os.Environ()); v != "" {
		fmt.Fprintf(stderr, "layerbench: %s is set; unset every OPEC_MACH_* variable to measure the default program\n", v)
		return 2
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(stderr, "layerbench: --trace wants 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "layerbench: --seconds must be positive")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "layerbench:", err)
		return 2
	}
	traced := *traceOn == 1
	fmt.Fprintf(stdout, "# layerbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traceOn)
	fmt.Fprintf(stdout, "# env backend=%s gomaxprocs=%d nproc=%d go=%s\n",
		opec.ExecInterp, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	led := &ledger{}
	rec := newRecorder(traced)
	runs := setupRuns
	if traced {
		runs = 1
	}
	var setupS, setupCPU []float64
	var set *phase
	for i := 0; i < runs; i++ {
		set = newPhase(rec, led)
		c := now()
		set.root = rec.begin("phase.setup")
		err := w.setup(set)
		rec.end(set.root)
		if err != nil {
			fmt.Fprintln(stderr, "layerbench: setup:", err)
			return 1
		}
		wall, cpu := c.since()
		setupS = append(setupS, wall.Seconds())
		setupCPU = append(setupCPU, cpu.Seconds())
	}
	fmt.Fprintf(stdout, "# setup: %.3f s wall, %.3f s CPU (medians of %d)\n", median(setupS), median(setupCPU), len(setupS))

	var metrics map[string]float64
	defs := endToEnd
	if !traced {
		ph := newPhase(rec, led)
		measure(w, ph, "run", *seconds)
		metrics = map[string]float64{
			"setup_s":       median(setupCPU),
			"pass_cpu_s":    median(ph.passCPU),
			"ops_per_cpu_s": ratio(ph.ops, ph.opCPU),
			"live_heap_mb":  liveHeapMB(w.live()),
		}
		printPhase(stdout, ph)
	} else {
		defs = perLayer
		if metrics, err = tracedRun(w, set, *seconds, stdout); err != nil {
			fmt.Fprintln(stderr, "layerbench:", err)
			return 1
		}
		if *spanDir != "" {
			file := fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed)
			if err := writeSpans(*spanDir, file, rec.spans); err != nil {
				fmt.Fprintln(stderr, "layerbench: writing spans:", err)
				return 1
			}
			fmt.Fprintf(stdout, "# spans: %d written to %s/%s\n", len(rec.spans), *spanDir, file)
		}
	}

	res := result{
		Correct: led.failed == 0, Attempted: led.attempted, Failed: led.failed,
		Metrics: make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: metrics[d.name], Unit: d.unit}
		fmt.Fprintf(stdout, "# %-32s %14.6g %s\n", d.name, metrics[d.name], d.unit)
	}
	led.report(stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "layerbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// tracedRun measures an untraced and then a traced phase of seconds/2
// each after the set-up set, profiles the traced phase, runs the
// workload's probes, and returns the per-layer metrics.
func tracedRun(w workload, set *phase, seconds float64, stdout io.Writer) (map[string]float64, error) {
	rec, led := set.rec, set.led
	rec.on = false
	plain := newPhase(rec, led)
	measure(w, plain, "untraced", seconds/2)
	rec.on = true
	tr := newPhase(rec, led)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	measure(w, tr, "traced", seconds/2)
	pprof.StopCPUProfile()
	led.op(checkSelfSum(rec.spans, tr.root, int64(tr.wall)))
	cpu, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	probes := map[string]float64{}
	pr := newPhase(rec, led)
	pr.root = rec.begin("phase.probe")
	w.probe(pr, probes)
	rec.end(pr.root)
	printPhase(stdout, plain)
	printPhase(stdout, tr)
	printLayerTimes(stdout, rec.spans, probes)
	return layerValues(set, plain, tr, pr, rec.spans, cpu, probes), nil
}

// printPhase prints a phase's exact figures and named latencies.
func printPhase(w io.Writer, ph *phase) {
	fmt.Fprintf(w, "# phase: %d complete passes, %.0f operations, %.3fs; pass wall seconds %.3f, CPU seconds %.3f\n",
		len(ph.passS), ph.ops, ph.wall.Seconds(), ph.passS, ph.passCPU)
	for _, n := range ph.note {
		fmt.Fprintf(w, "# %s\n", n)
	}
	schemes := sortedKeys(ph.runS)
	for _, s := range schemes {
		fmt.Fprintf(w, "# %-32s %14.6g MIPS (%.0f instructions in %.3fs of run phase)\n",
			s+"_sim_mips", ph.instr[s]/ph.runS[s]/1e6, ph.instr[s], ph.runS[s])
	}
	for _, n := range sortedKeys(ph.lat) {
		xs := ph.lat[n]
		fmt.Fprintf(w, "# %-32s p50=%.3fms p95=%.3fms n=%d\n", n, median(xs), percentile(xs, 95), len(xs))
	}
}

// printLayerTimes prints the mean duration of every span name, the
// per-layer times that are not in the result because a workload that
// never calls the layer would report them as zero.
func printLayerTimes(w io.Writer, spans []span, probes map[string]float64) {
	names := map[string]bool{}
	for _, s := range spans {
		if l := s.layer(); l != "phase" && l != "request" {
			names[s.Name] = true
		}
	}
	for _, n := range sortedKeys(names) {
		d := durations(spans, n)
		fmt.Fprintf(w, "# span %-26s mean=%.3fms p50=%.3fms n=%d\n", n, mean(d), median(d), len(d))
	}
	for _, n := range sortedKeys(probes) {
		fmt.Fprintf(w, "# probe %-25s %.6g\n", n, probes[n])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
