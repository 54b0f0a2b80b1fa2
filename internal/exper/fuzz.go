package exper

import (
	"fmt"

	"opec/internal/fuzz"
	"opec/internal/monitor"
)

// The adversarial fuzzing experiment: a coverage-guided campaign
// (internal/fuzz) against the frame-queue workload's network stack and
// the SVC gate surface, with a random ablation proving what coverage
// feedback buys. Campaigns fork every input from the pre-injection
// checkpoint and are byte-identical at any parallelism, so the
// guided-vs-random edge inequality recorded in BENCH_mach.json is a
// deterministic fact of (seed, budget), not a statistical claim.

// FuzzSeed and FuzzBudget are the standard campaign shape: the budget
// is large enough for guided retention to compound multi-frame
// scenarios past the random ablation (guidance needs a few corpus
// generations before it pays off), small enough for CI. BENCH_mach.json
// records the strict edge inequality at exactly this shape, and
// opec-bench -exp bench fails when it does not hold.
const (
	FuzzSeed   int64 = 3
	FuzzBudget       = 192
)

// Fuzz runs one fuzzing campaign — guided, or the random ablation —
// against the scale's frame-queue workload (TCP-Echo, the only
// workload scripting a network receive queue) at the harness's
// parallelism.
func (h *Harness) Fuzz(s AppSet, seed int64, budget int, random bool, pol monitor.Policy) (*fuzz.Report, error) {
	for _, app := range h.appsFor(s) {
		if app.Name == "TCP-Echo" {
			return fuzz.Run(fuzz.Options{
				App: app, Seed: seed, Budget: budget, Parallel: h.parallel,
				Random: random, Policy: pol,
			})
		}
	}
	return nil, fmt.Errorf("fuzz: scale has no frame-queue workload")
}

// RenderFuzz prints a campaign summary.
func RenderFuzz(r *fuzz.Report) string { return r.Render() }
