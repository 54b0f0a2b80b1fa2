package exper

import (
	"bytes"
	"strings"
	"testing"
)

// TestBenchLedgerDeterministic: the ledger holds only deterministic
// figures, so collections at different parallelism marshal byte for
// byte alike — the property CI's diff against BENCH_mach.json rests on.
func TestBenchLedgerDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two quick ledger collections in -short mode")
	}
	var docs [][]byte
	var rep *BenchReport
	for _, parallel := range []int{1, 3} {
		var err error
		if rep, err = CollectBench(Quick, parallel); err != nil {
			t.Fatalf("parallel %d: %v", parallel, err)
		}
		data, err := MarshalBenchReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, data)
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Errorf("ledger differs between parallel 1 and 3:\n%s\n---\n%s", docs[0], docs[1])
	}
	if rep.Scale != "quick" || rep.Schema != BenchSchema {
		t.Errorf("report header = %q/%q", rep.Schema, rep.Scale)
	}
	// 7 workloads × {vanilla, opec} + 5 × aces.
	if len(rep.Workloads) != 19 {
		t.Errorf("workload count = %d, want 19", len(rep.Workloads))
	}
	skipping := 0
	for _, w := range rep.Workloads {
		if w.Instrs == 0 || w.Cycles == 0 || w.FFSkippedInstrs > w.Instrs || (w.FFEpisodes == 0) != (w.FFSkippedInstrs == 0) {
			t.Errorf("%s/%s: degenerate row %+v", w.App, w.Scheme, w)
		}
		if w.FFEpisodes > 0 {
			skipping++
		}
	}
	if skipping == 0 {
		t.Error("no run skipped a poll loop: the ff columns record nothing")
	}
	for _, key := range []string{`"ff_episodes"`, `"ff_skipped_instrs"`} {
		if !bytes.Contains(docs[0], []byte(key)) {
			t.Errorf("ledger has no %s column", key)
		}
	}
}

// goodBenchReport is a minimal in-memory report that passes every gate.
func goodBenchReport() *BenchReport {
	rep := &BenchReport{
		Schema: BenchSchema, Scale: "quick",
		Profile: []ProfileRow{
			{App: "PinLock", Activations: 401, SwitchPerActivation: 184},
			{App: "Camera", Activations: 0},
		},
		Snapshot: BenchSnapshot{Workloads: 12, Trials: 560, Identical: true},
		Fuzz:     BenchFuzz{App: "TCP-Echo", UniqueEdgesGuided: 292, UniqueEdgesRandom: 215},
		Recovery: []BenchRecovery{
			{App: "PinLock", Spec: "store:Uart_Init:1:KEY:0:-1:0xee", Restarts: 1, RestartCycles: 9250, CyclesPerRestart: 9250},
			{App: "Camera", Spec: "store:Camera_Init_Task:1:frame_buffer:0:-1:0xee", Restarts: 1, RestartCycles: 9250, CyclesPerRestart: 9250},
		},
	}
	for i, pct := range []float64{97, 60, 50, 80, 55, 30, 10} {
		rep.Proof = append(rep.Proof, BenchProof{App: AppsFor(Quick)[i].Name, Static: 100, Proven: int(pct), CoveragePct: pct})
	}
	return rep
}

// TestBenchGatesReject: each gate refuses a report broken in exactly
// its figure, and the error names the gate.
func TestBenchGatesReject(t *testing.T) {
	if err := checkBench(goodBenchReport()); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	cases := []struct {
		name, gate string
		breakIt    func(*BenchReport)
	}{
		{"switch cost 6% high", "switch cost", func(r *BenchReport) { r.Profile[0].SwitchPerActivation = 195 }},
		{"switch cost 6% low", "switch cost", func(r *BenchReport) { r.Profile[0].SwitchPerActivation = 173 }},
		{"coverage on four apps", "proof coverage", func(r *BenchReport) { r.Proof[2].CoveragePct = 49.9 }},
		{"rejected access", "proof rejection", func(r *BenchReport) { r.Proof[6].Rejected = 1 }},
		{"engines diverged", "fork identity", func(r *BenchReport) { r.Snapshot.Identical = false }},
		{"guided no better than random", "fuzz guidance", func(r *BenchReport) { r.Fuzz.UniqueEdgesGuided = r.Fuzz.UniqueEdgesRandom }},
		{"one escape", "fuzz escapes", func(r *BenchReport) { r.Fuzz.Escapes = 1 }},
		{"single recovery row", "recovery floor", func(r *BenchReport) { r.Recovery = r.Recovery[:1] }},
		{"unparsable recovery spec", "recovery spec", func(r *BenchReport) { r.Recovery[1].Spec = "store:Camera_Init_Task" }},
	}
	for _, c := range cases {
		rep := goodBenchReport()
		c.breakIt(rep)
		err := checkBench(rep)
		if err == nil || !strings.Contains(err.Error(), "bench gate "+c.gate+":") {
			t.Errorf("%s: error = %v, want one naming gate %q", c.name, err, c.gate)
		}
	}
}
