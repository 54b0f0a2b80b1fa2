package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "phase.traced", Parent: -1, Start: 0, End: 100},
		{Name: "request.trial", Parent: 0, Start: 10, End: 60},
		{Name: "inject.trial", Parent: 1, Start: 15, End: 40},
		{Name: "debug.seek", Parent: 1, Start: 30, End: 50},     // overlaps its sibling
		{Name: "request.trial", Parent: 0, Start: 70, End: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	// The phase's children cover [10,60) and [70,100): 80 of its 100.
	// The first request's children cover [15,50): 35 of its 50.
	want := []int64{20, 15, 25, 20, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}

	// A well-formed tree: self times by layer add up to the root.
	tree := []span{
		{Name: "phase.traced", Parent: -1, Start: 0, End: 100},
		{Name: "request.trial", Parent: 0, Start: 10, End: 60},
		{Name: "inject.trial", Parent: 1, Start: 15, End: 40},
		{Name: "debug.seek", Parent: 1, Start: 40, End: 50},
		{Name: "request.trial", Parent: 0, Start: 70, End: 90},
	}
	by := selfByLayer(tree, 0)
	if by["other"] != 30+15+20 || by["inject"] != 25 || by["debug"] != 10 {
		t.Errorf("selfByLayer = %v", by)
	}
}

func TestCheckSelfSum(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{Name: "phase.traced", Parent: -1, Start: 0, End: 1000 * ms},
		{Name: "request.pipeline", Parent: 0, Start: 1 * ms, End: 900 * ms},
		{Name: "monitor.run", Parent: 1, Start: 2 * ms, End: 800 * ms},
		{Name: "phase.probe", Parent: -1, Start: 1000 * ms, End: 1100 * ms},
	}
	if err := checkSelfSum(spans, 0, 1000*ms+int64(time.Microsecond)); err != nil {
		t.Errorf("sum within tolerance rejected: %v", err)
	}
	if err := checkSelfSum(spans, 0, 1100*ms); err == nil {
		t.Error("wall 10% past the spans accepted")
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder(true)
	ph := r.begin("phase.traced")
	for i := 0; i < 2; i++ {
		req := r.request("request.trial")
		call(r, "inject.trial", func() (int, error) { return 0, nil })
		r.end(req)
	}
	r.end(ph)
	want := []struct{ parent, req int }{{-1, 0}, {0, 1}, {1, 1}, {0, 2}, {3, 2}}
	for i, w := range want {
		if s := r.spans[i]; s.Parent != w.parent || s.Req != w.req || s.End < s.Start {
			t.Errorf("span %d %s: parent=%d req=%d [%d,%d], want parent=%d req=%d", i, s.Name, s.Parent, s.Req, s.Start, s.End, w.parent, w.req)
		}
	}
	off := newRecorder(false)
	if i := off.begin("core.compile"); i != -1 || len(off.spans) != 0 {
		t.Errorf("disabled recorder recorded span %d", i)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {25, 1.75}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile sorted its input")
	}
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 95); math.Abs(got-95.05) > 1e-9 {
		t.Errorf("p95 of 1..100 = %g, want 95.05", got)
	}
	if median(nil) != 0 || median([]float64{7}) != 7 {
		t.Error("median of an empty or one-element sample")
	}
}

func TestLedgerFailRatio(t *testing.T) {
	var l ledger
	if l.ratio() != 0 {
		t.Error("ratio before any operation")
	}
	for i := 0; i < 8; i++ {
		l.op(nil)
	}
	if l.op(os.ErrNotExist) || !l.op(nil) {
		t.Error("op reported the wrong outcome")
	}
	if l.attempted != 10 || l.failed != 1 || l.ratio() != 0.1 {
		t.Errorf("attempted=%d failed=%d ratio=%g, want 10, 1, 0.1", l.attempted, l.failed, l.ratio())
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		fn, file, want string
	}{
		{"opec/internal/mach.(*Machine).step", "/src/internal/mach/cpu.go", "mach.dispatch"},
		{"opec/internal/mach.(*Machine).Run.func1", "/src/internal/mach/cpu.go", "mach.dispatch"},
		{"opec/internal/mach.(*Bus).Load", "/src/internal/mach/bus.go", "mach.bus"},
		{"opec/internal/mach.pagedMem.load", "/src/internal/mach/pagedmem.go", "mach.bus"},
		{"opec/internal/mach.(*MPU).Allows", "/src/internal/mach/mpu.go", "mach.mpu"},
		{"opec/internal/mach.(*Machine).StateDigest", "/src/internal/mach/stateframe.go", "mach.snapshot"},
		{"opec/internal/mach.hashPages", "/src/internal/mach/snapshot.go", "mach.snapshot"},
		{"opec/internal/monitor.(*Monitor).svcEnter", "", "monitor"},
		{"opec/internal/aces.(*Runtime).Run", "", "monitor"},
		{"opec/internal/dev.(*EthMAC).Load", "", "dev"},
		{"opec/internal/trace.(*Buffer).Emit", "", "trace"},
		{"opec/internal/fuzz.(*CovSink).HandleEvent", "", "fuzz"},
		{"opec/internal/debug.(*Store).HandleEvent", "", "debug"},
		{"opec/internal/analysis.SolvePointsTo", "", "compile"},
		{"runtime.mallocgc", "", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "", "runtime"},
		{"sort.Slice", "", "other"},
		{"main.bench", "", "other"},
	} {
		if got := bucketOf(frame{c.fn, c.file}); got != c.want {
			t.Errorf("bucketOf(%q, %q) = %s, want %s", c.fn, c.file, got, c.want)
		}
	}
}

func TestSampleBucket(t *testing.T) {
	fr := func(fns ...string) []frame {
		var out []frame
		for _, fn := range fns {
			out = append(out, frame{fn: fn})
		}
		return out
	}
	for _, c := range []struct {
		stack []frame
		want  string
	}{
		{fr("opec/internal/mach.(*MPU).Allows", "opec/internal/mach.(*Machine).step"), "mach.mpu"},
		{fr("crypto/internal/fips140/sha256.blockSHANI", "crypto/sha256.(*Digest).Write", "opec/internal/debug.(*Keyframer).capture"), "debug"},
		{fr("fmt.(*pp).doPrintf", "fmt.Sprintf", "opec/internal/trace.(*Buffer).renderEvent"), "trace"},
		{fr("runtime.memmove", "opec/internal/mach.(*Machine).step"), "runtime"},
		{fr("reflect.deepValueEqual", "main.(*campaign).trial", "runtime.main"), "other"},
		{fr("sort.Slice", "opec/internal/inject.Plan"), "other"},
		{fr("strings.Cut"), "other"},
	} {
		if got := sampleBucket(c.stack); got != c.want {
			t.Errorf("sampleBucket(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

var sink float64

func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	got, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for b, v := range got {
		total += v
		if bucketIndex(b) < 0 {
			t.Errorf("unknown bucket %q", b)
		}
	}
	if total <= 0 || got["other"] <= 0 {
		t.Errorf("folded profile %v: want CPU time, most of it in this test's loop (other)", got)
	}
}

func bucketIndex(b string) int {
	for i, x := range buckets {
		if x == b {
			return i
		}
	}
	return -1
}

func TestMachSwitch(t *testing.T) {
	if got := machSwitch([]string{"HOME=/", "OPEC_MACH_NOCACHE=1"}); got != "OPEC_MACH_NOCACHE" {
		t.Errorf("machSwitch = %q", got)
	}
	if got := machSwitch([]string{"OPEC_MACHX=1", "PATH=/bin"}); got != "" {
		t.Errorf("machSwitch = %q, want none", got)
	}
}

// TestMetricsMatchDeclaration checks that the metrics the benchmark
// prints are the ones BENCHMARK.json declares, in the same order.
func TestMetricsMatchDeclaration(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		defs []metricDef
		decl []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, decl.EndToEnd}, {"per_layer", perLayer, decl.PerLayer}} {
		if len(c.defs) != len(c.decl) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", c.what, len(c.defs), len(c.decl))
			continue
		}
		for i, d := range c.defs {
			if d.name != c.decl[i].Name || d.unit != c.decl[i].Unit {
				t.Errorf("%s[%d]: prints %s (%s), declared %s (%s)", c.what, i, d.name, d.unit, c.decl[i].Name, c.decl[i].Unit)
			}
		}
	}
}
