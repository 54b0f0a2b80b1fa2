package aces_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/run"
	"opec/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden ACES stream")

// eventHash is a trace handler that folds every event it is handed
// into a SHA-256, in order. As a trace.Repeater it takes a skipped poll
// window as the k shifted copies the skip stands for, so the digest
// covers every event the run emits whether or not the fast-forward
// engages, and the ring's capacity drops nothing from it.
type eventHash struct {
	h   hash.Hash
	buf [30]byte
}

func (s *eventHash) HandleEvent(e trace.Event) {
	b := s.buf[:]
	binary.LittleEndian.PutUint64(b[0:], e.Cycle)
	binary.LittleEndian.PutUint64(b[8:], e.Dur)
	b[16] = byte(e.Kind)
	binary.LittleEndian.PutUint32(b[17:], uint32(e.Op))
	binary.LittleEndian.PutUint32(b[21:], e.Arg)
	binary.LittleEndian.PutUint32(b[25:], e.Arg2)
	b[29] = '\n'
	s.h.Write(b)
}

func (s *eventHash) HandleRepeat(w []trace.Event, k, period uint64) {
	for j := uint64(1); j <= k; j++ {
		for _, e := range w {
			e.Cycle += j * period
			s.HandleEvent(e)
		}
	}
}

// acesStream renders one quick-scale ACES run: its outcome, the digest
// of every emitted event followed by the name table the events' ids
// resolve against, and every registry counter.
func acesStream(t *testing.T, app *apps.App, strat aces.Strategy) string {
	t.Helper()
	inst := app.New()
	b, err := aces.Compile(inst.Mod, inst.Board, strat)
	if err != nil {
		t.Fatal(err)
	}
	buf := trace.NewBuffer(256)
	sink := &eventHash{h: sha256.New()}
	buf.Attach(sink)
	res, err := run.ACESWith(inst, b, run.Options{Trace: buf})
	if res == nil {
		t.Fatal(err)
	}
	if err == nil {
		err = run.AndCheck(inst, res)
	}
	outcome := "ok"
	if err != nil {
		outcome = err.Error()
	}
	for _, n := range buf.Names() {
		fmt.Fprintf(sink.h, "%s\n", n)
	}
	key := app.Name + "/" + strat.String()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s outcome %s\n", key, outcome)
	fmt.Fprintf(&sb, "%s cycles %d\n", key, res.Cycles)
	fmt.Fprintf(&sb, "%s trace.sha256 %x\n", key, sink.h.Sum(nil))
	reg := trace.NewRegistry()
	reg.Register(res.Machine)
	reg.Register(buf)
	reg.Register(res.ACES)
	for _, c := range reg.Snapshot() {
		fmt.Fprintf(&sb, "%s %s %d\n", key, c.Name, c.Value)
	}
	return sb.String()
}

// TestGoldenStream pins what an ACES run lets anyone observe — cycles,
// every registry counter (MPU reconfigurations, TLB invalidations,
// fast-forward episodes) and a digest of the full event stream — for
// the five ACES-comparison workloads at the evaluation's quick scale
// under all three strategies. A compartment switch that writes a
// different set of MPU slots changes the invalidation count and the
// stream even when cycles and rendered tables stay put. Regenerate
// with: go test ./internal/aces -run GoldenStream -update
func TestGoldenStream(t *testing.T) {
	quick := []*apps.App{apps.PinLockN(5), apps.AnimationN(3), apps.FatFsUSD(), apps.LCDuSDN(2), apps.TCPEchoN(3, 9)}
	var sb strings.Builder
	for _, app := range quick {
		for _, strat := range []aces.Strategy{aces.Filename, aces.FilenameNoOpt, aces.Peripheral} {
			sb.WriteString(acesStream(t, app, strat))
		}
	}
	got := sb.String()
	golden := filepath.Join("testdata", "quick.stream.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d: got %q, golden %q", i+1, g, w)
			}
		}
	}
}
