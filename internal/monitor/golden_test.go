package monitor_test

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

	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/run"
	"opec/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden OPEC stream")

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

// keyOverwrite arms the Section 6.1 attack on a forked PinLock: at the
// first entry of Lock_Task, a rogue one-byte store of 0xee to KEY,
// issued at the operation's privilege through the relocation table
// (the campaign's "store:Lock_Task:1:KEY:0:-1:0xee" trial). Like every
// campaign trial it runs fully adjudicated, without proof elision.
func keyOverwrite(inst *apps.Instance) func(*mach.Machine) {
	key := inst.Mod.Global("KEY")
	return func(m *mach.Machine) {
		m.InstallProofs(nil)
		m.Arm(&mach.Injection{Func: inst.Mod.MustFunc("Lock_Task"), N: 1, Fire: func(m *mach.Machine) error {
			addr, f := m.GlobalAddr(key, m.Privileged)
			if f != nil {
				return f
			}
			return m.InjectStore(addr, 1, 0xee)
		}})
	}
}

// opecStream renders one quick-scale OPEC run: its outcome, the digest
// of every emitted event followed by the name table the events' ids
// resolve against, and every registry counter (machine, bus, MPU or
// PMP, monitor and trace).
func opecStream(t *testing.T, key string, app *apps.App, pmp bool, pol monitor.Policy, arm func(*apps.Instance) func(*mach.Machine)) string {
	t.Helper()
	inst := app.New()
	b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	boot := run.BootOPEC
	if pmp {
		boot = run.BootOPECPMP
	}
	ctx, err := boot(inst, b)
	if err != nil {
		t.Fatal(err)
	}
	buf := trace.NewBuffer(256)
	sink := &eventHash{h: sha256.New()}
	buf.Attach(sink)
	opts := run.Options{Policy: pol, Trace: buf}
	if arm != nil {
		opts.Arm = arm(inst)
	}
	res, err := ctx.Fork(opts)
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
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s outcome %s\n", key, outcome)
	fmt.Fprintf(&sb, "%s cycles %d\n", key, res.Cycles)
	fmt.Fprintf(&sb, "%s trace.sha256 %x\n", key, sink.h.Sum(nil))
	reg := trace.NewRegistry()
	reg.Register(res.Machine)
	reg.Register(buf)
	reg.Register(&res.Mon.Stats)
	for _, c := range reg.Snapshot() {
		fmt.Fprintf(&sb, "%s %s %d\n", key, c.Name, c.Value)
	}
	return sb.String()
}

// TestGoldenStream pins what an OPEC run lets anyone observe — cycles,
// every registry counter (switches, words synced, relocation-table
// writes, MPU/PMP reconfigurations, TLB invalidations, fast-forward
// episodes) and a digest of the full event stream — for the seven
// workloads at the evaluation's quick scale on the MPU and the PMP
// backend, plus the Section 6.1 KEY-overwrite trial under the restart
// and quarantine policies. An operation switch that syncs, relocates
// or programs the protection unit differently changes a counter or the
// stream even when cycles and rendered tables stay put. Regenerate
// with: go test ./internal/monitor -run GoldenStream -update
func TestGoldenStream(t *testing.T) {
	quick := []*apps.App{
		apps.PinLockN(5), apps.AnimationN(3), apps.FatFsUSD(), apps.LCDuSDN(2),
		apps.TCPEchoN(3, 9), apps.Camera(), apps.CoreMarkN(3),
	}
	var sb strings.Builder
	for _, app := range quick {
		sb.WriteString(opecStream(t, app.Name+"/OPEC", app, false, monitor.Policy{}, nil))
		sb.WriteString(opecStream(t, app.Name+"/OPEC-PMP", app, true, monitor.Policy{}, nil))
	}
	for _, kind := range []monitor.PolicyKind{monitor.RestartOperation, monitor.Quarantine} {
		key := "PinLock/KEY-overwrite/" + kind.String()
		sb.WriteString(opecStream(t, key, quick[0], false, monitor.Policy{Kind: kind}, keyOverwrite))
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
