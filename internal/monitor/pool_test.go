package monitor_test

import (
	"errors"
	"testing"

	"opec/internal/core"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/trace"
)

// buildPoolModule: main passes send a msg{buf,len} on its stack (two
// relocated buffers, one deep-copy fixup), overwrites buf[0] with 'C'
// once send returns, then calls plain(7, 9) at the same gate depth.
// plain returns inner(a*16+b), one gate deeper; inner(x) calls
// leaf(x+100), a third gate deep, then the helper boom, and returns
// x + leaf's x+101. main returns plain's result * 256 + buf[0].
func buildPoolModule() *ir.Module {
	m := ir.NewModule("ctxpool")

	send := ir.NewFunc(m, "send", "a.c", nil, ir.P("m", ir.Ptr(msgType)))
	bp := send.Load(ir.I32, send.Field(send.Arg("m"), msgType, "buf"))
	send.Store(ir.I8, bp, ir.CI('B'))
	send.RetVoid()

	leaf := ir.NewFunc(m, "leaf", "d.c", ir.I32, ir.P("y", ir.I32))
	leaf.Ret(leaf.Add(leaf.Arg("y"), ir.CI(1)))
	boom := ir.NewFunc(m, "boom", "c.c", nil)
	boom.RetVoid()
	inner := ir.NewFunc(m, "inner", "c.c", ir.I32, ir.P("x", ir.I32))
	y := inner.Call(leaf.F, inner.Add(inner.Arg("x"), ir.CI(100)))
	inner.Call(boom.F)
	inner.Ret(inner.Add(inner.Arg("x"), y))

	plain := ir.NewFunc(m, "plain", "b.c", ir.I32, ir.P("a", ir.I32), ir.P("b", ir.I32))
	x := plain.Add(plain.Mul(plain.Arg("a"), ir.CI(16)), plain.Arg("b"))
	plain.Ret(plain.Call(inner.F, x))

	mb := ir.NewFunc(m, "main", "main.c", ir.I32)
	buf := mb.Alloca(ir.Array(ir.I8, 16))
	msg := mb.Alloca(msgType)
	mb.Store(ir.I8, buf, ir.CI('A'))
	mb.Store(ir.I32, mb.Field(msg, msgType, "buf"), buf)
	mb.Store(ir.I32, mb.Field(msg, msgType, "len"), ir.CI(16))
	mb.Call(send.F, msg)
	mb.Store(ir.I8, buf, ir.CI('C'))
	r := mb.Call(plain.F, ir.CI(7), ir.CI(9))
	mb.Ret(mb.Add(mb.Mul(r, ir.CI(256)), mb.Load(ir.I8, buf)))
	return m
}

// gateLog records every gate-enter event's gate name and relocation
// count, in order.
type gateLog struct {
	buf   *trace.Buffer
	gates []string
	args2 []uint32
}

func (l *gateLog) HandleEvent(e trace.Event) {
	if e.Kind == trace.EvGateEnter {
		l.gates = append(l.gates, l.buf.Name(e.Arg))
		l.args2 = append(l.args2, e.Arg2)
	}
}

// TestPooledContextCarriesNothing runs a gate that relocates a pointer
// argument with a deep-copied field, then a gate at the same depth that
// relocates nothing: the second reuses the first's pooled context and
// must start clean. Its gate-enter event reports no relocation, its
// exit copies nothing back over the caller's buffer, its body sees its
// own arguments, and a restart of the gate nested inside it, after a
// gate one level deeper ran, re-enters with that gate's original
// argument. Two forks from one checkpoint (the second reusing the
// contexts the first left) end identically.
func TestPooledContextCarriesNothing(t *testing.T) {
	m := buildPoolModule()
	b, err := core.Compile(m, mach.STM32F4Discovery(), core.Config{
		Entries:        []string{"send", "plain", "inner", "leaf"},
		EnableDeepCopy: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := monitor.Boot(b, mach.NewBus(b.Board.FlashSize, b.Board.SRAMSize, &mach.Clock{}))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := mon.M.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	msnap := mon.Snapshot()

	boomFn := m.MustFunc("boom")
	fork := func() (monitor.Stats, string) {
		t.Helper()
		if err := mon.M.Restore(snap); err != nil {
			t.Fatal(err)
		}
		mon.Restore(msnap)
		mon.Policy = monitor.Policy{Kind: monitor.RestartOperation}
		mon.M.MaxCycles = 10_000_000
		buf := trace.NewBuffer(1 << 12)
		log := &gateLog{buf: buf}
		buf.Attach(log)
		mon.AttachTrace(buf)
		// inner faults in boom, after leaf's gate returned; the restart
		// policy re-enters inner, which calls leaf again.
		mon.M.Arm(&mach.Injection{Func: boomFn, N: 1, Fire: func(*mach.Machine) error {
			return errors.New("injected fault")
		}})
		got, err := mon.M.Run(m.MustFunc("main"))
		mon.AttachTrace(nil)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if want := uint32((121+121+101)*256 + 'C'); got != want {
			t.Errorf("main = %#x, want %#x: plain or inner saw stale arguments, "+
				"or plain's exit copied a stale buffer back", got, want)
		}
		wantGates := []string{"send", "plain", "inner", "leaf", "leaf"}
		wantArg2 := []uint32{2, 0, 0, 0, 0}
		if len(log.gates) != len(wantGates) {
			t.Fatalf("gate enters %v, want %v", log.gates, wantGates)
		}
		for i := range wantGates {
			if log.gates[i] != wantGates[i] || log.args2[i] != wantArg2[i] {
				t.Errorf("gate enter %d: %s with %d relocations, want %s with %d",
					i, log.gates[i], log.args2[i], wantGates[i], wantArg2[i])
			}
		}
		if s := mon.Stats; s.StackRelocs != 2 || s.Restarts != 1 || s.Switches != 5 {
			t.Errorf("stack relocs %d, restarts %d, switches %d; want 2, 1, 5",
				s.StackRelocs, s.Restarts, s.Switches)
		}
		return mon.Stats, mon.M.StateDigest()
	}
	s1, d1 := fork()
	s2, d2 := fork()
	if s1 != s2 {
		t.Errorf("forked runs' stats differ:\n%+v\n%+v", s1, s2)
	}
	if d1 != d2 {
		t.Errorf("forked runs' state digests differ: %s vs %s", d1, d2)
	}
}
