package dev

import (
	"bytes"
	"strings"
	"testing"

	"opec/internal/mach"
)

// quietDevice is a device model under the horizon contract.
type quietDevice interface {
	mach.Device
	mach.Stateful
	mach.Quiescent
}

// quietState builds one device in one scripted state on a fresh clock.
type quietState struct {
	name  string
	build func() (quietDevice, *mach.Clock)
}

// quietStates drives every device model through its scripted states:
// idle, waiting on a scheduled ready cycle, ready, and part-way through
// a stream.
func quietStates() []quietState {
	uart := func(queue bool, advance uint64, pops int) func() (quietDevice, *mach.Clock) {
		return func() (quietDevice, *mach.Clock) {
			clk := &mach.Clock{}
			u := NewUART(mach.USART2Base, clk, 100)
			u.Store(UartBRR, 4, 0x2D9)
			u.Store(UartCR1, 4, 0x200C)
			if queue {
				u.QueueRx([]byte("pin"))
			}
			clk.Advance(advance)
			for i := 0; i < pops; i++ {
				u.Load(UartDR, 4)
			}
			return u, clk
		}
	}
	gpio := func(press bool, advance uint64) func() (quietDevice, *mach.Clock) {
		return func() (quietDevice, *mach.Clock) {
			clk := &mach.Clock{}
			g := NewGPIO(mach.GPIOABase, clk)
			g.Store(GpioMODER, 4, 0x5)
			g.Store(GpioBSRR, 4, 1<<4)
			if press {
				g.SchedulePress(0, 500)
			}
			clk.Advance(advance)
			return g, clk
		}
	}
	sd := func(cmd uint32, advance uint64, pops int) func() (quietDevice, *mach.Clock) {
		return func() (quietDevice, *mach.Clock) {
			clk := &mach.Clock{}
			img := make([]byte, 4*BlockSize)
			for i := range img {
				img[i] = byte(i * 7)
			}
			s := NewSDCard(clk, img, 300)
			if cmd != 0 {
				s.Store(SdioARG, 4, 1)
				s.Store(SdioCMD, 4, cmd)
			}
			clk.Advance(advance)
			for i := 0; i < pops; i++ {
				s.Load(SdioFIFO, 4)
			}
			return s, clk
		}
	}
	lcd := func(frame bool, advance uint64) func() (quietDevice, *mach.Clock) {
		return func() (quietDevice, *mach.Clock) {
			clk := &mach.Clock{}
			l := NewLCD(clk)
			l.Store(LcdCMD, 4, LcdCmdOn)
			if frame {
				l.Store(LcdCMD, 4, LcdCmdPixels)
				l.Store(LcdDATA, 4, 0xF800)
			}
			clk.Advance(advance)
			return l, clk
		}
	}
	dma := func(start bool, advance uint64) func() (quietDevice, *mach.Clock) {
		return func() (quietDevice, *mach.Clock) {
			clk := &mach.Clock{}
			bus := mach.NewBus(1<<12, 1<<12, clk)
			d := NewDMA2D(clk, bus)
			d.Store(Dma2dSRC, 4, mach.SRAMBase)
			d.Store(Dma2dDST, 4, mach.SRAMBase+0x400)
			d.Store(Dma2dLEN, 4, 16)
			if start {
				d.Store(Dma2dCR, 4, 1)
			}
			clk.Advance(advance)
			return d, clk
		}
	}
	eth := func(frames int, advance uint64, pops int) func() (quietDevice, *mach.Clock) {
		return func() (quietDevice, *mach.Clock) {
			clk := &mach.Clock{}
			e := NewEthMAC(clk, 1000)
			for i := 0; i < frames; i++ {
				e.QueueFrame(BuildTCPFrame(1, 2, 3, 4, uint32(i), 0, TCPPsh, []byte("echo")))
			}
			clk.Advance(advance)
			for i := 0; i < pops; i++ {
				e.Load(EthRXFIFO, 4)
			}
			e.Store(EthTXLEN, 4, 8)
			e.Store(EthTXFIFO, 4, 0xAABBCCDD)
			return e, clk
		}
	}
	cam := func(capture bool, advance uint64, pops int) func() (quietDevice, *mach.Clock) {
		return func() (quietDevice, *mach.Clock) {
			clk := &mach.Clock{}
			c := NewCamera(clk, 800)
			if capture {
				c.Store(DcmiCR, 4, 1)
			}
			clk.Advance(advance)
			for i := 0; i < pops; i++ {
				c.Load(DcmiFIFO, 4)
			}
			return c, clk
		}
	}
	usb := func(write bool, advance uint64) func() (quietDevice, *mach.Clock) {
		return func() (quietDevice, *mach.Clock) {
			clk := &mach.Clock{}
			u := NewUSBMSC(clk, 600)
			u.Store(UsbARG, 4, 3)
			u.Store(UsbFIFO, 4, 0x11223344)
			if write {
				u.Store(UsbCMD, 4, 1)
			}
			clk.Advance(advance)
			return u, clk
		}
	}
	return []quietState{
		{"uart/idle", uart(false, 0, 0)},
		{"uart/pacing", uart(true, 40, 0)},
		{"uart/ready", uart(true, 150, 0)},
		{"uart/next-byte", uart(true, 150, 1)},
		{"gpio/no-press", gpio(false, 0)},
		{"gpio/press-ahead", gpio(true, 100)},
		{"gpio/pressed", gpio(true, 700)},
		{"rcc", func() (quietDevice, *mach.Clock) {
			r := NewRCC()
			r.Store(0x30, 4, 0x1F)
			return r, &mach.Clock{}
		}},
		{"flashif", func() (quietDevice, *mach.Clock) {
			r := NewFlashIF()
			r.Store(0x00, 4, 5)
			return r, &mach.Clock{}
		}},
		{"rng", func() (quietDevice, *mach.Clock) { return NewRNG(7), &mach.Clock{} }},
		{"sd/idle", sd(0, 0, 0)},
		{"sd/read-busy", sd(SdCmdReadBlock, 100, 0)},
		{"sd/read-ready", sd(SdCmdReadBlock, 400, 0)},
		{"sd/read-streaming", sd(SdCmdReadBlock, 400, 5)},
		{"sd/write-busy", sd(SdCmdWriteBlock, 10, 0)},
		{"lcd/idle", lcd(false, 0)},
		{"lcd/refresh", lcd(true, 1000)},
		{"lcd/refreshed", lcd(true, 500_000)},
		{"dma2d/idle", dma(false, 0)},
		{"dma2d/transfer", dma(true, 20)},
		{"dma2d/done", dma(true, 200)},
		{"eth/empty", eth(0, 0, 0)},
		{"eth/arriving", eth(2, 300, 0)},
		{"eth/arrived", eth(2, 1500, 0)},
		{"eth/reading", eth(2, 1500, 3)},
		{"cam/idle", cam(false, 0, 0)},
		{"cam/exposing", cam(true, 100, 0)},
		{"cam/ready", cam(true, 900, 0)},
		{"cam/draining", cam(true, 900, 4)},
		{"usb/idle", usb(false, 0)},
		{"usb/writing", usb(true, 50)},
		{"usb/written", usb(true, 700)},
	}
}

// horizonSamples are the cycles, ahead of now, at which a register
// with horizon h is re-read: right away, just after, half way, and the
// last cycle before the horizon.
func horizonSamples(now, h uint64) []uint64 {
	if h == mach.Never {
		return []uint64{now, now + 1, now + 1_000, now + 1_000_000_000}
	}
	return []uint64{now, now + 1, now + (h-now)/2, h - 1}
}

// TestQuiescentHorizonContract checks every device model against the
// fast-forward contract: for every register offset whose horizon lies
// ahead, loads at sampled cycles before the horizon return the same
// value and leave the device state byte-identical.
func TestQuiescentHorizonContract(t *testing.T) {
	for _, st := range quietStates() {
		d0, _ := st.build()
		checked := 0
		for off := uint32(0); off < d0.Size(); off++ {
			if off%4 != 0 && off > 0x40 {
				continue // sub-word offsets are sampled in the first window only
			}
			d, clk := st.build()
			now := clk.Now()
			h := d.QuiescentUntil(off)
			if h <= now {
				continue
			}
			state := d.SaveState()
			var first uint32
			for i, c := range horizonSamples(now, h) {
				clk.Advance(c - clk.Now())
				v := d.Load(off, 4)
				if i == 0 {
					first = v
				} else if v != first {
					t.Fatalf("%s: offset %#x read %#x at cycle %d, %#x at %d, horizon %d", st.name, off, v, c, first, now, h)
				}
				if !bytes.Equal(d.SaveState(), state) {
					t.Fatalf("%s: load of offset %#x at cycle %d changed the device state (horizon %d)", st.name, off, c, h)
				}
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("%s: no offset reports a horizon ahead", st.name)
		}
	}
}

// TestQuiescentSideEffectReads checks that the registers whose loads
// consume data report no horizon in every state, so a loop reading
// them always runs iteration by iteration.
func TestQuiescentSideEffectReads(t *testing.T) {
	consuming := map[string]uint32{
		"uart": UartDR, "sd": SdioFIFO, "eth": EthRXFIFO, "cam": DcmiFIFO, "rng": RngDR,
	}
	seen := map[string]bool{}
	for _, st := range quietStates() {
		for prefix, off := range consuming {
			if !strings.HasPrefix(st.name, prefix+"/") && st.name != prefix {
				continue
			}
			seen[prefix] = true
			d, clk := st.build()
			if h := d.QuiescentUntil(off); h > clk.Now() {
				t.Errorf("%s: consuming register %#x reports horizon %d, now %d", st.name, off, h, clk.Now())
			}
		}
	}
	for prefix := range consuming {
		if !seen[prefix] {
			t.Errorf("no scripted state for %s", prefix)
		}
	}
}

// TestQuiescentReadyFlips checks the scheduled status registers report
// exactly the cycle their value flips at.
func TestQuiescentReadyFlips(t *testing.T) {
	for _, c := range []struct {
		state string
		off   uint32
	}{
		{"uart/pacing", UartSR}, {"gpio/press-ahead", GpioIDR}, {"sd/read-busy", SdioSTA},
		{"lcd/refresh", LcdSTA}, {"dma2d/transfer", Dma2dSTA}, {"eth/arriving", EthRXSTA},
		{"eth/arriving", EthRXLEN}, {"cam/exposing", DcmiSR}, {"usb/writing", UsbSTA},
	} {
		var st quietState
		for _, s := range quietStates() {
			if s.name == c.state {
				st = s
			}
		}
		d, clk := st.build()
		h := d.QuiescentUntil(c.off)
		if h == mach.Never || h <= clk.Now() {
			t.Fatalf("%s: offset %#x horizon %d, want a cycle ahead of %d", c.state, c.off, h, clk.Now())
		}
		before := d.Load(c.off, 4)
		clk.Advance(h - clk.Now())
		if after := d.Load(c.off, 4); after == before {
			t.Errorf("%s: offset %#x still reads %#x at its horizon %d", c.state, c.off, after, h)
		}
		if got := d.QuiescentUntil(c.off); got != mach.Never {
			t.Errorf("%s: offset %#x horizon %d after flipping, want Never", c.state, c.off, got)
		}
	}
}
