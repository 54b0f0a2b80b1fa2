package dev

import "opec/internal/mach"

// This file implements mach.Quiescent for every device model: for each
// register offset, the first cycle at which a load may return a
// different value, given no store in between. Status bits that follow
// a scheduled ready cycle report that cycle until it passes and Never
// afterwards (only a store or a consuming read clears them again);
// plain register files report Never; registers whose load consumes
// data (FIFO pops, the RNG step) report 0, which keeps any loop that
// reads them running iteration by iteration. Every offset a Load
// switch does not name reads as a constant and reports Never.

// Compile-time checks that every device model reports horizons.
var (
	_ mach.Quiescent = (*UART)(nil)
	_ mach.Quiescent = (*GPIO)(nil)
	_ mach.Quiescent = (*RCC)(nil)
	_ mach.Quiescent = (*Regs)(nil)
	_ mach.Quiescent = (*RNG)(nil)
	_ mach.Quiescent = (*SDCard)(nil)
	_ mach.Quiescent = (*LCD)(nil)
	_ mach.Quiescent = (*DMA2D)(nil)
	_ mach.Quiescent = (*EthMAC)(nil)
	_ mach.Quiescent = (*Camera)(nil)
	_ mach.Quiescent = (*USBMSC)(nil)
)

// until is the horizon of a bit that turns on at cycle at: that cycle
// while it lies ahead, Never once it has passed.
func until(clk *mach.Clock, at uint64) uint64 {
	if clk.Now() < at {
		return at
	}
	return mach.Never
}

// QuiescentUntil implements mach.Quiescent. RXNE rises when the next
// queued byte's pacing interval ends; DR pops the stream.
func (u *UART) QuiescentUntil(off uint32) uint64 {
	switch off {
	case UartSR:
		if len(u.rx) > 0 {
			return until(u.Clk, u.rxReadyAt)
		}
	case UartDR:
		return 0
	}
	return mach.Never
}

// QuiescentUntil implements mach.Quiescent: IDR follows the scripted
// button press.
func (g *GPIO) QuiescentUntil(off uint32) uint64 {
	if off == GpioIDR && g.hasPress {
		return until(g.Clk, g.PressAt)
	}
	return mach.Never
}

// QuiescentUntil implements mach.Quiescent: a plain register file.
func (r *RCC) QuiescentUntil(uint32) uint64 { return mach.Never }

// QuiescentUntil implements mach.Quiescent: a plain register file.
func (r *Regs) QuiescentUntil(uint32) uint64 { return mach.Never }

// QuiescentUntil implements mach.Quiescent: every DR read steps the
// generator.
func (r *RNG) QuiescentUntil(off uint32) uint64 {
	if off == RngDR {
		return 0
	}
	return mach.Never
}

// QuiescentUntil implements mach.Quiescent: STA turns ready at the end
// of the command latency; the FIFO pops.
func (s *SDCard) QuiescentUntil(off uint32) uint64 {
	switch off {
	case SdioSTA:
		return until(s.Clk, s.readyAt)
	case SdioFIFO:
		return 0
	}
	return mach.Never
}

// QuiescentUntil implements mach.Quiescent: STA turns ready when the
// panel refresh ends.
func (l *LCD) QuiescentUntil(off uint32) uint64 {
	if off == LcdSTA {
		return until(l.Clk, l.busyUntil)
	}
	return mach.Never
}

// QuiescentUntil implements mach.Quiescent: STA reports done when the
// transfer latency ends.
func (d *DMA2D) QuiescentUntil(off uint32) uint64 {
	if off == Dma2dSTA {
		return until(d.Clk, d.doneAt)
	}
	return mach.Never
}

// QuiescentUntil implements mach.Quiescent: the receive status and
// length appear when the head frame's arrival interval ends; the
// receive FIFO pops.
func (e *EthMAC) QuiescentUntil(off uint32) uint64 {
	switch off {
	case EthRXSTA, EthRXLEN:
		if len(e.rxQueue) > 0 {
			return until(e.Clk, e.rxReadyAt)
		}
	case EthRXFIFO:
		return 0
	}
	return mach.Never
}

// QuiescentUntil implements mach.Quiescent: SR reports the frame when
// the exposure ends; the FIFO pops.
func (c *Camera) QuiescentUntil(off uint32) uint64 {
	switch off {
	case DcmiSR:
		if c.Captures > 0 {
			return until(c.Clk, c.readyAt)
		}
	case DcmiFIFO:
		return 0
	}
	return mach.Never
}

// QuiescentUntil implements mach.Quiescent: STA turns ready when the
// sector write latency ends.
func (u *USBMSC) QuiescentUntil(off uint32) uint64 {
	if off == UsbSTA {
		return until(u.Clk, u.readyAt)
	}
	return mach.Never
}
