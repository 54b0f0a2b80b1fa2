package mach

import (
	"fmt"
	"sort"

	"opec/internal/trace"
)

// ARMv7-M memory map anchors (Figure 2 of the paper).
const (
	FlashBase  uint32 = 0x08000000 // STM32 main Flash
	SRAMBase   uint32 = 0x20000000
	PeriphBase uint32 = 0x40000000
	PeriphEnd  uint32 = 0x60000000
	PPBBase    uint32 = 0xE0000000 // Private Peripheral Bus
	PPBEnd     uint32 = 0xE0100000
)

// Core-peripheral register addresses on the PPB that the workloads and
// runtimes touch. Unprivileged access to any PPB address is a BusFault
// (Section 2.1); OPEC-Monitor emulates such accesses, ACES lifts the
// compartment to privileged instead.
const (
	DWTCtrl    uint32 = 0xE0001000
	DWTCyccnt  uint32 = 0xE0001004
	SysTickCSR uint32 = 0xE000E010
	SysTickRVR uint32 = 0xE000E014
	SysTickCVR uint32 = 0xE000E018
	NVICISER0  uint32 = 0xE000E100
	SCBVTOR    uint32 = 0xE000ED08
	SCBCCR     uint32 = 0xE000ED14
	MPUCtrl    uint32 = 0xE000ED94
)

// FaultKind classifies a memory access fault.
type FaultKind uint8

// Fault kinds.
const (
	FaultMemManage FaultKind = iota // MPU permission violation
	FaultBus                        // unprivileged PPB access or unmapped address
	FaultUsage                      // control transfer to a non-function address
)

func (k FaultKind) String() string {
	switch k {
	case FaultMemManage:
		return "MemManage"
	case FaultBus:
		return "BusFault"
	case FaultUsage:
		return "UsageFault"
	}
	return "?"
}

// Fault describes a faulting access; delivered to the installed handler
// (the reference monitor) which may emulate, fix-and-retry, or abort.
type Fault struct {
	Kind       FaultKind
	Addr       uint32
	Write      bool
	Size       int
	Val        uint32 // value being stored, for write emulation
	Privileged bool
}

func (f *Fault) Error() string {
	lvl := "unprivileged"
	if f.Privileged {
		lvl = "privileged"
	}
	if f.Kind == FaultUsage {
		return fmt.Sprintf("%s: %s jump to non-function address %#08x", f.Kind, lvl, f.Addr)
	}
	dir := "read"
	if f.Write {
		dir = "write"
	}
	return fmt.Sprintf("%s: %s %s of %d bytes at %#08x", f.Kind, lvl, dir, f.Size, f.Addr)
}

// Device is a memory-mapped peripheral model. Offsets are relative to
// Base(). Devices are passive: they compute state on demand from the
// shared cycle clock, so "waiting for I/O" is a polling loop that
// advances cycles until the device's scheduled readiness time.
type Device interface {
	Name() string
	Base() uint32
	Size() uint32
	Load(off uint32, size int) uint32
	Store(off uint32, size int, v uint32)
}

// IRQSource is implemented by devices that can assert an interrupt.
type IRQSource interface {
	Device
	// IRQPending reports whether the device is asserting its line.
	IRQPending() bool
	// IRQAck clears the pending line (called when the handler is
	// dispatched).
	IRQAck()
}

// Clock is the shared cycle counter (the DWT CYCCNT source).
type Clock struct {
	clockState
}

// clockState is what a checkpoint restores of the clock.
type clockState struct {
	cycles uint64
}

// Now returns the current cycle count.
func (c *Clock) Now() uint64 { return c.cycles }

// Advance adds n cycles.
func (c *Clock) Advance(n uint64) { c.cycles += n }

// Protection adjudicates memory accesses: the ARMv7-M MPU by default,
// or a RISC-V PMP (the paper's Section 7 portability target).
type Protection interface {
	Allows(addr uint32, write, privileged bool) bool
}

// Bus routes accesses by address to Flash, SRAM, peripherals and the
// PPB, enforcing privilege and protection-unit rules on the way.
type Bus struct {
	// busState is what a checkpoint restores of the bus.
	busState

	MPU   *MPU
	Clock *Clock

	// Prot is the active protection unit; NewBus points it at MPU.
	// Swap in a *PMP to model a RISC-V PMP platform.
	Prot Protection

	// Flash and SRAM are page-addressable copy-on-write memories so a
	// machine checkpoint shares pages with the live run (pagedmem.go).
	flash *pagedMem
	sram  *pagedMem

	devices []Device // sorted by base address

	// Last-device cache: peripheral polling loops hit one register
	// block thousands of times in a row; caching the last resolved
	// device (with its bounds denormalized to plain words) skips the
	// binary search. noDevCache pins the slow path for the
	// cache-transparency comparison.
	lastDev    Device
	lastBase   uint32
	lastEnd    uint32
	noDevCache bool

	// checks is the check level SetChecks applied.
	checks Checks

	// rawWatch, when non-nil, observes raw (check-bypassing) writes —
	// the watch seam's hardware-level half (watch.go).
	rawWatch func(addr uint32, size int, val uint32)

	// writes counts every store issued through the bus, checked or raw,
	// and horizons, when non-nil, logs the horizon of every device and
	// PPB read: together they let a fast-forward witness prove a loop
	// iteration changed no memory and read only quiescent registers
	// (fastforward.go).
	writes   uint64
	horizons *horizonLog
}

// busRegs is the bus's architected state, the part of busState a
// state digest covers.
type busRegs struct {
	// dwtEnabled gates the cycle counter register.
	dwtEnabled bool
}

// busState is the bus's share of a checkpoint: its registers and the
// last-device cache's hit counter, which feeds the counter registry.
type busState struct {
	busRegs
	devCacheHits uint64
}

// NewBus creates a bus with the given Flash and SRAM sizes.
func NewBus(flashSize, sramSize int, clk *Clock) *Bus {
	b := &Bus{
		MPU:   &MPU{},
		Clock: clk,
		flash: newPagedMem(flashSize),
		sram:  newPagedMem(sramSize),
	}
	b.MPU.Clock = clk
	b.Prot = b.MPU
	return b
}

// SetChecks sets the bus's check level, before anything boots on it: a
// CheckReference bus runs without its lookup caches, and its machine
// installs no certificates.
func (b *Bus) SetChecks(c Checks) {
	b.checks = c
	b.MPU.NoCache = c == CheckReference
	b.noDevCache = c == CheckReference
}

// Counters implements trace.CounterSource for the bus and its
// protection units: the MPU's always, and the PMP's entry writes when
// a PMP is the active unit.
func (b *Bus) Counters() []trace.Counter {
	cs := []trace.Counter{{Name: "mach.bus.dev_cache_hits", Value: b.devCacheHits}}
	if b.MPU != nil {
		cs = append(cs, b.MPU.Counters()...)
	}
	if p, ok := b.Prot.(*PMP); ok {
		cs = append(cs, trace.Counter{Name: "mach.pmp.reconfigs", Value: p.reconfigs})
	}
	return cs
}

// Attach registers a device; overlapping ranges are a configuration
// error.
func (b *Bus) Attach(d Device) error {
	for _, e := range b.devices {
		if d.Base() < e.Base()+e.Size() && e.Base() < d.Base()+d.Size() {
			return fmt.Errorf("mach: device %s overlaps %s", d.Name(), e.Name())
		}
	}
	b.devices = append(b.devices, d)
	sort.Slice(b.devices, func(i, j int) bool { return b.devices[i].Base() < b.devices[j].Base() })
	b.lastDev, b.lastBase, b.lastEnd = nil, 0, 0
	return nil
}

// Devices returns the attached devices in address order.
func (b *Bus) Devices() []Device { return b.devices }

// DeviceAt returns the device covering addr, or nil.
func (b *Bus) DeviceAt(addr uint32) Device { return b.deviceAt(addr) }

// deviceAt resolves addr to its device through the last-device cache,
// falling back to binary search over the sorted device list.
func (b *Bus) deviceAt(addr uint32) Device {
	if addr >= b.lastBase && addr < b.lastEnd && !b.noDevCache {
		b.devCacheHits++
		return b.lastDev
	}
	i := sort.Search(len(b.devices), func(i int) bool {
		return b.devices[i].Base()+b.devices[i].Size() > addr
	})
	if i < len(b.devices) && addr >= b.devices[i].Base() {
		d := b.devices[i]
		b.lastDev, b.lastBase, b.lastEnd = d, d.Base(), d.Base()+d.Size()
		return d
	}
	return nil
}

// FlashSize and SRAMSize report configured capacities.
func (b *Bus) FlashSize() int { return b.flash.size }
func (b *Bus) SRAMSize() int  { return b.sram.size }

// targetKind classifies an address after one resolution pass.
type targetKind uint8

const (
	targetNone targetKind = iota // unmapped (or straddling a boundary)
	targetFlash
	targetSRAM
	targetDevice
	targetPPB
)

// contains reports whether [addr, addr+size) lies fully inside the
// length-byte range based at base, returning the offset. The uint64
// widening keeps addresses near the top of the address space from
// wrapping into a false positive.
func contains(addr, base uint32, length uint32, size int) (uint32, bool) {
	off := addr - base
	return off, addr >= base && uint64(off)+uint64(size) <= uint64(length)
}

// resolve classifies addr in a single pass: the returned kind selects
// the backing store, off is the offset into it (flash/sram/device), and
// d is the owning device for targetDevice. An access that starts inside
// a device but ends past its Size() resolves to targetNone — hardware
// raises a bus error for partially-decoded transfers, and handing the
// device model an out-of-range offset would let it misbehave silently.
func (b *Bus) resolve(addr uint32, size int) (targetKind, uint32, Device) {
	if off, ok := contains(addr, FlashBase, uint32(b.flash.size), size); ok {
		return targetFlash, off, nil
	}
	if off, ok := contains(addr, SRAMBase, uint32(b.sram.size), size); ok {
		return targetSRAM, off, nil
	}
	if addr >= PPBBase && addr < PPBEnd {
		return targetPPB, addr - PPBBase, nil
	}
	if d := b.deviceAt(addr); d != nil {
		if off, ok := contains(addr, d.Base(), d.Size(), size); ok {
			return targetDevice, off, d
		}
	}
	return targetNone, 0, nil
}

// Load performs a checked load. A non-nil *Fault means the access did
// not complete. The address is classified exactly once; privilege and
// protection-unit rules apply in the architected order (PPB privilege,
// then bus decode, then MPU).
func (b *Bus) Load(addr uint32, size int, privileged bool) (uint32, *Fault) {
	k, off, d := b.resolve(addr, size)
	switch k {
	case targetPPB:
		// PPB is privileged-only by architecture, independent of the MPU.
		if !privileged {
			return 0, &Fault{Kind: FaultBus, Addr: addr, Size: size}
		}
		return b.ppbLoad(addr, size), nil
	case targetNone:
		return 0, &Fault{Kind: FaultBus, Addr: addr, Size: size, Privileged: privileged}
	}
	if !b.Prot.Allows(addr, false, privileged) {
		return 0, &Fault{Kind: FaultMemManage, Addr: addr, Size: size, Privileged: privileged}
	}
	switch k {
	case targetFlash:
		return b.flash.readLE(off, size), nil
	case targetSRAM:
		return b.sram.readLE(off, size), nil
	default:
		return b.devLoad(d, off, size), nil
	}
}

// devLoad reads a device register, logging its horizon while a
// fast-forward witness is live.
func (b *Bus) devLoad(d Device, off uint32, size int) uint32 {
	v := d.Load(off, size)
	if b.horizons != nil {
		b.horizons.note(d, off)
	}
	return v
}

// Store performs a checked store.
func (b *Bus) Store(addr uint32, size int, v uint32, privileged bool) *Fault {
	b.writes++
	k, off, d := b.resolve(addr, size)
	switch k {
	case targetPPB:
		if !privileged {
			return &Fault{Kind: FaultBus, Addr: addr, Write: true, Size: size, Val: v}
		}
		b.ppbStore(addr, size, v)
		return nil
	case targetNone:
		return &Fault{Kind: FaultBus, Addr: addr, Write: true, Size: size, Val: v, Privileged: privileged}
	}
	if !b.Prot.Allows(addr, true, privileged) {
		return &Fault{Kind: FaultMemManage, Addr: addr, Write: true, Size: size, Val: v, Privileged: privileged}
	}
	switch k {
	case targetFlash:
		b.flash.writeLE(off, size, v)
	case targetSRAM:
		b.sram.writeLE(off, size, v)
	default:
		d.Store(off, size, v)
	}
	return nil
}

// RawLoad bypasses permission checks (used by the privileged monitor's
// internal copies after it has performed its own policy checks, and by
// the loader).
func (b *Bus) RawLoad(addr uint32, size int) (uint32, *Fault) {
	switch k, off, d := b.resolve(addr, size); k {
	case targetFlash:
		return b.flash.readLE(off, size), nil
	case targetSRAM:
		return b.sram.readLE(off, size), nil
	case targetPPB:
		return b.ppbLoad(addr, size), nil
	case targetDevice:
		return b.devLoad(d, off, size), nil
	}
	return 0, &Fault{Kind: FaultBus, Addr: addr, Size: size, Privileged: true}
}

// RawStore bypasses permission checks.
func (b *Bus) RawStore(addr uint32, size int, v uint32) *Fault {
	b.writes++
	if b.rawWatch != nil {
		b.rawWatch(addr, size, v)
	}
	switch k, off, d := b.resolve(addr, size); k {
	case targetFlash:
		b.flash.writeLE(off, size, v)
		return nil
	case targetSRAM:
		b.sram.writeLE(off, size, v)
		return nil
	case targetPPB:
		b.ppbStore(addr, size, v)
		return nil
	case targetDevice:
		d.Store(off, size, v)
		return nil
	}
	return &Fault{Kind: FaultBus, Addr: addr, Size: size, Write: true, Val: v, Privileged: true}
}

func (b *Bus) ppbLoad(addr uint32, size int) uint32 {
	if b.horizons != nil {
		// The cycle counter changes every cycle; the other core
		// registers change only when written.
		h := Never
		if addr == DWTCyccnt {
			h = 0
		}
		b.horizons.add(h)
	}
	switch addr {
	case DWTCyccnt:
		return uint32(b.Clock.Now())
	case DWTCtrl:
		if b.dwtEnabled {
			return 1
		}
		return 0
	}
	return 0
}

func (b *Bus) ppbStore(addr uint32, size int, v uint32) {
	switch addr {
	case DWTCtrl:
		b.dwtEnabled = v&1 != 0
	}
	// Other core registers accept writes and are modeled as state the
	// runtimes own directly (MPU via *MPU, exceptions via handlers).
}

func readLE(b []byte, size int) uint32 {
	switch size {
	case 1:
		return uint32(b[0])
	case 2:
		return uint32(b[0]) | uint32(b[1])<<8
	default:
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	}
}

func writeLE(b []byte, size int, v uint32) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		b[0], b[1] = byte(v), byte(v>>8)
	default:
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
}

// CopyMem copies n bytes inside simulated memory using raw access; the
// monitor uses it for shadow synchronization after policy checks.
// Flash/SRAM-to-SRAM copies take a bulk memmove path; everything else
// (device windows, PPB, straddles) falls back to the byte loop, which
// also preserves the historical forward-byte replication semantics for
// overlapping ranges with dst inside [src, src+n).
func (b *Bus) CopyMem(dst, src uint32, n int) *Fault {
	b.writes++
	if n > 1 {
		// The bulk path additionally requires both ranges to sit inside
		// one page each (view returns nil on a straddle); the byte loop
		// below is value-identical for every case the views decline.
		var sbuf []byte
		switch k, off, _ := b.resolve(src, n); k {
		case targetFlash:
			sbuf = b.flash.view(off, n)
		case targetSRAM:
			sbuf = b.sram.view(off, n)
		}
		if dOff, ok := contains(dst, SRAMBase, uint32(b.sram.size), n); ok && sbuf != nil {
			overlapFwd := src >= SRAMBase && dst > src && uint64(dst) < uint64(src)+uint64(n)
			if !overlapFwd {
				if dbuf := b.sram.writableView(dOff, n); dbuf != nil {
					if b.rawWatch != nil {
						// One footprint call for the bulk move (watch.go).
						b.rawWatch(dst, n, 0)
					}
					copy(dbuf, sbuf)
					return nil
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		v, f := b.RawLoad(src+uint32(i), 1)
		if f != nil {
			return f
		}
		if f := b.RawStore(dst+uint32(i), 1, v); f != nil {
			return f
		}
	}
	return nil
}
