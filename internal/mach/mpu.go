// Package mach models the ARMv7-M-class hardware substrate the paper's
// evaluation runs on: a two-privilege-level CPU executing the project IR,
// a PMSAv7-style Memory Protection Unit with eight regions and eight
// sub-regions per region, a memory bus routing Flash, SRAM, peripheral
// and Private Peripheral Bus (PPB) accesses, exception delivery for SVC,
// MemManage and BusFault, and a DWT-style cycle counter.
//
// Every load and store the interpreter executes goes through the bus and
// is checked against the current privilege level and MPU configuration,
// so the isolation the OPEC monitor configures is actually enforced, not
// merely recorded.
package mach

import (
	"fmt"
	"math/bits"

	"opec/internal/trace"
)

// AP is a region access-permission encoding (a simplified PMSAv7 AP
// field: the combinations the OPEC and ACES runtimes need).
type AP uint8

// Access permissions, privileged/unprivileged.
const (
	APNone           AP = iota // no access at either level
	APPrivRW                   // privileged RW, unprivileged no access
	APPrivRWUnprivRO           // privileged RW, unprivileged RO
	APRW                       // full access at both levels
	APPrivRO                   // privileged RO, unprivileged no access
	APRO                       // read-only at both levels
)

func (ap AP) String() string {
	switch ap {
	case APNone:
		return "----"
	case APPrivRW:
		return "prw-"
	case APPrivRWUnprivRO:
		return "prw/uro"
	case APRW:
		return "rw/rw"
	case APPrivRO:
		return "pro-"
	case APRO:
		return "ro/ro"
	}
	return "?"
}

// allows reports whether the permission admits the access.
func (ap AP) allows(write, privileged bool) bool {
	switch ap {
	case APNone:
		return false
	case APPrivRW:
		return privileged
	case APPrivRWUnprivRO:
		return privileged || !write
	case APRW:
		return true
	case APPrivRO:
		return privileged && !write
	case APRO:
		return !write
	}
	return false
}

// MinRegionSizeLog2 is the smallest permitted region size, 32 bytes.
const MinRegionSizeLog2 = 5

// Region is one MPU region. Size is 1<<SizeLog2 bytes and must be at
// least 32; Base must be aligned to the region size. SRD disables the
// i-th of eight equal sub-regions when bit i is set; a disabled
// sub-region falls through to lower-numbered regions (Section 2.2).
type Region struct {
	Enabled  bool
	Base     uint32
	SizeLog2 uint8
	SRD      uint8
	Perm     AP
	XN       bool
}

// Validate checks the PMSAv7 size and alignment rules.
func (r Region) Validate() error {
	if !r.Enabled {
		return nil
	}
	if r.SizeLog2 < MinRegionSizeLog2 || r.SizeLog2 > 32 {
		return fmt.Errorf("mach: region size 2^%d out of range", r.SizeLog2)
	}
	if r.SizeLog2 < 32 {
		size := uint32(1) << r.SizeLog2
		if r.Base&(size-1) != 0 {
			return fmt.Errorf("mach: region base %#x not aligned to size %#x", r.Base, size)
		}
	}
	return nil
}

// contains reports whether addr falls inside the region.
func (r Region) contains(addr uint32) bool {
	if !r.Enabled {
		return false
	}
	if r.SizeLog2 >= 32 {
		return true
	}
	size := uint32(1) << r.SizeLog2
	return addr >= r.Base && addr-r.Base < size
}

// subregion returns the 0..7 sub-region index addr falls in. Only valid
// when contains(addr) and SizeLog2 >= 8 sub-region granularity; for
// regions smaller than 256 bytes PMSAv7 ignores SRD, and so do we.
func (r Region) subregion(addr uint32) int {
	if r.SizeLog2 < 8 {
		return -1
	}
	return int((addr - r.Base) >> (r.SizeLog2 - 3))
}

// subregionEnabled reports whether the sub-region covering addr is
// active.
func (r Region) subregionEnabled(addr uint32) bool {
	sr := r.subregion(addr)
	if sr < 0 {
		return true
	}
	return r.SRD&(1<<sr) == 0
}

// NumRegions is the MPU region count of the modeled Cortex-M4.
const NumRegions = 8

// MPU is the memory protection unit. Matching PMSAv7: when two regions
// overlap, the higher-numbered region's permission wins; a disabled
// sub-region defers to lower-numbered overlapping regions; with no
// matching region, privileged access uses the default memory map
// (PRIVDEFENA=1) and unprivileged access faults.
type MPU struct {
	// mpuState is what a checkpoint restores of the MPU; its fields
	// are promoted (m.Enabled, m.Regions, ...).
	mpuState

	// NoCache disables the micro-TLB, forcing every access through the
	// architectural matching loop (the cache-transparency baseline).
	NoCache bool

	// Trace, when non-nil, receives region-program, enable and
	// TLB-invalidation events; Clock stamps them (NewBus wires it).
	Trace *trace.Buffer
	Clock *Clock

	// tlb holds the micro-TLB entries (tlb.go).
	tlb [tlbSize]tlbEntry
}

// mpuRegs is the MPU's register file, the part of mpuState a state
// digest covers.
type mpuRegs struct {
	Enabled bool
	Regions [NumRegions]Region
}

// mpuState is the MPU's share of a checkpoint: its registers, the
// region-write count (an observability metric for the ablation
// benchmarks) and the micro-TLB's bookkeeping. gen invalidates entries
// and lastEnabled detects direct Enabled toggles lazily (tlb.go); the
// hit/miss/invalidation counters feed the counter registry, and with
// the cache disabled every access takes the architectural scan, so
// hits stay at zero. The generation is checkpointed because it leaks
// into the trace stream (tlb-inval gen=N): a replay from a snapshot
// must resume it where the recorded run did.
type mpuState struct {
	mpuRegs
	reconfigs   uint64
	gen         uint64
	lastEnabled bool
	tlbHits     uint64
	tlbMisses   uint64
	tlbInvals   uint64
}

// now returns the current cycle for event stamping (0 for detached
// MPUs, which some tests build without a bus).
func (m *MPU) now() uint64 {
	if m.Clock == nil {
		return 0
	}
	return m.Clock.Now()
}

// invalidate bumps the micro-TLB generation, accounting and tracing
// the invalidation.
func (m *MPU) invalidate() {
	m.gen++
	m.tlbInvals++
	if m.Trace != nil {
		m.Trace.Emit(trace.Event{
			Cycle: m.now(), Kind: trace.EvTLBInval, Op: -1, Arg: uint32(m.gen),
		})
	}
}

// SetRegion programs region i, validating size/alignment rules.
func (m *MPU) SetRegion(i int, r Region) error {
	if i < 0 || i >= NumRegions {
		return fmt.Errorf("mach: region index %d out of range", i)
	}
	if err := r.Validate(); err != nil {
		return err
	}
	m.Regions[i] = r
	m.wrote(i, true)
	return nil
}

// ClearRegion disables region i without counting as a reconfiguration
// register write (the runtimes use it to blank unused plan slots).
func (m *MPU) ClearRegion(i int) {
	m.Regions[i] = Region{}
	m.wrote(i, false)
}

// Program writes the slots of plan that the bit mask slots selects, in
// ascending order, each exactly as the per-slot call would: an enabled
// slot as SetRegion (one reconfiguration), a disabled one as
// ClearRegion. Every written slot bumps the generation once and, when
// traced, emits its tlb-inval and mpu-region events. Nothing is
// validated: a plan is checked once (Region.Validate) when it is
// derived, not on every write.
func (m *MPU) Program(plan *[NumRegions]Region, slots uint8) {
	for s := slots; s != 0; s &= s - 1 {
		i := bits.TrailingZeros8(s)
		if plan[i].Enabled {
			m.Regions[i] = plan[i]
			m.wrote(i, true)
		} else {
			m.ClearRegion(i)
		}
	}
}

// wrote accounts the write of region i: a reconfiguration when asked,
// one generation bump and the region-program event.
func (m *MPU) wrote(i int, reconfig bool) {
	if reconfig {
		m.reconfigs++
	}
	m.invalidate()
	if m.Trace != nil {
		m.Trace.Emit(trace.Event{
			Cycle: m.now(), Kind: trace.EvMPURegion, Op: -1, Arg: uint32(i), Arg2: m.Regions[i].Base,
		})
	}
}

// RestoreRegions reinstates a previously captured region file in one
// step (the monitor's operation-exit path). The caller accounts the
// cycle cost; validation is skipped because the snapshot was legal when
// captured.
func (m *MPU) RestoreRegions(regs [NumRegions]Region) {
	m.Regions = regs
	m.invalidate()
	if m.Trace != nil {
		// One event for the whole-file restore; Arg = NumRegions marks it
		// as distinct from a single-region program.
		m.Trace.Emit(trace.Event{
			Cycle: m.now(), Kind: trace.EvMPURegion, Op: -1, Arg: NumRegions,
		})
	}
}

// SetEnabled turns the MPU on or off (the MPU_CTRL ENABLE bit).
func (m *MPU) SetEnabled(on bool) {
	m.Enabled = on
	m.lastEnabled = on
	m.invalidate()
	if m.Trace != nil {
		v := uint32(0)
		if on {
			v = 1
		}
		m.Trace.Emit(trace.Event{Cycle: m.now(), Kind: trace.EvMPUEnable, Op: -1, Arg: v})
	}
}

// MustSetRegion is SetRegion for statically-correct configurations.
func (m *MPU) MustSetRegion(i int, r Region) {
	if err := m.SetRegion(i, r); err != nil {
		panic(err)
	}
}

// Reconfigs returns the number of region writes so far.
func (m *MPU) Reconfigs() uint64 { return m.reconfigs }

// Counters implements trace.CounterSource: region writes plus the
// micro-TLB hit/miss/invalidation tallies.
func (m *MPU) Counters() []trace.Counter {
	return []trace.Counter{
		{Name: "mach.mpu.reconfigs", Value: m.reconfigs},
		{Name: "mach.tlb.hits", Value: m.tlbHits},
		{Name: "mach.tlb.misses", Value: m.tlbMisses},
		{Name: "mach.tlb.invalidations", Value: m.tlbInvals},
	}
}

// Allows reports whether the access passes the MPU. It implements the
// full PMSAv7 matching rule including sub-region fall-through, with the
// per-block adjudication served from the micro-TLB (tlb.go).
func (m *MPU) Allows(addr uint32, write, privileged bool) bool {
	if m.Enabled != m.lastEnabled {
		// Enabled was toggled by direct field write: invalidate lazily
		// so entries cached under the previous configuration never leak
		// across the transition.
		m.lastEnabled = m.Enabled
		m.invalidate()
	}
	if !m.Enabled {
		return true
	}
	if m.NoCache {
		if i := m.regionScan(addr); i >= 0 {
			return m.Regions[i].Perm.allows(write, privileged)
		}
		return privileged
	}
	e := m.lookup(addr)
	if e.bg {
		// Background map: privileged default map, unprivileged faults.
		return privileged
	}
	return e.perm.allows(write, privileged)
}

// regionScan is the architectural PMSAv7 matching loop: the
// highest-numbered containing region with an active sub-region wins;
// -1 means the background map adjudicates.
func (m *MPU) regionScan(addr uint32) int {
	for i := NumRegions - 1; i >= 0; i-- {
		r := &m.Regions[i]
		if !r.contains(addr) {
			continue
		}
		if !r.subregionEnabled(addr) {
			continue // falls through to lower-numbered regions
		}
		return i
	}
	return -1
}

// RegionFor returns the index of the region that would adjudicate an
// access to addr, or -1 for the background map. Used by diagnostics and
// tests.
func (m *MPU) RegionFor(addr uint32) int {
	if !m.Enabled {
		return -1
	}
	return m.regionScan(addr)
}

// RegionSizeFor returns the smallest legal MPU region size (log2) that
// can cover n bytes. The minimum is 32 bytes.
func RegionSizeFor(n int) uint8 {
	s := uint8(MinRegionSizeLog2)
	for n > 1<<s {
		s++
	}
	return s
}

// AlignUp rounds addr up to the given power-of-two alignment.
func AlignUp(addr uint32, sizeLog2 uint8) uint32 {
	size := uint32(1) << sizeLog2
	return (addr + size - 1) &^ (size - 1)
}
