package mach

import "fmt"

// This file models the RISC-V Physical Memory Protection unit — the
// portability target the paper's Section 7 names for OPEC ("the target
// hardware platform is required to have a memory protection unit, which
// has enough regions enforcing the physical memory permissions similar
// to the ARM MPU, e.g., RISC-V PMP").
//
// PMP semantics differ from PMSAv7 in exactly the ways that matter for
// the isolation design:
//
//   - 16 entries instead of 8 regions;
//   - the LOWEST-numbered matching entry wins (PMSAv7: highest);
//   - no sub-regions; ranges are NAPOT (naturally aligned power of two)
//     or TOR (top of range, using the previous entry's address as base);
//   - with no matching entry, M-mode (privileged) access is allowed and
//     U-mode access is denied — the same default posture as PRIVDEFENA.
//
// The absence of sub-regions changes the stack scheme: instead of
// disabling sub-regions above the switch boundary, the PMP plan grants
// a TOR range [stack base, boundary) — strictly more precise.

// PMP address-matching modes.
type PMPMode uint8

// PMP entry modes.
const (
	PMPOff   PMPMode = iota // entry disabled
	PMPTOR                  // range (previous entry's address, this address]
	PMPNAPOT                // naturally aligned power-of-two range
)

// PMP permission bits.
const (
	PMPR = 1 << 0
	PMPW = 1 << 1
	PMPX = 1 << 2
)

// PMPEntry is one pmpcfg/pmpaddr pair, held in expanded form.
type PMPEntry struct {
	Mode PMPMode
	Perm uint8 // PMPR|PMPW|PMPX

	// Addr is the region top for TOR, or the base for NAPOT.
	Addr uint32
	// SizeLog2 is the NAPOT range size (>= 3, i.e. 8 bytes).
	SizeLog2 uint8
}

// Validate checks encodability: NAPOT needs >= 8-byte, size-aligned
// ranges; TOR needs a top address.
func (e PMPEntry) Validate() error {
	switch e.Mode {
	case PMPOff, PMPTOR:
		return nil
	case PMPNAPOT:
		if e.SizeLog2 < 3 || e.SizeLog2 > 32 {
			return fmt.Errorf("mach: NAPOT size 2^%d out of range", e.SizeLog2)
		}
		if e.SizeLog2 < 32 && e.Addr&(1<<e.SizeLog2-1) != 0 {
			return fmt.Errorf("mach: NAPOT base %#x not aligned to 2^%d", e.Addr, e.SizeLog2)
		}
		return nil
	}
	return fmt.Errorf("mach: unknown PMP mode %d", e.Mode)
}

// NumPMPEntries is the standard RISC-V PMP entry count.
const NumPMPEntries = 16

// PMP is the protection unit. It implements mach.Protection, so a Bus
// can enforce it in place of the MPU.
type PMP struct {
	// pmpState is what a checkpoint restores of the PMP; its fields
	// are promoted (p.Enabled, p.Entries).
	pmpState
}

// pmpRegs is the PMP's register file, the part of pmpState a state
// digest covers.
type pmpRegs struct {
	Enabled bool
	Entries [NumPMPEntries]PMPEntry
}

// pmpState is the PMP's share of a checkpoint: its registers and the
// entry-write count, reported as mach.pmp.reconfigs and read by the
// fast-forward as the unit's configuration epoch.
type pmpState struct {
	pmpRegs
	reconfigs uint64
}

// SetEntry programs entry i.
func (p *PMP) SetEntry(i int, e PMPEntry) error {
	if i < 0 || i >= NumPMPEntries {
		return fmt.Errorf("mach: PMP entry %d out of range", i)
	}
	if err := e.Validate(); err != nil {
		return err
	}
	p.Entries[i] = e
	p.reconfigs++
	return nil
}

// MustSetEntry is SetEntry for statically-correct plans.
func (p *PMP) MustSetEntry(i int, e PMPEntry) {
	if err := p.SetEntry(i, e); err != nil {
		panic(err)
	}
}

// Reconfigs returns the number of entry writes so far.
func (p *PMP) Reconfigs() uint64 { return p.reconfigs }

// matches reports whether entry i covers addr (TOR consults the
// previous entry's address as the range base, per the spec).
func (p *PMP) matches(i int, addr uint32) bool {
	e := p.Entries[i]
	switch e.Mode {
	case PMPTOR:
		var lo uint32
		if i > 0 {
			lo = p.Entries[i-1].Addr
		}
		return addr >= lo && addr < e.Addr
	case PMPNAPOT:
		if e.SizeLog2 >= 32 {
			return true
		}
		return addr >= e.Addr && addr-e.Addr < 1<<e.SizeLog2
	}
	return false
}

// Allows implements Protection with RISC-V priority: the
// lowest-numbered matching entry adjudicates U-mode accesses; no match
// denies them. M-mode (privileged) accesses bypass unlocked entries
// entirely, per the spec (this model does not implement the L bit —
// the monitor is the only privileged code and is trusted).
func (p *PMP) Allows(addr uint32, write, privileged bool) bool {
	if !p.Enabled || privileged {
		return true
	}
	for i := 0; i < NumPMPEntries; i++ {
		if !p.matches(i, addr) {
			continue
		}
		perm := p.Entries[i].Perm
		if write {
			return perm&PMPW != 0
		}
		return perm&PMPR != 0
	}
	return false
}

// EntryFor returns the adjudicating entry index for addr, or -1.
func (p *PMP) EntryFor(addr uint32) int {
	if !p.Enabled {
		return -1
	}
	for i := 0; i < NumPMPEntries; i++ {
		if p.matches(i, addr) {
			return i
		}
	}
	return -1
}

// NAPOTFor returns the smallest legal NAPOT size (log2) covering n
// bytes (minimum 8 bytes).
func NAPOTFor(n int) uint8 {
	s := uint8(3)
	for n > 1<<s {
		s++
	}
	return s
}
