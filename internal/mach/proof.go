package mach

import "fmt"

// This file implements the proof-guided MPU-check elision fast path.
// The static proof engine (internal/absint) certifies, per function and
// instruction, loads and stores whose address interval provably lies
// inside every MPU plan the instruction can execute under while
// unprivileged. For such accesses the protection-unit adjudication
// (micro-TLB lookup or architectural region scan) is skipped entirely:
// the proof already established the verdict at compile time.
//
// Transparency invariant (mirrors the micro-TLB's, tlb.go): elision may
// change wall-clock time only. The elided path charges the same CostMem,
// performs the same bus routing (PPB privilege checks and unmapped-
// address BusFaults still fire), and produces the same values, so cycle
// accounting and rendered experiment tables are byte-identical on a
// CheckReference machine, which holds no certificates. Only the
// micro-TLB hit/miss counters may drift, since elided accesses never
// consult it.
//
// Soundness rests on three facts the prover checks:
//   - certificates apply only to unprivileged execution, where the
//     current operation is necessarily one the function is a member of
//     (unprivileged control flow cannot cross a gate unnoticed);
//   - every access-permission encoding is monotonic in privilege
//     (AllowsUnprivileged), so a certificate also covers the access if
//     hardware ever replays it privileged;
//   - regions whose runtime contents vary (the stack region's SRD mask,
//     virtualized peripheral slots) are never used to justify a proof.
// A CheckParanoid machine re-adjudicates every elided access through
// the full checked path and panics on any disagreement — the
// differential harness for those arguments.

// Checks is a machine's check level: which of the simulator's fast
// paths run, and whether they are trusted. Bus.SetChecks applies it
// before the machine boots; the zero value is CheckFast.
type Checks uint8

const (
	// CheckFast runs every fast path: the micro-TLB, the last-device
	// cache and certificate elision.
	CheckFast Checks = iota
	// CheckReference turns the lookup caches off and installs no
	// certificates, so the MPU adjudicates every access: the reference
	// the fast paths must match.
	CheckReference
	// CheckParanoid runs the fast paths but re-adjudicates every elided
	// access, and panics on a certificate the MPU denies.
	CheckParanoid
)

// String names the level.
func (c Checks) String() string { return [...]string{"fast", "reference", "paranoid"}[c] }

// Certificate bits for one instruction slot: the proof engine sets
// CertLoad when the instruction's load is proven in-region, CertStore
// when its store is.
const (
	CertLoad  byte = 1 << 0
	CertStore byte = 1 << 1
)

// InstallProofs attaches a certificate table to the machine. The outer
// slice is indexed by ir.Function.Index(), the inner by instruction ID;
// each byte holds CertLoad/CertStore bits. Functions without an entry
// (nil inner slice) always take the checked path. The monitor installs
// the table at boot on the MPU backend only: certificates are proven
// against the ARMv7-M region plans and do not transfer to PMP. A
// CheckReference machine installs none.
func (m *Machine) InstallProofs(certs [][]byte) {
	if m.Bus.checks == CheckReference {
		certs = nil
	}
	for i := range m.metaByIdx {
		if i < len(certs) {
			m.metaByIdx[i].certs = certs[i]
		} else {
			m.metaByIdx[i].certs = nil
		}
	}
}

// loadProven performs a certified load: same cycle cost and bus routing
// as loadChecked, minus the protection-unit adjudication. On a
// CheckParanoid machine the full check runs anyway and a denial is a
// proof-soundness violation.
func (m *Machine) loadProven(addr uint32, size int) (uint32, error) {
	m.Clock.Advance(CostMem)
	m.proofElided++
	var v uint32
	var f *Fault
	if m.Bus.checks == CheckParanoid {
		v, f = m.Bus.Load(addr, size, m.Privileged)
		if f != nil && f.Kind == FaultMemManage {
			panic(fmt.Sprintf("mach: proof disagreement: certified read of %d bytes at %#08x denied by the protection unit", size, addr))
		}
	} else {
		v, f = m.Bus.LoadProven(addr, size, m.Privileged)
	}
	if f == nil {
		return v, nil
	}
	return m.handleFault(f)
}

// storeProven performs a certified store (see loadProven).
func (m *Machine) storeProven(addr uint32, size int, v uint32) error {
	m.Clock.Advance(CostMem)
	m.proofElided++
	var f *Fault
	if m.Bus.checks == CheckParanoid {
		f = m.Bus.Store(addr, size, v, m.Privileged)
		if f != nil && f.Kind == FaultMemManage {
			panic(fmt.Sprintf("mach: proof disagreement: certified write of %d bytes at %#08x denied by the protection unit", size, addr))
		}
	} else {
		f = m.Bus.StoreProven(addr, size, v, m.Privileged)
	}
	if m.watch != nil {
		m.notifyStore(addr, size, v, true, f)
	}
	if f == nil {
		return nil
	}
	_, err := m.handleFault(f)
	return err
}

// LoadProven is Bus.Load without the protection-unit adjudication. The
// architected PPB privilege rule and bus decoding still apply: a
// certificate proves the MPU verdict, not the memory map.
func (b *Bus) LoadProven(addr uint32, size int, privileged bool) (uint32, *Fault) {
	k, off, d := b.resolve(addr, size)
	switch k {
	case targetPPB:
		if !privileged {
			return 0, &Fault{Kind: FaultBus, Addr: addr, Size: size}
		}
		return b.ppbLoad(addr, size), nil
	case targetNone:
		return 0, &Fault{Kind: FaultBus, Addr: addr, Size: size, Privileged: privileged}
	case targetFlash:
		return b.flash.readLE(off, size), nil
	case targetSRAM:
		return b.sram.readLE(off, size), nil
	default:
		return b.devLoad(d, off, size), nil
	}
}

// StoreProven is Bus.Store without the protection-unit adjudication.
func (b *Bus) StoreProven(addr uint32, size int, v uint32, privileged bool) *Fault {
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
	case targetFlash:
		b.flash.writeLE(off, size, v)
	case targetSRAM:
		b.sram.writeLE(off, size, v)
	default:
		d.Store(off, size, v)
	}
	return nil
}

// AllowsUnprivileged reports whether the permission admits an
// unprivileged access. Exported for the static proof engine: every AP
// encoding is monotonic in privilege (unprivileged-allowed implies
// privileged-allowed), so proving the unprivileged case certifies the
// access at either level.
func (ap AP) AllowsUnprivileged(write bool) bool { return ap.allows(write, false) }

// Contains reports whether addr falls inside the region (exported for
// the static proof engine's region-file reasoning).
func (r Region) Contains(addr uint32) bool { return r.contains(addr) }

// SubregionEnabled reports whether the sub-region covering addr is
// active (exported for the static proof engine).
func (r Region) SubregionEnabled(addr uint32) bool { return r.subregionEnabled(addr) }
