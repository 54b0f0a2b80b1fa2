package mach

import (
	"testing"
	"testing/quick"
)

func TestPMPEntryValidate(t *testing.T) {
	good := PMPEntry{Mode: PMPNAPOT, Addr: 0x20000000, SizeLog2: 10, Perm: PMPR | PMPW}
	if err := good.Validate(); err != nil {
		t.Errorf("valid NAPOT rejected: %v", err)
	}
	if err := (PMPEntry{Mode: PMPNAPOT, Addr: 0x20000004, SizeLog2: 10}).Validate(); err == nil {
		t.Error("misaligned NAPOT accepted")
	}
	if err := (PMPEntry{Mode: PMPNAPOT, SizeLog2: 2}).Validate(); err == nil {
		t.Error("sub-8-byte NAPOT accepted")
	}
	if err := (PMPEntry{Mode: PMPTOR, Addr: 0x1000}).Validate(); err != nil {
		t.Errorf("TOR rejected: %v", err)
	}
	if err := (PMPEntry{Mode: PMPOff}).Validate(); err != nil {
		t.Errorf("OFF rejected: %v", err)
	}
}

// enabledPMP returns a detached, enabled PMP with no entries.
func enabledPMP() *PMP {
	p := &PMP{}
	p.Enabled = true
	return p
}

func TestPMPLowestEntryWins(t *testing.T) {
	p := enabledPMP()
	// Entry 0: a 1 KB RW window; entry 5: the same range read-only.
	p.MustSetEntry(0, PMPEntry{Mode: PMPNAPOT, Perm: PMPR | PMPW, Addr: 0x20000000, SizeLog2: 10})
	p.MustSetEntry(5, PMPEntry{Mode: PMPNAPOT, Perm: PMPR, Addr: 0x20000000, SizeLog2: 12})

	if !p.Allows(0x20000100, true, false) {
		t.Error("lowest entry (RW) should adjudicate")
	}
	// Past the 1 KB window, only entry 5 matches: read-only.
	if p.Allows(0x20000400, true, false) {
		t.Error("write past entry 0 should hit entry 5 (RO)")
	}
	if !p.Allows(0x20000400, false, false) {
		t.Error("read through entry 5 should pass")
	}
	if got := p.EntryFor(0x20000100); got != 0 {
		t.Errorf("EntryFor = %d, want 0", got)
	}
}

func TestPMPTOR(t *testing.T) {
	p := enabledPMP()
	// TOR pair: [0x20001000, 0x20003000) RW.
	p.MustSetEntry(1, PMPEntry{Mode: PMPOff, Addr: 0x20001000})
	p.MustSetEntry(2, PMPEntry{Mode: PMPTOR, Perm: PMPR | PMPW, Addr: 0x20003000})

	if !p.Allows(0x20001000, true, false) || !p.Allows(0x20002FFF, true, false) {
		t.Error("inside TOR range should be writable")
	}
	if p.Allows(0x20000FFF, true, false) || p.Allows(0x20003000, true, false) {
		t.Error("outside TOR range should be denied (no other entry)")
	}
	// Entry 0's TOR base is address 0.
	p2 := enabledPMP()
	p2.MustSetEntry(0, PMPEntry{Mode: PMPTOR, Perm: PMPR, Addr: 0x1000})
	if !p2.Allows(0x500, false, false) {
		t.Error("entry 0 TOR should base at 0")
	}
}

func TestPMPDefaults(t *testing.T) {
	p := enabledPMP()
	if p.Allows(0x20000000, false, false) {
		t.Error("U-mode access with no match must be denied")
	}
	if !p.Allows(0x20000000, true, true) {
		t.Error("M-mode access must bypass unlocked entries")
	}
	off := &PMP{}
	if !off.Allows(0x20000000, true, false) {
		t.Error("disabled PMP must allow")
	}
	if err := p.SetEntry(16, PMPEntry{}); err == nil {
		t.Error("entry 16 accepted")
	}
}

func TestPMPMachinePrivBypass(t *testing.T) {
	// Privileged accesses bypass PMP even where an entry says RO —
	// unlike the MPU's APRO. This is the spec difference the monitor
	// relies on.
	p := enabledPMP()
	p.MustSetEntry(0, PMPEntry{Mode: PMPNAPOT, Perm: PMPR, Addr: 0, SizeLog2: 32})
	if !p.Allows(0x20000000, true, true) {
		t.Error("privileged write blocked by unlocked RO entry")
	}
	if p.Allows(0x20000000, true, false) {
		t.Error("unprivileged write allowed by RO entry")
	}
}

func TestNAPOTFor(t *testing.T) {
	cases := []struct {
		n    int
		want uint8
	}{{1, 3}, {8, 3}, {9, 4}, {512, 9}, {513, 10}}
	for _, c := range cases {
		if got := NAPOTFor(c.n); got != c.want {
			t.Errorf("NAPOTFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// Property: for any NAPOT entry, containment agrees with arithmetic.
func TestPMPNAPOTContainmentProperty(t *testing.T) {
	f := func(off uint32, szSel uint8) bool {
		sz := uint8(5 + szSel%10)
		base := uint32(0x20000000) &^ (1<<sz - 1)
		p := enabledPMP()
		p.MustSetEntry(0, PMPEntry{Mode: PMPNAPOT, Perm: PMPR | PMPW, Addr: base, SizeLog2: sz})
		addr := base + off%(1<<sz)
		return p.Allows(addr, true, false) && !p.Allows(base+(1<<sz), true, false)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: PMP as a Bus protection unit — unprivileged writes outside
// all entries always fault.
func TestPMPOnBus(t *testing.T) {
	clk := &Clock{}
	bus := NewBus(1<<20, 64<<10, clk)
	pmp := enabledPMP()
	pmp.MustSetEntry(0, PMPEntry{Mode: PMPNAPOT, Perm: PMPR | PMPW, Addr: SRAMBase, SizeLog2: 10})
	bus.Prot = pmp

	if f := bus.Store(SRAMBase+4, 4, 1, false); f != nil {
		t.Errorf("in-entry store faulted: %v", f)
	}
	f := bus.Store(SRAMBase+0x400, 4, 1, false)
	if f == nil || f.Kind != FaultMemManage {
		t.Errorf("out-of-entry store fault = %v", f)
	}
}
