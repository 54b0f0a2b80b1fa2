package mach

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"opec/internal/trace"
)

func TestAPAllows(t *testing.T) {
	cases := []struct {
		ap                    AP
		write, priv, expected bool
	}{
		{APNone, false, true, false},
		{APNone, true, true, false},
		{APPrivRW, false, true, true},
		{APPrivRW, true, true, true},
		{APPrivRW, false, false, false},
		{APPrivRWUnprivRO, false, false, true},
		{APPrivRWUnprivRO, true, false, false},
		{APPrivRWUnprivRO, true, true, true},
		{APRW, true, false, true},
		{APPrivRO, false, true, true},
		{APPrivRO, true, true, false},
		{APPrivRO, false, false, false},
		{APRO, false, false, true},
		{APRO, true, true, false},
	}
	for _, c := range cases {
		if got := c.ap.allows(c.write, c.priv); got != c.expected {
			t.Errorf("%v.allows(write=%v, priv=%v) = %v, want %v", c.ap, c.write, c.priv, got, c.expected)
		}
	}
}

func TestRegionValidate(t *testing.T) {
	good := Region{Enabled: true, Base: 0x20000000, SizeLog2: 10, Perm: APRW}
	if err := good.Validate(); err != nil {
		t.Errorf("valid region rejected: %v", err)
	}
	tooSmall := Region{Enabled: true, Base: 0, SizeLog2: 4}
	if err := tooSmall.Validate(); err == nil {
		t.Error("16-byte region accepted; minimum is 32")
	}
	misaligned := Region{Enabled: true, Base: 0x20000010, SizeLog2: 10}
	if err := misaligned.Validate(); err == nil {
		t.Error("misaligned base accepted")
	}
	disabled := Region{Enabled: false, Base: 3, SizeLog2: 1}
	if err := disabled.Validate(); err != nil {
		t.Errorf("disabled region should not be validated: %v", err)
	}
}

// enabledMPU returns a detached MPU whose enable bit was set by a
// direct register write.
func enabledMPU() *MPU {
	m := &MPU{}
	m.Enabled = true
	return m
}

func TestMPUDisabledAllowsAll(t *testing.T) {
	m := &MPU{}
	if !m.Allows(0x20000000, true, false) {
		t.Error("disabled MPU must allow everything")
	}
}

func TestMPUBackgroundMap(t *testing.T) {
	m := enabledMPU()
	if !m.Allows(0x20000000, true, true) {
		t.Error("privileged access should use background map when no region matches")
	}
	if m.Allows(0x20000000, false, false) {
		t.Error("unprivileged access with no matching region must fault")
	}
}

func TestMPUHighestRegionWins(t *testing.T) {
	m := enabledMPU()
	// Region 0: whole SRAM read-only.
	m.MustSetRegion(0, Region{Enabled: true, Base: 0x20000000, SizeLog2: 18, Perm: APRO})
	// Region 3: a 1 KB window read-write.
	m.MustSetRegion(3, Region{Enabled: true, Base: 0x20000400, SizeLog2: 10, Perm: APRW})

	if !m.Allows(0x20000400, true, false) {
		t.Error("higher-numbered RW region should win inside the window")
	}
	if m.Allows(0x20000000, true, false) {
		t.Error("outside the window only region 0 (RO) applies")
	}
	if !m.Allows(0x20000000, false, false) {
		t.Error("read through region 0 should be allowed")
	}
	if got := m.RegionFor(0x20000400); got != 3 {
		t.Errorf("RegionFor = %d, want 3", got)
	}
}

func TestMPUSubregionFallthrough(t *testing.T) {
	m := enabledMPU()
	// Region 1: 2 KB unpriv-RO over the area.
	m.MustSetRegion(1, Region{Enabled: true, Base: 0x20000000, SizeLog2: 11, Perm: APRO})
	// Region 5: same 2 KB RW, but sub-region 7 (last 256 B) disabled.
	m.MustSetRegion(5, Region{Enabled: true, Base: 0x20000000, SizeLog2: 11, Perm: APRW, SRD: 1 << 7})

	if !m.Allows(0x20000000, true, false) {
		t.Error("sub-region 0 of region 5 should grant RW")
	}
	last := uint32(0x20000000 + 7*256)
	if m.Allows(last, true, false) {
		t.Error("disabled sub-region must fall through to region 1 (RO)")
	}
	if !m.Allows(last, false, false) {
		t.Error("fall-through read should hit region 1 and be allowed")
	}
	if got := m.RegionFor(last); got != 1 {
		t.Errorf("RegionFor(disabled subregion) = %d, want 1", got)
	}
}

func TestMPUSmallRegionIgnoresSRD(t *testing.T) {
	m := enabledMPU()
	m.MustSetRegion(0, Region{Enabled: true, Base: 0x20000000, SizeLog2: 6, Perm: APRW, SRD: 0xFF})
	if !m.Allows(0x20000020, true, false) {
		t.Error("regions < 256 B ignore SRD per PMSAv7")
	}
}

func TestSetRegionErrors(t *testing.T) {
	m := &MPU{}
	if err := m.SetRegion(8, Region{}); err == nil {
		t.Error("index 8 accepted")
	}
	if err := m.SetRegion(-1, Region{}); err == nil {
		t.Error("index -1 accepted")
	}
	if err := m.SetRegion(0, Region{Enabled: true, Base: 1, SizeLog2: 5}); err == nil {
		t.Error("misaligned region accepted")
	}
	n := m.Reconfigs()
	m.MustSetRegion(0, Region{Enabled: true, Base: 0x20000000, SizeLog2: 5, Perm: APRW})
	if m.Reconfigs() != n+1 {
		t.Error("Reconfigs did not count the write")
	}
}

func TestRegionSizeFor(t *testing.T) {
	cases := []struct {
		n    int
		want uint8
	}{
		{1, 5}, {32, 5}, {33, 6}, {64, 6}, {100, 7}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := RegionSizeFor(c.n); got != c.want {
			t.Errorf("RegionSizeFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAlignUp(t *testing.T) {
	if got := AlignUp(0x20000001, 5); got != 0x20000020 {
		t.Errorf("AlignUp = %#x", got)
	}
	if got := AlignUp(0x20000020, 5); got != 0x20000020 {
		t.Errorf("AlignUp of aligned = %#x", got)
	}
}

// Property: RegionSizeFor always yields a legal size covering n.
func TestRegionSizeForProperty(t *testing.T) {
	f := func(n uint16) bool {
		size := RegionSizeFor(int(n) + 1)
		return size >= MinRegionSizeLog2 && 1<<size >= int(n)+1 && (size == MinRegionSizeLog2 || 1<<(size-1) < int(n)+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: an access allowed unprivileged is also allowed privileged
// for every AP we define except none (monotonicity of privilege).
func TestPrivilegeMonotonicProperty(t *testing.T) {
	f := func(apRaw uint8, write bool) bool {
		ap := AP(apRaw % 6)
		if ap.allows(write, false) && !ap.allows(write, true) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: sub-region arithmetic always lands in 0..7 for contained
// addresses.
func TestSubregionRangeProperty(t *testing.T) {
	f := func(off uint16, sizeSel uint8) bool {
		sizeLog2 := uint8(8 + sizeSel%8) // 256 B .. 32 KB
		r := Region{Enabled: true, Base: 0x20000000, SizeLog2: sizeLog2, Perm: APRW}
		addr := r.Base + uint32(off)%(1<<sizeLog2)
		sr := r.subregion(addr)
		return sr >= 0 && sr < 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Regression: subregion returns the -1 sentinel for regions smaller
// than 256 bytes (no 8-way split exists below 32-byte sub-regions).
// The match path must treat that as "SRD ignored" per the PMSAv7 rule —
// never index an SRD bit with the sentinel — so even SRD=0xFF cannot
// disable any part of a small region.
func TestSubregionSmallRegionIgnoresSRD(t *testing.T) {
	for _, sizeLog2 := range []uint8{5, 6, 7} { // 32, 64, 128 B — all below SRD granularity
		r := Region{Enabled: true, Base: 0x20000000, SizeLog2: sizeLog2, SRD: 0xFF, Perm: APRW}
		size := uint32(1) << sizeLog2
		for off := uint32(0); off < size; off += 4 {
			if got := r.subregion(r.Base + off); got != -1 {
				t.Fatalf("size 2^%d: subregion(+%#x) = %d, want -1 sentinel", sizeLog2, off, got)
			}
			if !r.subregionEnabled(r.Base + off) {
				t.Fatalf("size 2^%d: SRD=0xFF disabled +%#x of a sub-256B region", sizeLog2, off)
			}
		}

		var m MPU
		m.Enabled = true
		m.MustSetRegion(3, r)
		for off := uint32(0); off < size; off += 4 {
			if !m.Allows(r.Base+off, true, false) {
				t.Errorf("size 2^%d: unprivileged write to +%#x denied — SRD applied to a small region", sizeLog2, off)
			}
			if got := m.RegionFor(r.Base + off); got != 3 {
				t.Errorf("size 2^%d: RegionFor(+%#x) = %d, want 3 (no SRD fall-through)", sizeLog2, off, got)
			}
		}
	}

	// Contrast: at exactly 256 bytes SRD takes effect — a disabled
	// sub-region falls through to the background map and unprivileged
	// access faults.
	r := Region{Enabled: true, Base: 0x20000100, SizeLog2: 8, SRD: 0x01, Perm: APRW}
	var m MPU
	m.Enabled = true
	m.MustSetRegion(3, r)
	if m.Allows(r.Base, false, false) {
		t.Error("256B region: disabled sub-region 0 still matched unprivileged")
	}
	if m.Allows(r.Base+32, false, false) == false {
		t.Error("256B region: enabled sub-region 1 denied")
	}
}

// TestProgramMatchesPerSlotWrites drives MPU.Program and the per-slot
// writes it stands for (SetRegion for an enabled slot, ClearRegion for
// a disabled one) over random plans and slot masks, untraced and
// traced, on twin MPUs. After every plan both must hold the same
// regions, counters, generation and event stream, and adjudicate the
// same probes the same way.
func TestProgramMatchesPerSlotWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randRegion := func() Region {
		sz := uint8(MinRegionSizeLog2 + rng.Intn(12)) // 32B .. 64KB
		base := SRAMBase + uint32(rng.Intn(1<<14))
		base &^= (uint32(1) << sz) - 1
		return Region{
			Enabled:  rng.Intn(4) != 0,
			Base:     base,
			SizeLog2: sz,
			SRD:      uint8(rng.Intn(256)),
			Perm:     AP(rng.Intn(6)),
			XN:       rng.Intn(2) == 0,
		}
	}
	for _, traced := range []bool{false, true} {
		clk := &Clock{}
		prog, twin := &MPU{Clock: clk}, &MPU{Clock: clk}
		if traced {
			prog.Trace, twin.Trace = trace.NewBuffer(1<<14), trace.NewBuffer(1<<14)
		}
		prog.SetEnabled(true)
		twin.SetEnabled(true)
		for round := 0; round < 300; round++ {
			var plan [NumRegions]Region
			for i := range plan {
				plan[i] = randRegion()
			}
			slots := uint8(rng.Intn(256))
			prog.Program(&plan, slots)
			for i := range plan {
				switch {
				case slots&(1<<i) == 0:
				case plan[i].Enabled:
					twin.MustSetRegion(i, plan[i])
				default:
					twin.ClearRegion(i)
				}
			}
			clk.Advance(uint64(1 + rng.Intn(100)))
			if prog.Regions != twin.Regions {
				t.Fatalf("traced=%v round %d slots %#x: regions %+v, per-slot writes %+v", traced, round, slots, prog.Regions, twin.Regions)
			}
			if prog.gen != twin.gen || !slices.Equal(prog.Counters(), twin.Counters()) {
				t.Fatalf("traced=%v round %d slots %#x: gen %d counters %v, per-slot writes gen %d counters %v",
					traced, round, slots, prog.gen, prog.Counters(), twin.gen, twin.Counters())
			}
			if traced && (prog.Trace.Emitted() != twin.Trace.Emitted() || !slices.Equal(prog.Trace.Events(), twin.Trace.Events())) {
				t.Fatalf("round %d slots %#x: event stream differs from the per-slot writes'", round, slots)
			}
			for probe := 0; probe < 32; probe++ {
				addr := SRAMBase + uint32(rng.Intn(1<<15))
				write, priv := rng.Intn(2) == 0, rng.Intn(2) == 0
				if got, want := prog.Allows(addr, write, priv), twin.Allows(addr, write, priv); got != want {
					t.Fatalf("traced=%v round %d: Allows(%#x, write=%v, priv=%v) = %v, per-slot writes %v", traced, round, addr, write, priv, got, want)
				}
			}
		}
		if traced && prog.Trace.Emitted() == 0 {
			t.Fatal("traced MPUs emitted nothing")
		}
	}
}
