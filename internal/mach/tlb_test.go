package mach

import (
	"math/rand"
	"testing"
)

// TestTLBSetRegionInvalidates models the OPEC operation-switch pattern:
// an address is accessed (priming the micro-TLB), the adjudicating
// region is reprogrammed via SetRegion, and the next access must observe
// the new permission, not the cached one.
func TestTLBSetRegionInvalidates(t *testing.T) {
	var m MPU
	m.SetEnabled(true)
	addr := SRAMBase + 0x40
	m.MustSetRegion(0, Region{Enabled: true, Base: SRAMBase, SizeLog2: 10, Perm: APRW})
	if !m.Allows(addr, true, false) {
		t.Fatal("unprivileged write should pass under APRW")
	}
	// Operation switch: same slot, tighter permission.
	m.MustSetRegion(0, Region{Enabled: true, Base: SRAMBase, SizeLog2: 10, Perm: APPrivRW})
	if m.Allows(addr, true, false) {
		t.Error("stale TLB entry: unprivileged write passed after reprogram to APPrivRW")
	}
	if !m.Allows(addr, true, true) {
		t.Error("privileged write should pass under APPrivRW")
	}
	// Switch back: the permissive view must return, again without stale
	// residue from the restrictive generation.
	m.MustSetRegion(0, Region{Enabled: true, Base: SRAMBase, SizeLog2: 10, Perm: APRW})
	if !m.Allows(addr, true, false) {
		t.Error("reprogram back to APRW not observed")
	}
}

// TestTLBBackgroundNegativeNotStale primes the TLB with a background-map
// miss for an unprivileged access, then maps the address; the negative
// result must not be stale-cached.
func TestTLBBackgroundNegativeNotStale(t *testing.T) {
	var m MPU
	m.SetEnabled(true)
	addr := SRAMBase + 0x200
	if m.Allows(addr, false, false) {
		t.Fatal("unmapped unprivileged access should fault (PRIVDEFENA)")
	}
	if !m.Allows(addr, false, true) {
		t.Fatal("unmapped privileged access should use the default map")
	}
	m.MustSetRegion(1, Region{Enabled: true, Base: SRAMBase, SizeLog2: 12, Perm: APRW})
	if !m.Allows(addr, false, false) {
		t.Error("stale background-map entry: mapped address still faults unprivileged")
	}
}

// TestTLBClearAndRestoreInvalidate covers the monitor's operation-exit
// path (RestoreRegions) and plan-slot blanking (ClearRegion).
func TestTLBClearAndRestoreInvalidate(t *testing.T) {
	var m MPU
	m.SetEnabled(true)
	addr := SRAMBase + 0x80
	m.MustSetRegion(3, Region{Enabled: true, Base: SRAMBase, SizeLog2: 10, Perm: APRW})
	saved := m.Regions
	if !m.Allows(addr, false, false) {
		t.Fatal("prime failed")
	}
	m.ClearRegion(3)
	if m.Allows(addr, false, false) {
		t.Error("ClearRegion did not invalidate the cached positive")
	}
	m.RestoreRegions(saved)
	if !m.Allows(addr, false, false) {
		t.Error("RestoreRegions did not invalidate the cached negative")
	}
}

// TestTLBEnabledToggle verifies both the SetEnabled path and the lazy
// detection of direct Enabled field writes (legacy callers and tests
// mutate the field without a method).
func TestTLBEnabledToggle(t *testing.T) {
	var m MPU
	addr := SRAMBase + 0x100
	m.SetEnabled(true)
	if m.Allows(addr, false, false) {
		t.Fatal("enabled empty MPU should fault unprivileged accesses")
	}
	m.Enabled = false // direct field write, no method
	if !m.Allows(addr, false, false) {
		t.Error("disabled MPU must allow everything")
	}
	m.Enabled = true // direct re-enable: cached pre-disable state must not leak
	m.MustSetRegion(0, Region{Enabled: true, Base: SRAMBase, SizeLog2: 10, Perm: APRO})
	if m.Allows(addr, true, false) {
		t.Error("write allowed under APRO after direct re-enable")
	}
	if !m.Allows(addr, false, false) {
		t.Error("read denied under APRO")
	}
}

// TestTLBReconfigsMetricUnchanged pins the ablation metric: only
// SetRegion counts as a region register write; ClearRegion and
// RestoreRegions (which real hardware performs as plain register writes
// already accounted by the caller) must not inflate it.
func TestTLBReconfigsMetricUnchanged(t *testing.T) {
	var m MPU
	m.MustSetRegion(0, Region{Enabled: true, Base: SRAMBase, SizeLog2: 10, Perm: APRW})
	m.ClearRegion(0)
	m.RestoreRegions([NumRegions]Region{})
	m.SetEnabled(true)
	if got := m.Reconfigs(); got != 1 {
		t.Errorf("Reconfigs = %d, want 1 (only SetRegion counts)", got)
	}
}

// TestTLBCounters pins the micro-TLB counter semantics: repeated
// accesses to one block are one miss then hits, every invalidation is
// counted, and the counters surface under their registry names.
func TestTLBCounters(t *testing.T) {
	var m MPU
	m.SetEnabled(true) // one invalidation
	m.MustSetRegion(0, Region{Enabled: true, Base: SRAMBase, SizeLog2: 10, Perm: APRW})
	addr := SRAMBase + 0x20
	for i := 0; i < 5; i++ {
		m.Allows(addr, false, false)
	}
	if m.tlbMisses != 1 || m.tlbHits != 4 {
		t.Errorf("hits/misses = %d/%d, want 4/1", m.tlbHits, m.tlbMisses)
	}
	if m.tlbInvals != 2 {
		t.Errorf("invalidations = %d, want 2 (SetEnabled + SetRegion)", m.tlbInvals)
	}
	want := map[string]uint64{
		"mach.mpu.reconfigs":     1,
		"mach.tlb.hits":          4,
		"mach.tlb.misses":        1,
		"mach.tlb.invalidations": 2,
	}
	for _, c := range m.Counters() {
		if v, ok := want[c.Name]; !ok || v != c.Value {
			t.Errorf("counter %s = %d, want %d", c.Name, c.Value, want[c.Name])
		}
		delete(want, c.Name)
	}
	if len(want) != 0 {
		t.Errorf("counters missing: %v", want)
	}
}

// TestTLBCountersZeroWhenDisabled is the cache-ablation regression: with
// the micro-TLB off (NoCache, as a CheckReference bus sets it)
// every access takes the architectural scan and the hit counter must
// stay exactly zero — a non-zero value means the NoCache path leaked
// through lookup().
func TestTLBCountersZeroWhenDisabled(t *testing.T) {
	var m MPU
	m.NoCache = true
	m.SetEnabled(true)
	m.MustSetRegion(0, Region{Enabled: true, Base: SRAMBase, SizeLog2: 10, Perm: APRW})
	addr := SRAMBase + 0x20
	for i := 0; i < 100; i++ {
		m.Allows(addr, false, false)
		m.Allows(addr, true, true)
	}
	if m.tlbHits != 0 || m.tlbMisses != 0 {
		t.Errorf("disabled cache recorded hits/misses = %d/%d, want 0/0", m.tlbHits, m.tlbMisses)
	}
	for _, c := range m.Counters() {
		if c.Name == "mach.tlb.hits" && c.Value != 0 {
			t.Errorf("registry reports %d TLB hits with the cache disabled", c.Value)
		}
	}
}

// TestTLBEquivalenceRandomized drives the cached and uncached matchers
// over randomized region files (overlaps, sub-region disables, random
// reprogramming) and demands bit-identical adjudication. This is the
// micro-level version of the cache-transparency invariant.
func TestTLBEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
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
		}
	}
	var cached, uncached MPU
	uncached.NoCache = true
	cached.SetEnabled(true)
	uncached.SetEnabled(true)
	for round := 0; round < 200; round++ {
		slot := rng.Intn(NumRegions)
		r := randRegion()
		cached.MustSetRegion(slot, r)
		uncached.MustSetRegion(slot, r)
		for probe := 0; probe < 64; probe++ {
			addr := SRAMBase + uint32(rng.Intn(1<<15))
			write := rng.Intn(2) == 0
			priv := rng.Intn(2) == 0
			got := cached.Allows(addr, write, priv)
			want := uncached.Allows(addr, write, priv)
			if got != want {
				t.Fatalf("round %d: Allows(%#x, write=%v, priv=%v) cached=%v uncached=%v (region %d = %+v)",
					round, addr, write, priv, got, want, slot, r)
			}
			if cf, uf := cached.RegionFor(addr), uncached.RegionFor(addr); cf != uf {
				t.Fatalf("round %d: RegionFor(%#x) cached=%d uncached=%d", round, addr, cf, uf)
			}
		}
	}
}
