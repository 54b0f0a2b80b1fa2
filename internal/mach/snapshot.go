package mach

import (
	"fmt"
	"sync"
)

// This file implements machine checkpointing: Snapshot() captures the
// machine's state and Restore() rewinds a machine to it. Injection
// campaigns boot each (app, scheme) once, checkpoint at the
// pre-injection point, and fork every trial from the snapshot; the
// correctness bar is that a forked trial is byte-identical to a
// power-on boot, verdicts and cycle counts included.
//
// Each stateful component declares its state once, as the unexported
// struct it embeds: cpuState on the Machine, ffCounts in its
// fast-forward state, clockState, busState, mpuState and pmpState. A
// capture (stateImage, stateframe.go) copies those structs by value,
// beside the Flash and SRAM page sets — shared copy-on-write with the
// live run (pagedmem.go) — and one record per device, which holds the
// device's page set too when it is Paged; a snapshot adds the installed
// proof-certificate rows. Every other field of those
// components is wiring, run configuration or a host-side cache derived
// from the state, and state_test.go lists each one with its reason.
// Restore detaches the per-run attachments (trace buffers, the armed
// injection, watch hooks), which callers re-attach per trial, and
// drops the derived caches (invalidateDerived).

// Stateful is implemented by device models whose register-file state
// mutates during a run. Snapshot captures SaveState() for every
// Stateful device; devices that do not implement it are assumed
// stateless (pure functions of the clock and their configuration) and
// are recorded by name and base only. Bulk storage belongs in a page
// store (Paged), not in the SaveState bytes, which every capture
// copies and every digest hashes whole.
type Stateful interface {
	Device
	// SaveState serializes all mutable state outside the device's page
	// store. The returned buffer is private to the caller.
	SaveState() []byte
	// LoadState restores a SaveState buffer. The buffer must be treated
	// as read-only: a snapshot restores any number of times.
	LoadState(data []byte) error
}

// Paged is implemented by device models that keep bulk storage in a
// page store — the SD card's blocks. Snapshot, CaptureState and Restore
// freeze and restore the store with Flash and SRAM, so a capture shares
// its pages copy-on-write and a digest hashes only pages written since
// they were last frozen.
type Paged interface {
	Device
	Pages() *PageStore
}

// devState is one device's captured state. data is nil for devices
// that are not Stateful, pages for devices that are not Paged.
type devState struct {
	name  string
	base  uint32
	data  []byte
	pages []*page
}

// Snapshot is an immutable machine checkpoint. It shares memory pages
// copy-on-write with the machine it was taken from, so taking one is
// O(page count) pointer copies and holding one costs only the pages
// the live run subsequently dirties.
type Snapshot struct {
	idOnce sync.Once
	id     string

	img stateImage

	// certs[i] is metaByIdx[i]'s certificate row at capture time. Inner
	// slices are never mutated after InstallProofs, so they are shared.
	certs [][]byte
}

// ID is the digest of the captured state (stateImage.digest): the same
// value StateDigest reads on a machine just restored to the snapshot.
// Two snapshots of identical machine states hash identically, which is
// what makes `snapshot id + spec` a complete replay coordinate. The
// hash is computed on the first call, from the snapshot's immutable
// capture, so it is the same whenever it is read; concurrent callers
// (campaign and fuzz workers share checkpoints) wait for the one
// computation.
func (s *Snapshot) ID() string {
	s.idOnce.Do(func() { s.id = s.img.digest() })
	return s.id
}

// Snapshot checkpoints the machine. The machine must be quiescent — at
// call depth zero and outside any IRQ — because activation records
// live in host memory, not simulated SRAM; the campaign checkpoint
// point (booted, armed-nothing, about to run) satisfies this.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if m.depth != 0 {
		return nil, fmt.Errorf("mach: snapshot at call depth %d: machine must be quiescent", m.depth)
	}
	if m.inIRQ {
		return nil, fmt.Errorf("mach: snapshot inside IRQ handler: machine must be quiescent")
	}
	s := &Snapshot{
		img:   m.image(true),
		certs: make([][]byte, len(m.metaByIdx)),
	}
	for i := range m.metaByIdx {
		s.certs[i] = m.metaByIdx[i].certs
	}
	return s, nil
}

// Restore rewinds the machine to the snapshot. Only memory pages that
// diverged since the checkpoint are swapped, so a short trial restores
// in microseconds. Every component's state struct is assigned back
// whole, the per-run attachments are detached — the caller re-attaches
// and re-arms per trial — and the caches derived from the replaced
// state are dropped.
func (m *Machine) Restore(s *Snapshot) error {
	b, img := m.Bus, &s.img
	if len(img.flash) != len(b.flash.pages) || len(img.sram) != len(b.sram.pages) {
		return fmt.Errorf("mach: restore: snapshot is for a different memory geometry")
	}
	pmp, isPMP := b.Prot.(*PMP)
	if img.hasPMP && !isPMP {
		return fmt.Errorf("mach: restore: snapshot carries PMP state but the bus protection unit is not a PMP")
	}
	if len(img.devs) != len(b.devices) {
		return fmt.Errorf("mach: restore: snapshot has %d devices, bus has %d", len(img.devs), len(b.devices))
	}
	for i, d := range b.devices {
		ds := img.devs[i]
		if d.Name() != ds.name || d.Base() != ds.base {
			return fmt.Errorf("mach: restore: device %d is %s@%#08x, snapshot expects %s@%#08x",
				i, d.Name(), d.Base(), ds.name, ds.base)
		}
		if ds.data != nil {
			sd, ok := d.(Stateful)
			if !ok {
				return fmt.Errorf("mach: restore: device %s@%#08x lost its Stateful implementation", ds.name, ds.base)
			}
			if err := sd.LoadState(ds.data); err != nil {
				return fmt.Errorf("mach: restore device %s: %w", ds.name, err)
			}
		}
		if ds.pages != nil {
			pd, ok := d.(Paged)
			if !ok {
				return fmt.Errorf("mach: restore: device %s@%#08x lost its Paged implementation", ds.name, ds.base)
			}
			pm := pd.Pages()
			if len(pm.pages) != len(ds.pages) {
				return fmt.Errorf("mach: restore device %s: snapshot is for a different storage geometry", ds.name)
			}
			pm.restorePages(ds.pages)
		}
	}

	b.flash.restorePages(img.flash)
	b.sram.restorePages(img.sram)
	m.cpuState, m.ff.ffCounts, m.Clock.clockState = img.cpu, img.ff, img.clock
	b.busState, b.MPU.mpuState = img.bus, img.mpu
	if img.hasPMP {
		pmp.pmpState = img.pmp
	}
	m.InstallProofs(s.certs)

	m.inj, m.Trace, m.watch = nil, nil, nil
	b.rawWatch, b.MPU.Trace = nil, nil
	m.invalidateDerived()
	return nil
}

// invalidateDerived drops the host-side caches computed from the state
// Restore just replaced. The micro-TLB's entries are erased outright:
// the restored generation may be older than their tags, which would
// otherwise match again and adjudicate with a stale region plan. The
// bus's last-device cache and the fast-forward's device-read log go
// too. The pooled frames keep their storage but not their nominal
// sizes, from which mach.frame_reuse is counted, so every run from a
// checkpoint counts the same reuses whatever ran before it.
func (m *Machine) invalidateDerived() {
	b := m.Bus
	b.MPU.flush()
	b.lastDev, b.lastBase, b.lastEnd = nil, 0, 0
	m.ff.log = horizonLog{}
	b.horizons = nil
	for _, fr := range m.frames {
		fr.ncap = 0
	}
}
