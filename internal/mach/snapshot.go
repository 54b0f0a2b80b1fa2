package mach

import (
	"fmt"
	"sync"

	"opec/internal/ir"
)

// This file implements machine checkpointing: an explicit Snapshot()
// over everything architected — CPU registers and stack bounds, the
// cycle clock, Flash/SRAM contents (shared copy-on-write with the live
// run, pagedmem.go), MPU regions and enable (or PMP entries), the
// installed proof-certificate table, and device state — plus the
// Restore() that rewinds a machine to it and the Fork() that clones
// one. Injection campaigns boot each (app, scheme) once, checkpoint at
// the pre-injection point, and fork every trial from the snapshot; the
// correctness bar is that a forked trial is byte-identical to a
// power-on boot, verdicts and cycle counts included.
//
// What is deliberately NOT captured:
//   - MaxCycles: a run-budget knob, not machine state; callers reset it
//     per trial (run.Options.MaxCycles).
//   - Trace attachments: snapshots are taken untraced; Restore detaches
//     any buffer so the caller re-attaches per trial.
//   - The armed Injection: Restore disarms; each trial arms its own.
//   - Watch hooks (watch.go): like traces, observers are per-run
//     attachments; Restore clears both the store and raw watches.
//   - Handlers/GlobalAddr: runtime wiring owned by the scheme runtime,
//     unchanged by execution and so shared by reference.
//   - The frame pool: host storage for activation records. Restore
//     keeps it and zeroes the nominal sizes mach.frame_reuse counts
//     from.

// Stateful is implemented by device models whose register-file state
// mutates during a run. Snapshot captures SaveState() for every
// Stateful device; devices that do not implement it are assumed
// stateless (pure functions of the clock and their configuration) and
// are skipped with no record.
type Stateful interface {
	Device
	// SaveState serializes all mutable state. The returned buffer is
	// private to the caller.
	SaveState() []byte
	// LoadState restores a SaveState buffer. The buffer must be treated
	// as read-only: a snapshot restores any number of times.
	LoadState(data []byte) error
}

// devState is one device's captured state. data is nil for devices
// that are not Stateful.
type devState struct {
	name string
	base uint32
	data []byte
}

// Snapshot is an immutable machine checkpoint. It shares memory pages
// copy-on-write with the machine it was taken from, so taking one is
// O(page count) pointer copies and holding one costs only the pages
// the live run subsequently dirties.
type Snapshot struct {
	idOnce sync.Once
	id     string

	cycles     uint64
	dwtEnabled bool

	privileged             bool
	sp, stackTop, stackLim uint32
	halted                 bool

	instrCount, switchCount, frameReuse uint64
	proofElided, proofChecked           uint64
	devCacheHits                        uint64
	tlbHits, tlbMisses, tlbInvals       uint64
	tlbGen                              uint64
	ffEpisodes, ffSkipped               uint64

	flashPages, sramPages [][]byte

	mpuEnabled   bool
	mpuRegions   [NumRegions]Region
	mpuReconfigs uint64

	hasPMP     bool
	pmpEnabled bool
	pmpEntries [NumPMPEntries]PMPEntry

	// certs[i] is metaByIdx[i]'s certificate row at capture time. Inner
	// slices are never mutated after InstallProofs, so they are shared.
	certs [][]byte

	devs []devState
}

// ID is a content hash of the captured architected state (memory,
// CPU, protection unit, certificates, devices — not the transparent
// cache counters). Two snapshots of identical machine states hash
// identically, which is what makes `snapshot id + spec` a complete
// replay coordinate. The hash is computed on the first call, from the
// snapshot's immutable capture, so it is the same whenever it is read;
// concurrent callers (campaign and fuzz workers share checkpoints)
// wait for the one computation.
func (s *Snapshot) ID() string {
	s.idOnce.Do(func() { s.id = s.hashID() })
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
	b := m.Bus
	s := &Snapshot{
		cycles:       m.Clock.Now(),
		dwtEnabled:   b.dwtEnabled,
		privileged:   m.Privileged,
		sp:           m.SP,
		stackTop:     m.StackTop,
		stackLim:     m.StackLimit,
		halted:       m.Halted,
		instrCount:   m.InstrCount,
		switchCount:  m.SwitchCount,
		frameReuse:   m.frameReuse,
		proofElided:  m.proofElided,
		proofChecked: m.proofChecked,
		devCacheHits: b.devCacheHits,
		tlbHits:      b.MPU.tlbHits,
		tlbMisses:    b.MPU.tlbMisses,
		tlbInvals:    b.MPU.tlbInvals,
		tlbGen:       b.MPU.gen,
		ffEpisodes:   m.ff.episodes,
		ffSkipped:    m.ff.skipped,
		flashPages:   b.flash.snapshotPages(),
		sramPages:    b.sram.snapshotPages(),
		mpuEnabled:   b.MPU.Enabled,
		mpuRegions:   b.MPU.Regions,
		mpuReconfigs: b.MPU.reconfigs,
		certs:        make([][]byte, len(m.metaByIdx)),
	}
	for i := range m.metaByIdx {
		s.certs[i] = m.metaByIdx[i].certs
	}
	if p, ok := b.Prot.(*PMP); ok {
		s.hasPMP = true
		s.pmpEnabled = p.Enabled
		s.pmpEntries = p.Entries
	}
	for _, d := range b.devices {
		ds := devState{name: d.Name(), base: d.Base()}
		if sd, ok := d.(Stateful); ok {
			ds.data = sd.SaveState()
		}
		s.devs = append(s.devs, ds)
	}
	return s, nil
}

// hashID computes the snapshot's content identity with the state
// digest's function (stateImage.digest) over the snapshot's own field
// set, which differs from StateDigest's: it adds the DWT enable and the
// certificate table, records every device (Stateful or not), and
// leaves out the instruction count.
func (s *Snapshot) hashID() string {
	img := &stateImage{flash: s.flashPages, sram: s.sramPages, devs: s.devs}
	img.header = fmt.Appendf(nil, "cpu %v %v %v %v %v %v %v\n",
		s.cycles, s.privileged, s.sp, s.stackTop, s.stackLim, s.halted, s.dwtEnabled)
	img.header = fmt.Appendf(img.header, "mpu %v %v\n", s.mpuEnabled, s.mpuRegions)
	if s.hasPMP {
		img.header = fmt.Appendf(img.header, "pmp %v %v\n", s.pmpEnabled, s.pmpEntries)
	}
	for i, c := range s.certs {
		if len(c) != 0 {
			img.header = fmt.Appendf(img.header, "cert %d ", i)
			img.header = append(img.header, c...)
		}
	}
	return img.digest()
}

// Restore rewinds the machine to the snapshot. Only memory pages that
// diverged since the checkpoint are swapped, so a short trial restores
// in microseconds. The protection-unit restore writes MPU.Regions and
// Enabled directly, so it must — and does — bump the micro-TLB
// generation and reset the bus's last-device cache: a warm TLB serving
// the pre-restore region plan would otherwise adjudicate stale
// permissions (the restore-path cache bug this PR fixes). Trace
// buffers are detached and any armed injection disarmed; the caller
// re-attaches and re-arms per trial.
func (m *Machine) Restore(s *Snapshot) error {
	b := m.Bus
	if len(s.flashPages) != len(b.flash.pages) || len(s.sramPages) != len(b.sram.pages) {
		return fmt.Errorf("mach: restore: snapshot is for a different memory geometry")
	}
	if s.hasPMP {
		if _, ok := b.Prot.(*PMP); !ok {
			return fmt.Errorf("mach: restore: snapshot carries PMP state but the bus protection unit is not a PMP")
		}
	}
	if len(s.devs) != len(b.devices) {
		return fmt.Errorf("mach: restore: snapshot has %d devices, bus has %d", len(s.devs), len(b.devices))
	}
	for i, d := range b.devices {
		ds := s.devs[i]
		if d.Name() != ds.name || d.Base() != ds.base {
			return fmt.Errorf("mach: restore: device %d is %s@%#08x, snapshot expects %s@%#08x",
				i, d.Name(), d.Base(), ds.name, ds.base)
		}
		if ds.data == nil {
			continue
		}
		sd, ok := d.(Stateful)
		if !ok {
			return fmt.Errorf("mach: restore: device %s@%#08x lost its Stateful implementation", ds.name, ds.base)
		}
		if err := sd.LoadState(ds.data); err != nil {
			return fmt.Errorf("mach: restore device %s: %w", ds.name, err)
		}
	}

	b.flash.restorePages(s.flashPages)
	b.sram.restorePages(s.sramPages)
	b.dwtEnabled = s.dwtEnabled
	b.Clock.cycles = s.cycles

	m.Privileged = s.privileged
	m.SP = s.sp
	m.StackTop = s.stackTop
	m.StackLimit = s.stackLim
	m.Halted = s.halted
	m.InstrCount = s.instrCount
	m.SwitchCount = s.switchCount
	m.frameReuse = s.frameReuse
	// The reuse counter is computed from the pooled frames' nominal
	// sizes, so those rewind with it: every run from the checkpoint
	// counts the same reuses, whatever ran before it. The storage stays
	// pooled.
	for _, fr := range m.frames {
		fr.ncap = 0
	}
	m.proofElided = s.proofElided
	m.proofChecked = s.proofChecked
	m.depth = 0
	m.inIRQ = false
	m.inj = nil
	m.Trace = nil
	m.watch = nil
	b.rawWatch = nil

	// Protection unit. These are raw Regions/Enabled writes, so the
	// micro-TLB and the last-device cache are explicitly invalidated
	// (satellite bugfix: stale adjudications must not survive restore).
	b.MPU.Enabled = s.mpuEnabled
	b.MPU.Regions = s.mpuRegions
	b.MPU.lastEnabled = s.mpuEnabled
	b.MPU.reconfigs = s.mpuReconfigs
	b.MPU.Trace = nil
	// The generation counter is architecturally invisible but leaks into
	// the trace stream (tlb-inval gen=N), so a replay from the snapshot
	// must resume it exactly where the recorded run did. Rewinding it is
	// only safe together with a full entry flush: entries tagged with
	// later generations would otherwise match the rewound counter.
	b.MPU.gen = s.tlbGen
	b.MPU.flush()
	b.lastDev, b.lastBase, b.lastEnd = nil, 0, 0
	if s.hasPMP {
		p := b.Prot.(*PMP)
		p.Enabled = s.pmpEnabled
		p.Entries = s.pmpEntries
	}

	// Transparent cache counters roll back too so fork-trial counter
	// readings are absolute, not offsets from the previous trial.
	b.devCacheHits = s.devCacheHits
	b.MPU.tlbHits = s.tlbHits
	b.MPU.tlbMisses = s.tlbMisses
	b.MPU.tlbInvals = s.tlbInvals
	m.resetFF()
	m.ff.episodes = s.ffEpisodes
	m.ff.skipped = s.ffSkipped

	m.InstallProofs(s.certs)
	return nil
}

// Fork clones the bus: Flash and SRAM are shared copy-on-write (both
// sides diverge privately on write), the protection unit is cloned by
// value, and the decode caches start cold. The cycle clock and the
// attached devices remain SHARED with the parent — peripheral models
// and time are not forked. A fork is therefore a CPU/memory divergence
// tool (exploring two continuations of the same state); full trial
// isolation, device state included, is Snapshot/Restore on separately
// booted machines.
func (b *Bus) Fork() *Bus {
	nb := &Bus{
		MPU:        &MPU{},
		Clock:      b.Clock,
		flash:      b.flash.fork(),
		sram:       b.sram.fork(),
		devices:    b.devices,
		noDevCache: b.noDevCache,
		dwtEnabled: b.dwtEnabled,
	}
	*nb.MPU = *b.MPU
	nb.MPU.Trace = nil
	nb.MPU.Invalidate()
	switch p := b.Prot.(type) {
	case *PMP:
		np := &PMP{}
		*np = *p
		nb.Prot = np
	default:
		nb.Prot = nb.MPU
	}
	return nb
}

// Fork clones the machine onto a forked bus. The clone shares nothing
// mutable with the parent: memory diverges copy-on-write, the
// per-function metadata table is copied (certificate rows are
// immutable and shared), lateMeta — the registry of functions added
// after NewMachine — is deep-copied, and the frame pool starts empty.
// funcAt is shared intentionally: it is written only by NewMachine and
// immutable afterwards (metaFor registers late functions in lateMeta,
// never funcAt). Runtime wiring that closes over the parent — Handlers
// and GlobalAddr — is carried by reference; callers forking under a
// scheme runtime must re-bind those hooks to the clone. The armed
// injection and trace attachment are not carried.
func (m *Machine) Fork() *Machine {
	nm := &Machine{}
	*nm = *m
	nm.Bus = m.Bus.Fork()
	nm.Clock = nm.Bus.Clock
	nm.metaByIdx = append([]funcMeta(nil), m.metaByIdx...)
	if m.lateMeta != nil {
		nm.lateMeta = make(map[*ir.Function]*funcMeta, len(m.lateMeta))
		for fn, fm := range m.lateMeta {
			cp := *fm
			nm.lateMeta[fn] = &cp
		}
	}
	nm.frames = nil
	nm.depth = 0
	nm.inIRQ = false
	nm.inj = nil
	nm.Trace = nil
	nm.traceIDs = nil
	nm.watch = nil
	nm.resetFF()
	// A translation cache holds per-machine state; the clone gets its
	// own (initially empty) engine rather than sharing the parent's.
	if m.backend != nil {
		nm.backend = m.backend.Fork()
	}
	return nm
}
