package mach

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
)

// Mid-run state frames. Snapshot() demands a quiescent machine because
// activation records live on the host stack, so a mid-run checkpoint
// can never be *resumed*. A StateFrame makes the weaker — and mid-run
// safe — capture the time-travel debugger's keyframe checkpointer
// needs: an immutable image of the architected state (memory pages,
// devices, protection unit, CPU scalars) taken at any point, including
// deep inside an activation. It cannot restart execution; it anchors
// deterministic re-execution instead. Seeking to a cycle replays the
// run from its boot checkpoint and verifies, when it reaches the
// keyframe's stream position, that StateDigest matches the frame's
// Digest — proving the replayed machine passed through exactly the
// captured state.
//
// Capture hashes nothing: it freezes the copy-on-write page sets (page
// count pointer copies), copies the components' state structs and each
// Stateful device's SaveState bytes. Until its digest is read, holding
// a frame pins every page the live run has dirtied since capture plus
// those device copies; the first Digest call hashes the image and drops
// it, after which the frame holds only its 16-hex digest.

// StateFrame is one mid-run capture: the cycle, SP and privilege it was
// taken at, and either the unhashed state image (until Digest or
// Release) or the digest of it (after Digest).
type StateFrame struct {
	Cycle      uint64
	SP         uint32
	Privileged bool

	img    *stateImage // nil once digested or released
	digest string
}

// stateImage is one capture of the machine's state: every component's
// state struct by value, the Flash and SRAM page sets, and one record
// per attached device. A snapshot restores from it and a digest hashes
// its architected part.
type stateImage struct {
	cpu    cpuState
	ff     ffCounts
	clock  clockState
	bus    busState
	mpu    mpuState
	pmp    pmpState
	hasPMP bool // the bus protection unit is a PMP

	flash, sram [][]byte
	devs        []devState
}

// CaptureState takes a mid-run state frame. Unlike Snapshot it has no
// quiescence requirement; it is transparent to execution (the page
// freeze affects copy-on-write ownership, never contents or cycles).
// Its Digest equals StateDigest read at the same point.
func (m *Machine) CaptureState() *StateFrame {
	img := m.image(m.Bus.flash.snapshotPages(), m.Bus.sram.snapshotPages())
	return &StateFrame{Cycle: m.Clock.Now(), SP: m.SP, Privileged: m.Privileged, img: &img}
}

// Digest returns the frame's content hash (see StateDigest). The first
// call hashes the captured image and drops it; later calls return the
// kept result. Calling it on a frame released before any digest was
// read is a bug and panics.
func (f *StateFrame) Digest() string {
	if f.img != nil {
		f.digest = f.img.digest()
		f.img = nil
	}
	if f.digest == "" {
		panic("mach: Digest of a state frame released before its digest was read")
	}
	return f.digest
}

// Release drops the frame's image unhashed — the checkpointer's
// eviction hook. Evicting promptly matters: an undigested frame pins
// every page the live run has dirtied since capture.
func (f *StateFrame) Release() { f.img = nil }

// StateDigest hashes the machine's live state image without capturing
// anything. Two deterministic runs of the same program digest
// identically at the same event-stream position — the debugger's seek
// verification is exactly that comparison — and a machine just
// restored to a snapshot digests to the snapshot's ID.
func (m *Machine) StateDigest() string {
	img := m.image(m.Bus.flash.pages, m.Bus.sram.pages)
	return img.digest()
}

// image captures the machine's state over the given page sets: frozen
// ones for a snapshot or frame, the live ones for an immediate digest.
func (m *Machine) image(flash, sram [][]byte) stateImage {
	b := m.Bus
	img := stateImage{
		cpu: m.cpuState, ff: m.ff.ffCounts, clock: m.Clock.clockState,
		bus: b.busState, mpu: b.MPU.mpuState,
		flash: flash, sram: sram,
		devs: make([]devState, len(b.devices)),
	}
	if p, ok := b.Prot.(*PMP); ok {
		img.pmp, img.hasPMP = p.pmpState, true
	}
	for i, d := range b.devices {
		img.devs[i] = devState{name: d.Name(), base: d.Base()}
		if sd, ok := d.(Stateful); ok {
			img.devs[i].data = sd.SaveState()
		}
	}
	return img
}

// digest hashes the image's architected part: the CPU registers (the
// instruction count among them), the clock, the DWT enable, the MPU
// and PMP registers, both page sets and every device record. It leaves
// out the statistics and cache counters and the micro-TLB generation,
// which caches, skipped poll iterations and the execution engine move
// without changing what the machine computes, and the certificate
// rows, which only select the elided access path (a snapshot keeps
// them beside its image).
func (img *stateImage) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "cpu %v\nclock %v\nbus %v\nmpu %v\n", img.cpu.cpuRegs, img.clock, img.bus.busRegs, img.mpu.mpuRegs)
	if img.hasPMP {
		fmt.Fprintf(h, "pmp %v\n", img.pmp.pmpRegs)
	}
	hashPages(h, "flash", img.flash)
	hashPages(h, "sram", img.sram)
	for _, d := range img.devs {
		fmt.Fprintf(h, "dev %s %#08x ", d.name, d.base)
		h.Write(d.data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func hashPages(h hash.Hash, label string, pages [][]byte) {
	fmt.Fprintf(h, "%s %d\n", label, len(pages))
	for _, p := range pages {
		h.Write(p)
	}
}
