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
// count pointer copies), formats the CPU/MPU/PMP header and copies each
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

// stateImage is the byte stream a state digest covers, kept unhashed:
// the serialized CPU/protection-unit header, the Flash and SRAM page
// sets, and one record per device.
type stateImage struct {
	header      []byte
	flash, sram [][]byte
	devs        []devState
}

// CaptureState takes a mid-run state frame. Unlike Snapshot it has no
// quiescence requirement; it is transparent to execution (the page
// freeze affects copy-on-write ownership, never contents or cycles).
// Its Digest equals StateDigest read at the same point.
func (m *Machine) CaptureState() *StateFrame {
	return &StateFrame{
		Cycle:      m.Clock.Now(),
		SP:         m.SP,
		Privileged: m.Privileged,
		img:        m.image(m.Bus.flash.snapshotPages(), m.Bus.sram.snapshotPages()),
	}
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

// StateDigest hashes the machine's live architected state — CPU
// scalars, cycle clock, protection unit, memory contents, stateful
// devices — without capturing anything. Two deterministic runs of the
// same program digest identically at the same event-stream position;
// the debugger's seek verification is exactly that comparison.
func (m *Machine) StateDigest() string {
	return m.image(m.Bus.flash.pages, m.Bus.sram.pages).digest()
}

// image gathers the state image StateDigest hashes over the given page
// sets: frozen ones for a frame, the live ones for an immediate digest.
func (m *Machine) image(flash, sram [][]byte) *stateImage {
	b := m.Bus
	img := &stateImage{flash: flash, sram: sram}
	img.header = fmt.Appendf(nil, "cpu %v %v %v %v %v %v %v\n",
		b.Clock.Now(), m.SP, m.StackTop, m.StackLimit, m.Privileged, m.Halted, m.InstrCount)
	img.header = fmt.Appendf(img.header, "mpu %v %v\n", b.MPU.Enabled, b.MPU.Regions)
	if p, ok := b.Prot.(*PMP); ok {
		img.header = fmt.Appendf(img.header, "pmp %v %v\n", p.Enabled, p.Entries)
	}
	for _, d := range b.devices {
		if sd, ok := d.(Stateful); ok {
			img.devs = append(img.devs, devState{name: d.Name(), base: d.Base(), data: sd.SaveState()})
		}
	}
	return img
}

// digest hashes the image: the header, both page sets, then each
// device's name, base and state bytes.
func (img *stateImage) digest() string {
	h := sha256.New()
	h.Write(img.header)
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
