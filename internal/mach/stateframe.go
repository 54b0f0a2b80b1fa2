package mach

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
// Capture hashes nothing: it freezes the copy-on-write page sets of
// Flash, SRAM and every Paged device (page count pointer copies), and
// copies the components' state structs and each Stateful device's
// SaveState bytes, which hold registers and buffers, no bulk storage.
// Until its digest is read, holding a frame pins only the pages the
// live run has dirtied since capture plus those register copies; the
// first Digest call hashes the image and drops it, after which the
// frame holds only its 16-hex digest.
//
// A digest hashes each page's SHA-256, not its bytes. A frozen page
// never changes, so it computes its sum once, on the first digest that
// reads it, and keeps it (page.sum); a page the live run still owns is
// hashed afresh by every digest. A digest therefore hashes the bytes of
// only the pages written since they were last frozen.

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
// per attached device with its page set when it is Paged. A snapshot
// restores from it and a digest hashes its architected part.
type stateImage struct {
	cpu    cpuState
	ff     ffCounts
	clock  clockState
	bus    busState
	mpu    mpuState
	pmp    pmpState
	hasPMP bool // the bus protection unit is a PMP

	flash, sram []*page
	devs        []devState
}

// CaptureState takes a mid-run state frame. Unlike Snapshot it has no
// quiescence requirement; it is transparent to execution (the page
// freeze affects copy-on-write ownership, never contents or cycles).
// Its Digest equals StateDigest read at the same point.
func (m *Machine) CaptureState() *StateFrame {
	img := m.image(true)
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
	img := m.image(false)
	return img.digest()
}

// image captures the machine's state: over page sets it freezes for a
// snapshot or frame (freeze), over the live ones for an immediate
// digest.
func (m *Machine) image(freeze bool) stateImage {
	pages := func(pm *pagedMem) []*page {
		if freeze {
			return pm.snapshotPages()
		}
		return pm.pages
	}
	b := m.Bus
	img := stateImage{
		cpu: m.cpuState, ff: m.ff.ffCounts, clock: m.Clock.clockState,
		bus: b.busState, mpu: b.MPU.mpuState,
		flash: pages(b.flash), sram: pages(b.sram),
		devs: make([]devState, len(b.devices)),
	}
	if p, ok := b.Prot.(*PMP); ok {
		img.pmp, img.hasPMP = p.pmpState, true
	}
	for i, d := range b.devices {
		ds := &img.devs[i]
		ds.name, ds.base = d.Name(), d.Base()
		if sd, ok := d.(Stateful); ok {
			ds.data = sd.SaveState()
		}
		if pd, ok := d.(Paged); ok {
			ds.pages = pages(pd.Pages())
		}
	}
	return img
}

// digest hashes the image's architected part: the CPU registers (the
// instruction count among them), the clock, the DWT enable, the MPU
// and PMP registers, the SHA-256 of every Flash and SRAM page and every
// device record with its page sums. It leaves out the statistics and
// cache counters and the micro-TLB generation, which caches and
// skipped poll iterations move without changing what the machine
// computes, and the certificate rows, which only select the
// elided access path (a snapshot keeps them beside its image).
func (img *stateImage) digest() string {
	// Room for the register lines, every page sum and every device
	// record, so the hashed buffer is allocated once.
	n := 512 + (len(img.flash)+len(img.sram))*sha256.Size
	for _, d := range img.devs {
		n += 64 + len(d.data) + len(d.pages)*sha256.Size
	}
	buf := make([]byte, 0, n)
	buf = fmt.Appendf(buf, "cpu %v\nclock %v\nbus %v\nmpu %v\n", img.cpu.cpuRegs, img.clock, img.bus.busRegs, img.mpu.mpuRegs)
	if img.hasPMP {
		buf = fmt.Appendf(buf, "pmp %v\n", img.pmp.pmpRegs)
	}
	buf = appendPageSums(buf, "flash", img.flash)
	buf = appendPageSums(buf, "sram", img.sram)
	for _, d := range img.devs {
		buf = fmt.Appendf(buf, "dev %s %#08x ", d.name, d.base)
		buf = append(buf, d.data...)
		if d.pages != nil {
			buf = appendPageSums(buf, "pages", d.pages)
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// appendPageSums appends a page set's length and each page's SHA-256.
func appendPageSums(buf []byte, label string, pages []*page) []byte {
	buf = fmt.Appendf(buf, "%s %d\n", label, len(pages))
	for _, p := range pages {
		s := p.sum()
		buf = append(buf, s[:]...)
	}
	return buf
}

// sum is the page's SHA-256. A frozen page computes it once, on the
// first call from any goroutine, and keeps it; an owned page may still
// change, so it is hashed on every call.
func (p *page) sum() [sha256.Size]byte {
	if !p.frozen {
		return sha256.Sum256(p.b[:])
	}
	p.sumOnce.Do(func() { p.sumv = sha256.Sum256(p.b[:]) })
	return p.sumv
}
