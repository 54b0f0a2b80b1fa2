package mach

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

// regDevice is a Stateful stub: SaveState serializes its one register.
type regDevice struct {
	stubDevice
	reg uint32
}

func (d *regDevice) SaveState() []byte { return binary.LittleEndian.AppendUint32(nil, d.reg) }

func (d *regDevice) LoadState(data []byte) error {
	if len(data) != 4 {
		return fmt.Errorf("regDevice: %d-byte state", len(data))
	}
	d.reg = binary.LittleEndian.Uint32(data)
	return nil
}

// statefulMachine is testMachine over sumModule with a Stateful device
// attached, so digests and ids cover device state too.
func statefulMachine(t *testing.T) (*Machine, *regDevice) {
	t.Helper()
	m := testMachine(t, sumModule())
	dev := &regDevice{stubDevice: stubDevice{name: "REG", base: USART2Base, size: 0x400}, reg: 7}
	if err := m.Bus.Attach(dev); err != nil {
		t.Fatal(err)
	}
	return m, dev
}

// runOn moves every part of the state a digest covers: it runs main
// (SRAM, clock, instruction count), dirties three more SRAM pages,
// reprograms an MPU region, changes the device's register and advances
// the clock.
func runOn(t *testing.T, m *Machine, dev *regDevice) {
	t.Helper()
	if _, err := m.Run(m.Mod.MustFunc("main")); err != nil {
		t.Fatal(err)
	}
	for off := uint32(0); off < 3*pageSize; off += pageSize {
		m.Bus.RawStore(SRAMBase+off+4, 4, 0xdeadbeef+off)
	}
	m.Bus.MPU.MustSetRegion(3, Region{Enabled: true, Base: SRAMBase, SizeLog2: 12, Perm: APRO})
	dev.reg++
	m.Clock.Advance(1000)
}

// TestStateFrameDigestLazy pins the lazy frame digest: read only after
// the machine ran on, it is still the StateDigest taken at capture, and
// a second read (the image is dropped by then) returns the same value.
func TestStateFrameDigestLazy(t *testing.T) {
	m, dev := statefulMachine(t)
	f := m.CaptureState()
	want := m.StateDigest()

	runOn(t, m, dev)
	if m.StateDigest() == want {
		t.Fatal("running on left the live digest unchanged")
	}
	if got := f.Digest(); got != want {
		t.Errorf("frame digest read late = %s, StateDigest at capture = %s", got, want)
	}
	if f.img != nil {
		t.Error("the first Digest kept the frame's image")
	}
	if got := f.Digest(); got != want {
		t.Errorf("second Digest = %s, want %s", got, want)
	}
}

// TestReleasedFrameDigestPanics: a frame evicted before its digest was
// read has nothing left to hash, so Digest must not invent a value.
func TestReleasedFrameDigestPanics(t *testing.T) {
	m, _ := statefulMachine(t)
	f := m.CaptureState()
	f.Release()
	defer func() {
		if recover() == nil {
			t.Error("Digest of a frame released undigested returned a value")
		}
	}()
	f.Digest()
}

// TestSnapshotIDLazy pins the lazy snapshot id: an id first read after
// the machine ran on, was restored to the snapshot and ran on again
// equals the id of the same state read at once, and concurrent first
// reads agree (run under -race).
func TestSnapshotIDLazy(t *testing.T) {
	m, dev := statefulMachine(t)
	lazy, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	runOn(t, m, dev)
	moved, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(lazy); err != nil {
		t.Fatal(err)
	}
	eager, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := eager.ID()
	if moved.ID() == want {
		t.Fatal("running on left the snapshot id unchanged")
	}
	runOn(t, m, dev)

	ids := make([]string, 8)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i] = lazy.ID()
		}()
	}
	wg.Wait()
	for i, id := range ids {
		if id != want {
			t.Errorf("reader %d: lazily read id %s, id read at once %s", i, id, want)
		}
	}
}

// cardDevice is a Paged stub: regDevice's register plus a page store of
// card blocks.
type cardDevice struct {
	regDevice
	store *PageStore
}

func (d *cardDevice) Pages() *PageStore { return d.store }

// cardMachine is statefulMachine with a 64 KiB card attached too, whose
// first page holds data and whose other pages are the zero page.
func cardMachine(t *testing.T) (*Machine, *cardDevice) {
	t.Helper()
	m, _ := statefulMachine(t)
	img := make([]byte, 16*pageSize)
	copy(img, "card boot sector")
	card := &cardDevice{regDevice: regDevice{stubDevice: stubDevice{name: "CARD", base: SDIOBase, size: 0x400}}, store: NewPageStore(img)}
	if err := m.Bus.Attach(card); err != nil {
		t.Fatal(err)
	}
	return m, card
}

// refDigest is StateDigest computed from scratch: every page is copied
// into a fresh owned page first, so no memoized page sum is read.
func refDigest(m *Machine) string {
	fresh := func(ps []*page) []*page {
		out := make([]*page, len(ps))
		for i, p := range ps {
			out[i] = new(page)
			out[i].b = p.b
		}
		return out
	}
	img := m.image(false)
	img.flash, img.sram = fresh(img.flash), fresh(img.sram)
	for i := range img.devs {
		if img.devs[i].pages != nil {
			img.devs[i].pages = fresh(img.devs[i].pages)
		}
	}
	return img.digest()
}

// TestDigestMatchesReference is the memoized digest's differential:
// over a seeded random sequence of SRAM and Flash stores, card writes,
// Snapshot, Restore and CaptureState, every StateDigest, snapshot id and
// frame digest equals the from-scratch reference of the state it
// names, whenever it is read.
func TestDigestMatchesReference(t *testing.T) {
	m, card := cardMachine(t)
	rng := rand.New(rand.NewPCG(19, 1))
	type held struct {
		snap  *Snapshot
		frame *StateFrame
		want  string
	}
	var snaps, frames []held
	for step := 0; step < 400; step++ {
		// A few pages per memory, so stores keep landing on pages that
		// are owned, frozen or the zero page.
		switch op := rng.IntN(10); {
		case op < 3:
			m.Bus.RawStore(SRAMBase+uint32(rng.IntN(4))*pageSize+uint32(rng.IntN(pageSize/4))*4, 4, rng.Uint32())
		case op < 4:
			m.Bus.RawStore(FlashBase+uint32(rng.IntN(2))*pageSize+uint32(rng.IntN(pageSize)), 1, rng.Uint32())
		case op < 6:
			blk := make([]byte, 512)
			for i := range blk {
				blk[i] = byte(rng.IntN(3))
			}
			card.store.Write(rng.IntN(4)*pageSize+rng.IntN(8)*512, blk)
			card.reg = rng.Uint32()
		case op < 7:
			s, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, held{snap: s, want: refDigest(m)})
		case op < 8:
			if len(snaps) > 0 {
				h := snaps[rng.IntN(len(snaps))]
				if err := m.Restore(h.snap); err != nil {
					t.Fatal(err)
				}
				if got := refDigest(m); got != h.want {
					t.Fatalf("step %d: restored state's reference %s, snapshot's %s", step, got, h.want)
				}
			}
		case op < 9:
			frames = append(frames, held{frame: m.CaptureState(), want: refDigest(m)})
		default:
			m.Clock.Advance(uint64(rng.IntN(100)))
		}
		if got, want := m.StateDigest(), refDigest(m); got != want {
			t.Fatalf("step %d: StateDigest %s, reference %s", step, got, want)
		}
		// Read some ids and frame digests late, after the run moved on.
		if len(snaps) > 0 && rng.IntN(4) == 0 {
			if h := snaps[rng.IntN(len(snaps))]; h.snap.ID() != h.want {
				t.Fatalf("step %d: snapshot id %s, reference at capture %s", step, h.snap.ID(), h.want)
			}
		}
		if len(frames) > 0 && rng.IntN(4) == 0 {
			if h := frames[rng.IntN(len(frames))]; h.frame.Digest() != h.want {
				t.Fatalf("step %d: frame digest %s, reference at capture %s", step, h.frame.Digest(), h.want)
			}
		}
	}
	if len(snaps) < 10 || len(frames) < 10 {
		t.Fatalf("the sequence took %d snapshots and %d frames, want at least 10 each", len(snaps), len(frames))
	}
	for i, h := range snaps {
		if h.snap.ID() != h.want {
			t.Errorf("snapshot %d: id %s, reference at capture %s", i, h.snap.ID(), h.want)
		}
	}
	for i, h := range frames {
		if h.frame.Digest() != h.want {
			t.Errorf("frame %d: digest %s, reference at capture %s", i, h.frame.Digest(), h.want)
		}
	}
}

// TestConcurrentDigestsShareFrozenPages reads the sums of one set of
// frozen pages from many goroutines at once, each page's first read
// among them: a snapshot's ID, frames' Digests and the StateDigest of
// machines restored from the snapshot, which then write their own
// copies. Run under -race.
func TestConcurrentDigestsShareFrozenPages(t *testing.T) {
	m, card := cardMachine(t)
	for i := uint32(0); i < 4; i++ {
		m.Bus.RawStore(SRAMBase+i*pageSize, 4, 0x1000+i)
		card.store.Write(int(i)*pageSize+8, []byte{byte(i + 1)})
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	id := refDigest(m)
	var frames []*StateFrame
	var frameWant []string
	for i := uint32(0); i < 4; i++ {
		m.Bus.RawStore(SRAMBase+i*pageSize+64, 4, 0x2000+i)
		frames = append(frames, m.CaptureState())
		frameWant = append(frameWant, refDigest(m))
	}
	var forks []*Machine
	var cards []*cardDevice
	for i := 0; i < 4; i++ {
		f, c := cardMachine(t)
		if err := f.Restore(snap); err != nil {
			t.Fatal(err)
		}
		forks, cards = append(forks, f), append(cards, c)
	}

	errs := make(chan string, 16)
	var wg sync.WaitGroup
	wg.Add(1 + len(frames) + len(forks))
	go func() {
		defer wg.Done()
		if got := snap.ID(); got != id {
			errs <- fmt.Sprintf("snapshot id %s, want %s", got, id)
		}
	}()
	for i, f := range frames {
		go func() {
			defer wg.Done()
			if got := f.Digest(); got != frameWant[i] {
				errs <- fmt.Sprintf("frame %d digest %s, want %s", i, got, frameWant[i])
			}
		}()
	}
	for i, f := range forks {
		go func() {
			defer wg.Done()
			if got := f.StateDigest(); got != id {
				errs <- fmt.Sprintf("fork %d digests to %s, snapshot id %s", i, got, id)
			}
			f.Bus.RawStore(SRAMBase+uint32(i)*pageSize, 4, 0xF00D)
			cards[i].store.Write(i*pageSize, []byte{0xEE})
			if got, want := f.StateDigest(), refDigest(f); got != want {
				errs <- fmt.Sprintf("fork %d after its writes digests to %s, reference %s", i, got, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
