package mach

import (
	"encoding/binary"
	"fmt"
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
