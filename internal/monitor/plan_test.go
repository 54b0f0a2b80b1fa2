package monitor_test

import (
	"fmt"
	"testing"

	"opec/internal/core"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/testprog"
)

// TestBootRejectsInvalidPlan: an operation whose data section is not
// aligned to its region size has no valid protection plan. Boot and
// BootPMP must refuse it, naming the operation and the slot or entry,
// instead of panicking at the first switch into the operation.
func TestBootRejectsInvalidPlan(t *testing.T) {
	for _, tc := range []struct {
		boot func(*core.Build, *mach.Bus) (*monitor.Monitor, error)
		want func(op string, base uint32, log2 uint8) string
	}{
		{monitor.Boot, func(op string, base uint32, log2 uint8) string {
			return fmt.Sprintf("monitor: operation %s: MPU slot %d: mach: region base %#x not aligned to size %#x",
				op, core.RegionOpData, base, uint32(1)<<log2)
		}},
		{monitor.BootPMP, func(op string, base uint32, log2 uint8) string {
			return fmt.Sprintf("monitor: operation %s: PMP entry %d: mach: NAPOT base %#x not aligned to 2^%d",
				op, core.PMPOpData, base, log2)
		}},
	} {
		b, err := core.Compile(testprog.PinLockLike(), mach.STM32F4Discovery(), testprog.PinLockConfig())
		if err != nil {
			t.Fatal(err)
		}
		victim := b.Ops[len(b.Ops)-1]
		sec := &b.OpSections[victim.ID]
		if sec.Size == 0 {
			t.Fatalf("operation %s has no data section", victim.Name)
		}
		sec.Addr += 4 // no longer aligned to the section's region
		mon, err := tc.boot(b, mach.NewBus(b.Board.FlashSize, b.Board.SRAMSize, &mach.Clock{}))
		if err == nil {
			t.Fatalf("boot accepted a misaligned operation section (monitor %v)", mon != nil)
		}
		if want := tc.want(victim.Name, sec.Addr, sec.RegionLog2); err.Error() != want {
			t.Errorf("boot error %q, want %q", err, want)
		}
	}
}
