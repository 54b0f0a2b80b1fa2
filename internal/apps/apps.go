// Package apps builds the seven evaluation workloads of Section 6 as IR
// programs over the internal/hal firmware library: PinLock, Animation,
// FatFs-uSD, LCD-uSD, TCP-Echo, Camera and CoreMark. Each App
// constructor returns a fresh Instance — module, operation entry list,
// board, devices and a post-run correctness check — so the vanilla,
// OPEC and ACES builds each compile their own copy.
package apps

import (
	"fmt"

	"opec/internal/core"
	"opec/internal/ir"
	"opec/internal/mach"
)

// ReadGlobal reads a global variable as the program's final operation
// sees it, via the machine's symbol resolution (vanilla: the variable;
// OPEC: the current shadow through the relocation table).
type ReadGlobal func(name string, off uint32, size int) uint32

// Instance is one freshly-built workload ready to compile and run.
type Instance struct {
	Mod       *ir.Module
	Cfg       core.Config
	Board     *mach.Board
	Clk       *mach.Clock
	Devices   []mach.Device
	MaxCycles uint64

	// NeedsDMA2D asks the runner to attach a bus-mastering DMA2D
	// blitter (created once the bus exists).
	NeedsDMA2D bool

	// Checks is the machine's check level; the zero value runs every
	// fast path.
	Checks mach.Checks

	// Check verifies the workload did its job (device side effects +
	// program state). Runs after a successful halt.
	Check func(read ReadGlobal) error
}

// App is a named workload constructor.
type App struct {
	Name string
	New  func() *Instance
}

// WithChecks returns the workload with its instances at check level c.
func (a *App) WithChecks(c mach.Checks) *App {
	return &App{Name: a.Name, New: func() *Instance {
		inst := a.New()
		inst.Checks = c
		return inst
	}}
}

// All returns the seven workloads in the paper's order. PinLock runs a
// reduced round count by default (tests); the experiment harness scales
// it up via the constructors' *N variants where offered.
func All() []*App {
	return []*App{
		PinLock(),
		Animation(),
		FatFsUSD(),
		LCDuSD(),
		TCPEcho(),
		Camera(),
		CoreMark(),
	}
}

// ByName returns a workload constructor.
func ByName(name string) (*App, error) {
	for _, a := range All() {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("apps: unknown application %q", name)
}

// checkEq is a small helper for Check closures.
func checkEq(what string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s = %d, want %d", what, got, want)
	}
	return nil
}
