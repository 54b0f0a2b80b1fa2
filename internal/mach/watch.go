package mach

// Data-watchpoint seam. The time-travel debugger (internal/debug)
// re-executes a recorded run with a store observer installed and
// reconstructs, for any address range, every write the run ever
// attempted — landed or denied — with the PC, function and protection
// verdict of each. Two hooks cover the two ways memory changes:
//
//   - Machine.SetStoreWatch observes program-issued stores. Every
//     execution backend funnels data stores through storeChecked /
//     storeProven (the interpreter directly, the threaded-code engine
//     via Env.Store/Env.StoreProven, injection hooks via InjectStore),
//     so one seam sees them all, certificate-elided or fully
//     adjudicated, and sees the denied attempts the memory itself never
//     records.
//   - Bus.SetRawWatch observes hardware-level writes below the
//     protection unit: bit flips, peripheral corruption, and the
//     monitor's raw shadow/init copies. These carry no frame context —
//     there is no PC, the write did not come from executing code.
//
// Both hooks follow the trace buffer's discipline: nil (the default)
// keeps the hot path at a single pointer compare, Restore clears
// them, and observing is transparent — no clock advance, no
// architected effect.

// WatchedStore describes one attempted data store as the watch seam saw
// it: where execution stood, what was written, and how the protection
// unit ruled.
type WatchedStore struct {
	Cycle uint64 // Clock.Now() after the store's CostMem charge
	Instr uint64 // instruction count at the store
	Addr  uint32
	Size  int
	Val   uint32

	// Fn/PC locate the innermost executing function (the code address
	// ExecError reports). Fn is "" for stores issued outside any
	// activation (boot paths).
	Fn string
	PC uint32

	Privileged bool
	// Proven marks a certificate-elided store (storeProven).
	Proven bool
	// Denied marks a store the bus or protection unit refused; the
	// value never reached memory. FaultKind is the refusing fault.
	Denied    bool
	FaultKind FaultKind
	// Region is the MPU region that would adjudicate Addr (-1 for the
	// background map, -2 when the protection unit is not an MPU).
	Region int
}

// SetStoreWatch installs (or with nil removes) the store observer. The
// observer must not execute machine code or mutate machine state; it
// sees every attempted program store, including denied ones.
func (m *Machine) SetStoreWatch(fn func(WatchedStore)) { m.watch = fn }

// notifyStore reports one attempted store to the installed watch.
// Callers guard with m.watch != nil, keeping the unwatched path free.
func (m *Machine) notifyStore(addr uint32, size int, v uint32, proven bool, f *Fault) {
	ws := WatchedStore{
		Cycle: m.Clock.Now(), Instr: m.InstrCount,
		Addr: addr, Size: size, Val: v,
		Privileged: m.Privileged, Proven: proven, Region: -2,
	}
	if m.depth > 0 && m.depth <= len(m.frames) {
		if fn := m.frames[m.depth-1].fn; fn != nil {
			ws.Fn = fn.Name
			ws.PC = m.FuncAddr(fn)
		}
	}
	if mpu, ok := m.Bus.Prot.(*MPU); ok {
		ws.Region = mpu.RegionFor(addr)
	}
	if f != nil {
		ws.Denied = true
		ws.FaultKind = f.Kind
	}
	m.watch(ws)
}

// SetRawWatch installs (or with nil removes) the raw-write observer:
// it sees RawStore and the bulk CopyMem fast path — writes that bypass
// the protection unit and carry no executing-code context. For bulk
// copies the observer receives one call covering the whole range with
// val 0 (the bytes are in memory; only the footprint is reported).
func (b *Bus) SetRawWatch(fn func(addr uint32, size int, val uint32)) { b.rawWatch = fn }
