package monitor

import (
	"fmt"

	"opec/internal/core"
	"opec/internal/ir"
)

// opPlan is one operation's switch plan: what every switch, recovery
// and fault path reads about the operation. The monitor derives it from
// the build once at boot and never writes it after; it lives here and
// not in the core.Build because concurrently booted machines share one
// build.
type opPlan struct {
	// sync holds the operation's shadowed globals in SyncList order.
	sync []syncEntry
	// inits resolves the operation's internal globals with a fixed home,
	// in section order: a restart rewrites them from the boot image.
	inits []globalRes
	// reloc is the relocation table's image while the operation runs:
	// the address each slot holds, in ExternalList order.
	reloc []uint32
	// mpu or pmp is the operation's validated protection plan on the
	// monitor's backend (MPUFor or PMPFor); the other stays zero.
	mpu core.OpMPU
	pmp core.OpPMP
}

// syncEntry is one shadowed global of an operation: where its shadow
// and public copies live, how many bytes a sync moves, the range a
// critical global is sanitized against and its pointer-field offsets.
type syncEntry struct {
	g              *ir.Global
	shadow, public uint32
	size           int
	critical       *ir.ValueRange
	ptrFields      []int
}

// globalRes is how one global operand resolves (the image's symbol
// semantics): at a fixed address, through its relocation-table slot, or
// not at all (a bus fault).
type globalRes struct {
	g    *ir.Global
	addr uint32 // the fixed address, or the relocation slot's
	kind uint8
}

const (
	resFault = iota
	resFixed
	resSlot
)

// derivePlans derives every operation's plan and the boot-time lookup
// tables. Each protection plan is validated here, so a bad one fails
// boot with the operation and slot named instead of panicking at the
// first switch into the operation.
func (mon *Monitor) derivePlans(usePMP bool) error {
	b := mon.B
	mon.relocSlots = make([]uint32, len(b.ExternalList))
	for i, g := range b.ExternalList {
		mon.relocSlots[i] = b.RelocSlot[g]
	}
	mon.plans = make([]opPlan, len(b.Ops))
	for _, op := range b.Ops {
		p := &mon.plans[op.ID]
		shadows := b.ShadowAddr[op.ID]
		for _, g := range b.SyncList(op) {
			p.sync = append(p.sync, syncEntry{
				g: g, shadow: shadows[g], public: b.PublicAddr[g], size: g.Size(),
				critical: g.Critical, ptrFields: b.PtrFields[g],
			})
		}
		for _, g := range op.Globals {
			if a, ok := b.StaticAddr[g]; ok && !b.External[g] {
				p.inits = append(p.inits, globalRes{g: g, addr: a, kind: resFixed})
			}
		}
		p.reloc = make([]uint32, len(b.ExternalList))
		for i, g := range b.ExternalList {
			addr, ok := shadows[g]
			if !ok {
				addr = b.PublicAddr[g]
			}
			p.reloc[i] = addr
		}
		var err error
		if usePMP {
			p.pmp = b.PMPFor(op)
			err = validatePMP(&p.pmp)
		} else {
			p.mpu = b.MPUFor(op)
			err = validateMPU(&p.mpu)
		}
		if err != nil {
			return fmt.Errorf("monitor: operation %s: %w", op.Name, err)
		}
	}
	mon.entryOps = make([]*core.Operation, len(b.Mod.Functions))
	for i, f := range b.Mod.Functions {
		mon.entryOps[i] = b.EntryOps[f]
	}
	mon.globals = make([]globalRes, len(b.Mod.Globals))
	for i, g := range b.Mod.Globals {
		mon.globals[i] = mon.resolution(g)
	}
	return nil
}

// validateMPU checks every region the monitor may write from p: the
// eight switch-time slots and the peripheral pool memManage rotates in.
func validateMPU(p *core.OpMPU) error {
	for i, r := range p.Static {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("MPU slot %d: %w", i, err)
		}
	}
	for i, r := range p.Pool {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("MPU pool region %d: %w", i, err)
		}
	}
	return nil
}

// validatePMP is validateMPU for the PMP backend's entries.
func validatePMP(p *core.OpPMP) error {
	for i, e := range p.Static {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("PMP entry %d: %w", i, err)
		}
	}
	for i, e := range p.Pool {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("PMP pool entry %d: %w", i, err)
		}
	}
	return nil
}

// resolution classifies g through the build's maps: a fixed home
// (const, internal, heap pool) first, then the relocation slot of an
// external global, then the public original of a global no operation
// touches.
func (mon *Monitor) resolution(g *ir.Global) globalRes {
	b := mon.B
	if a, ok := b.StaticAddr[g]; ok {
		return globalRes{g: g, addr: a, kind: resFixed}
	}
	if slot, ok := b.RelocSlot[g]; ok {
		return globalRes{g: g, addr: slot, kind: resSlot}
	}
	if a, ok := b.PublicAddr[g]; ok {
		return globalRes{g: g, addr: a, kind: resFixed}
	}
	return globalRes{g: g}
}

// entryOp returns the operation entry enters, the one b.EntryOps[entry]
// names (nil for a non-entry). A function the boot-time table does not
// hold at its index is looked up in the map.
func (mon *Monitor) entryOp(entry *ir.Function) *core.Operation {
	if i := entry.Index(); uint(i) < uint(len(mon.entryOps)) && mon.B.Mod.Functions[i] == entry {
		return mon.entryOps[i]
	}
	return mon.B.EntryOps[entry]
}
