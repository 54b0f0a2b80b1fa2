package core

import (
	"fmt"
	"sort"

	"opec/internal/absint"
	"opec/internal/analysis"
	"opec/internal/image"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/trace"
)

// Build is the output of OPEC-Compiler for one program: the partitioned
// operations, the global classification, and the complete Figure 6
// memory layout (operation data sections, public data section,
// variables relocation table, heap and stack placement), plus the
// footprint accounting Figure 9 and Table 1 report.
type Build struct {
	Mod      *ir.Module
	Board    *mach.Board
	Analysis *analysis.Result
	Ops      []*Operation

	// EntryOps maps each operation entry function (including main) to
	// its operation.
	EntryOps map[*ir.Function]*Operation

	// External marks globals accessed by two or more operations; these
	// get shadow copies (Section 4.4). Internal globals (exactly one
	// operation) live directly in that operation's data section.
	External map[*ir.Global]bool
	// OwnerOp maps each internal global to its operation.
	OwnerOp map[*ir.Global]*Operation

	// StaticAddr resolves const (Flash), internal (operation data
	// section) and heap-pool globals — everything with one fixed home.
	StaticAddr map[*ir.Global]uint32
	// PublicAddr is the public-data-section original of each external
	// (and unused) global; the monitor synchronizes through it.
	PublicAddr map[*ir.Global]uint32
	// ShadowAddr[opID][g] is the shadow copy of external global g in
	// that operation's data section.
	ShadowAddr []map[*ir.Global]uint32
	// RelocSlot[g] is the address of external global g's pointer slot
	// in the variables relocation table.
	RelocSlot map[*ir.Global]uint32
	// ExternalList is the name-sorted external set (table order).
	ExternalList []*ir.Global
	// PtrFields[g] lists the byte offsets of external global g's
	// pointer fields (ir.PointerFieldOffsets), which the monitor
	// redirects on every operation switch; globals without pointer
	// fields have no entry.
	PtrFields map[*ir.Global][]int

	// OpSections[opID] is each operation's data section (MPU-aligned).
	OpSections []image.Section

	PublicBase  uint32
	PublicBytes int
	RelocBase   uint32
	RelocBytes  int
	MonDataBase uint32
	MonDataSize int
	HeapBase    uint32
	HeapSize    uint32

	StackTop        uint32
	StackLimit      uint32
	StackBase       uint32 // == StackLimit; region base
	StackRegionLog2 uint8

	CodeBase             uint32
	CodeBytes            int
	MonitorCodeBytes     int
	RODataBytes          int
	MetadataBytes        int
	InstrumentationBytes int
	InstrumentedSites    int

	FlashUsed int
	SRAMUsed  int

	// Proofs is the abstract-interpretation proof-engine result: every
	// static access classified per operation, plus the merged
	// certificate table the interpreter consumes for MPU-check elision
	// (see internal/absint and certify.go).
	Proofs *absint.Result
}

// Compile runs the full OPEC-Compiler pipeline on m: analysis,
// partitioning, image layout, and entry-call-site instrumentation.
// The module is mutated by instrumentation (operation-entry call sites
// become supervisor calls); build each module fresh per compile.
func Compile(m *ir.Module, board *mach.Board, cfg Config) (*Build, error) {
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("core: verify: %w", err)
	}
	res := analysis.Analyze(m, board)
	ops, err := Partition(res, cfg)
	if err != nil {
		return nil, err
	}
	b := &Build{Mod: m, Board: board, Analysis: res, Ops: ops}
	if err := b.layout(); err != nil {
		return nil, err
	}
	b.instrument()
	b.certify()
	return b, nil
}

// Counters exposes the build's static policy-size figures through the
// unified counter registry (sorted by name, like every source).
func (b *Build) Counters() []trace.Counter {
	return []trace.Counter{
		{Name: "build.external_globals", Value: uint64(len(b.ExternalList))},
		{Name: "build.flash_bytes", Value: uint64(b.FlashUsed)},
		{Name: "build.instrumented_sites", Value: uint64(b.InstrumentedSites)},
		{Name: "build.operations", Value: uint64(len(b.Ops))},
		{Name: "build.public_bytes", Value: uint64(b.PublicBytes)},
		{Name: "build.reloc_bytes", Value: uint64(b.RelocBytes)},
		{Name: "build.sram_bytes", Value: uint64(b.SRAMUsed)},
	}
}

// layout implements Section 4.4's program image generation on the
// Figure 6 memory map.
func (b *Build) layout() error {
	m, board := b.Mod, b.Board

	b.EntryOps = make(map[*ir.Function]*Operation, len(b.Ops))
	for _, op := range b.Ops {
		b.EntryOps[op.Entry] = op
	}

	// Classify globals by the number of operations that access them.
	//
	// Determinism invariant (enforced by TestRepeatCompileDeterminism):
	// several of this function's maps are pointer-keyed, so anything
	// that leaks into addresses, reloc slots or policy bytes must be
	// derived from a sorted order, never from map iteration. access and
	// owner are only ever read through lookups; the one range over a
	// map below merely fills the External/OwnerOp sets, and every
	// address assignment iterates a name-sorted slice (module names are
	// unique, so name order is total).
	access := make(map[*ir.Global]int)
	owner := make(map[*ir.Global]*Operation)
	for _, op := range b.Ops {
		for _, g := range op.Globals {
			access[g]++
			owner[g] = op
		}
	}
	b.External = make(map[*ir.Global]bool)
	b.OwnerOp = make(map[*ir.Global]*Operation)
	for g, n := range access {
		if n >= 2 {
			b.External[g] = true
		} else {
			b.OwnerOp[g] = owner[g]
		}
	}
	for g := range b.External {
		b.ExternalList = append(b.ExternalList, g)
	}
	sort.Slice(b.ExternalList, func(i, j int) bool { return b.ExternalList[i].Name < b.ExternalList[j].Name })
	b.PtrFields = make(map[*ir.Global][]int)
	for _, g := range b.ExternalList {
		if offs := ir.PointerFieldOffsets(g.Typ); len(offs) > 0 {
			b.PtrFields[g] = offs
		}
	}

	// ---- Flash ----
	b.CodeBase = mach.FlashBase
	b.CodeBytes = m.CodeBytes()
	b.MonitorCodeBytes = monitorCodeModel(b.Ops, len(b.ExternalList))
	roBase := mach.FlashBase + uint32(b.CodeBytes+b.MonitorCodeBytes)
	b.StaticAddr = make(map[*ir.Global]uint32)
	for _, g := range m.Globals {
		if g.Const {
			b.StaticAddr[g] = roBase
			sz := uint32((g.Size() + 3) &^ 3)
			roBase += sz
			b.RODataBytes += int(sz)
		}
	}
	b.MetadataBytes = metadataModel(b.Ops, len(b.ExternalList))

	// ---- SRAM ----
	// Public data section: originals of external globals plus globals
	// no operation touches (dead data keeps its baseline home).
	// PublicAddr assignment walks the name-sorted ExternalList and then
	// the module's declaration-ordered Globals slice — never a map.
	addr := mach.SRAMBase
	b.PublicBase = addr
	b.PublicAddr = make(map[*ir.Global]uint32)
	place := func(g *ir.Global) uint32 {
		a := addr
		addr += uint32((g.Size() + 3) &^ 3)
		return a
	}
	for _, g := range b.ExternalList {
		b.PublicAddr[g] = place(g)
	}
	for _, g := range m.Globals {
		if g.Const || g.HeapPool || b.External[g] || b.OwnerOp[g] != nil {
			continue
		}
		b.PublicAddr[g] = place(g) // unused by any operation
	}
	b.PublicBytes = int(addr - b.PublicBase)

	// Heap section: one MPU region, granted only to heap-using
	// operations. Heap pools live here (never shadow-copied).
	heapLog2 := mach.RegionSizeFor(image.HeapBytes)
	b.HeapBase = mach.AlignUp(addr, heapLog2)
	b.HeapSize = image.HeapBytes
	heapAddr := b.HeapBase
	for _, g := range m.Globals {
		if g.HeapPool {
			b.StaticAddr[g] = heapAddr
			heapAddr += uint32((g.Size() + 3) &^ 3)
		}
	}
	if heapAddr > b.HeapBase+b.HeapSize {
		return fmt.Errorf("core: heap pools exceed the heap section (%d > %d)", heapAddr-b.HeapBase, b.HeapSize)
	}
	addr = b.HeapBase + b.HeapSize

	// Operation data sections, one MPU region each, placed in
	// descending size order to limit external fragments (Section 4.4).
	names := make([]string, len(b.Ops))
	sizes := make([]int, len(b.Ops))
	for i, op := range b.Ops {
		names[i] = fmt.Sprintf("op%d.%s", op.ID, op.Name)
		sizes[i] = op.SectionBytes()
	}
	sections, next := image.PlaceMPUSections(addr, names, sizes)
	b.OpSections = sections

	// Shadow/internal placement inside each section, in the
	// operation's (name-sorted) global order; StaticAddr for internal
	// globals is therefore assigned in that same sorted order.
	b.ShadowAddr = make([]map[*ir.Global]uint32, len(b.Ops))
	for i, op := range b.Ops {
		sa := make(map[*ir.Global]uint32)
		cur := sections[i].Addr
		for _, g := range op.Globals {
			if b.External[g] {
				sa[g] = cur
			} else {
				b.StaticAddr[g] = cur
			}
			cur += uint32((g.Size() + 3) &^ 3)
		}
		b.ShadowAddr[i] = sa
	}

	// Variables relocation table: one pointer per external variable,
	// slots in ExternalList (name) order. Privileged-writable,
	// unprivileged read-only (covered by the background RO region;
	// writes only via the monitor).
	b.RelocBase = mach.AlignUp(next, 5)
	b.RelocSlot = make(map[*ir.Global]uint32, len(b.ExternalList))
	for i, g := range b.ExternalList {
		b.RelocSlot[g] = b.RelocBase + uint32(4*i)
	}
	b.RelocBytes = 4 * len(b.ExternalList)

	// Monitor data: operation contexts and switch bookkeeping.
	b.MonDataBase = mach.AlignUp(b.RelocBase+uint32(b.RelocBytes), 5)
	b.MonDataSize = 256 + 64*len(b.Ops)

	// Stack: one MPU region at the top of SRAM with eight sub-regions
	// (Section 5.2, Stack).
	b.StackRegionLog2 = mach.RegionSizeFor(image.StackBytes)
	b.StackTop = mach.SRAMBase + uint32(board.SRAMSize)
	b.StackBase = b.StackTop - image.StackBytes
	if b.StackBase&(1<<b.StackRegionLog2-1) != 0 {
		return fmt.Errorf("core: stack base %#x not aligned for its MPU region", b.StackBase)
	}
	b.StackLimit = b.StackBase

	if b.MonDataBase+uint32(b.MonDataSize) > b.StackBase {
		return fmt.Errorf("core: %s does not fit SRAM under OPEC", m.Name)
	}

	// Footprints.
	b.FlashUsed = b.CodeBytes + b.MonitorCodeBytes + b.RODataBytes + b.MetadataBytes
	sram := b.PublicBytes + int(b.HeapSize)
	for _, s := range sections {
		sram += int(s.RegionBytes())
	}
	sram += b.RelocBytes + b.MonDataSize + image.StackBytes
	b.SRAMUsed = sram
	if b.FlashUsed > board.FlashSize {
		return fmt.Errorf("core: %s exceeds Flash under OPEC (%d > %d)", m.Name, b.FlashUsed, board.FlashSize)
	}
	return nil
}

// instrument rewrites every call site of an operation entry function
// into a supervisor call (Section 4.4, Code Instrumentation): the SVC
// escalates to privileged, OPEC-Monitor performs the operation switch,
// the entry body runs unprivileged in the new operation, and the
// matching exit SVC restores the previous operation.
//
// Direct self-recursion of an entry stays a plain call: the recursion
// is grouped into one operation (Section 4.3).
func (b *Build) instrument() {
	for _, f := range b.Mod.Functions {
		f.Instructions(func(_ *ir.Block, in *ir.Instr) {
			if in.Op != ir.OpCall || in.Fn == nil {
				return
			}
			op, isEntry := b.EntryOps[in.Fn]
			if !isEntry || in.Fn == f {
				return
			}
			in.Op = ir.OpSvc
			in.Off = op.ID
			b.InstrumentedSites++
		})
	}
	// Each instrumented site costs two SVC instructions plus dispatch
	// glue in a real binary.
	b.InstrumentationBytes = 8 * b.InstrumentedSites
	b.FlashUsed += b.InstrumentationBytes
}

// monitorCodeModel estimates the privileged OPEC-Monitor code footprint
// (Table 1 reports ~8.2–8.7 KB). The base covers initialization, the
// SVC switch path, the MPU virtualization and PPB emulation handlers;
// the policy-dependent part grows with the operation count and the
// external-variable table walkers.
func monitorCodeModel(ops []*Operation, externals int) int {
	n := 8192 + 24*len(ops) + 2*externals
	for _, op := range ops {
		n += 4 * len(op.PeriphRegions)
	}
	return n
}

// metadataModel estimates the Flash bytes of per-operation metadata:
// MPU configurations, stack information, sanitization values, the
// peripheral allow-list, and the relocation-table descriptors
// (Section 4.4, Operation Metadata).
func metadataModel(ops []*Operation, externals int) int {
	n := 0
	for _, op := range ops {
		n += 8*8 /* MPU configs */ + 16 /* context */ + 4*len(op.StackArgs)
		n += 8 * len(op.PeriphRegions)
	}
	n += 8 * externals // relocation table descriptors
	return n
}
