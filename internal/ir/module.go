package ir

import (
	"fmt"
	"sort"
)

// ValueRange is a developer-provided sanity interval for a critical
// global variable. The monitor checks shadow copies against it before
// propagating their value across an operation switch (Section 5.3);
// a violation aborts the program.
type ValueRange struct {
	Min, Max uint32
}

// Contains reports whether v lies within the range.
func (r ValueRange) Contains(v uint32) bool { return v >= r.Min && v <= r.Max }

// Global is a program global variable (or constant).
type Global struct {
	Name  string
	Typ   Type
	Init  []byte // initial bytes; nil means zero-initialized (.bss)
	Const bool   // read-only data (.rodata), ineligible for shadowing

	// Critical, when non-nil, marks the variable safety-critical with
	// a developer-provided valid range used for sanitization. The range
	// applies to the first word of the variable.
	Critical *ValueRange

	// HeapPool marks the variable as a heap memory pool. Heap pools are
	// placed in the dedicated heap section rather than operation data
	// sections and are never shadow-copied (Section 5.2, Heap).
	HeapPool bool

	idx int // 1-based position in module.Globals; 0 = unregistered
}

// Index returns the global's dense position in its module's global
// list, or -1 if it was never registered with AddGlobal. Runtimes use
// it to resolve global operands by slice instead of by map.
func (g *Global) Index() int { return g.idx - 1 }

func (g *Global) String() string { return "@" + g.Name }

// isValue makes *Global usable as an operand; as an operand it denotes
// the address of the global. A *Global appearing directly as the address
// operand of a load or store is a direct access; appearing anywhere else
// it is an address-taken escape that feeds the points-to analysis.
func (g *Global) isValue() {}

// Size returns the storage size of the global in bytes.
func (g *Global) Size() int { return g.Typ.Size() }

// Param is a formal parameter of a function.
type Param struct {
	Name  string
	Typ   Type
	Index int
	fn    *Function
}

func (p *Param) String() string { return "%" + p.Name }
func (p *Param) isValue()       {}

// Func returns the function this parameter belongs to.
func (p *Param) Func() *Function { return p.fn }

// Function is a unit of code. Functions carry the source-file attribute
// that ACES's filename-based partitioning strategies group by.
type Function struct {
	Name   string
	File   string // source file, e.g. "stm32f4xx_hal_uart.c"
	Params []*Param
	Ret    Type // nil for void
	Blocks []*Block

	// Variadic functions cannot be operation entry points (Section 4.3).
	Variadic bool
	// IRQHandler marks interrupt service routines; functions reachable
	// only from handlers cannot be operation entries and handlers run
	// privileged in both OPEC and the baseline.
	IRQHandler bool

	nextID int
	module *Module
	idx    int // 1-based position in module.Functions; 0 = unregistered
}

// Index returns the function's dense position in its module's function
// list, or -1 if it was never registered with AddFunc. Execution engines
// use it to key per-function metadata by slice instead of by map.
func (f *Function) Index() int { return f.idx - 1 }

func (f *Function) String() string { return f.Name }
func (f *Function) isValue()       {}

// Signature returns the function's type for icall matching.
func (f *Function) Signature() FuncType {
	ps := make([]Type, len(f.Params))
	for i, p := range f.Params {
		ps[i] = p.Typ
	}
	return FuncType{Params: ps, Ret: f.Ret, Variadic: f.Variadic}
}

// Entry returns the function's entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NumRegs returns the number of virtual-register slots the function
// needs (one per value-producing instruction).
func (f *Function) NumRegs() int { return f.nextID }

// FrameLocalBytes returns the total bytes of alloca slots in the frame.
func (f *Function) FrameLocalBytes() int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == OpAlloca {
				n += (in.Off + 3) &^ 3
			}
		}
	}
	return n
}

// Instructions calls fn for every instruction in the function in block
// order. It is the traversal primitive the analyses use.
func (f *Function) Instructions(fn func(*Block, *Instr)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			fn(b, in)
		}
	}
}

// CodeSize estimates the Thumb-2 code footprint in bytes at
// unoptimized compilation: one IR instruction lowers to roughly three
// to five machine instructions (address formation, stack reloads), so
// twelve bytes per IR instruction plus prologue/epilogue. The image
// layer uses this for Flash accounting; Table 1's privileged-code
// percentages and Figure 9's Flash overhead divide by sums of these.
func (f *Function) CodeSize() int {
	n := 32 // prologue + epilogue + literal pool
	for _, b := range f.Blocks {
		n += 12 * (len(b.Instrs) + 1) // +1 for the terminator
	}
	return n
}

// Module is a whole statically-linked program image source: the
// application plus every HAL library it uses.
type Module struct {
	Name      string
	Globals   []*Global
	Functions []*Function

	globalsByName map[string]*Global
	funcsByName   map[string]*Function
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{
		Name:          name,
		globalsByName: make(map[string]*Global),
		funcsByName:   make(map[string]*Function),
	}
}

// Global returns the named global, or nil.
func (m *Module) Global(name string) *Global { return m.globalsByName[name] }

// Func returns the named function, or nil.
func (m *Module) Func(name string) *Function { return m.funcsByName[name] }

// MustFunc returns the named function or panics; for wiring up
// statically-known entry lists.
func (m *Module) MustFunc(name string) *Function {
	f := m.funcsByName[name]
	if f == nil {
		panic(fmt.Sprintf("ir: module %s has no function %q", m.Name, name))
	}
	return f
}

// AddGlobal registers a global; duplicate names are a programming error.
func (m *Module) AddGlobal(g *Global) *Global {
	if _, dup := m.globalsByName[g.Name]; dup {
		panic(fmt.Sprintf("ir: duplicate global %q", g.Name))
	}
	m.Globals = append(m.Globals, g)
	g.idx = len(m.Globals)
	m.globalsByName[g.Name] = g
	return g
}

// AddFunc registers a function; duplicate names are a programming error.
func (m *Module) AddFunc(f *Function) *Function {
	if _, dup := m.funcsByName[f.Name]; dup {
		panic(fmt.Sprintf("ir: duplicate function %q", f.Name))
	}
	f.module = m
	m.Functions = append(m.Functions, f)
	f.idx = len(m.Functions)
	m.funcsByName[f.Name] = f
	return f
}

// SourceFiles returns the sorted set of source files functions are
// attributed to; ACES filename partitioning iterates this.
func (m *Module) SourceFiles() []string {
	seen := make(map[string]bool)
	for _, f := range m.Functions {
		seen[f.File] = true
	}
	files := make([]string, 0, len(seen))
	for f := range seen {
		files = append(files, f)
	}
	sort.Strings(files)
	return files
}

// DataBytes returns the total size of all non-const globals — the
// denominator for the accessible-global-variables metric of Table 1.
func (m *Module) DataBytes() int {
	n := 0
	for _, g := range m.Globals {
		if !g.Const {
			n += g.Size()
		}
	}
	return n
}

// CodeBytes returns the total estimated code size of all functions.
func (m *Module) CodeBytes() int {
	n := 0
	for _, f := range m.Functions {
		n += f.CodeSize()
	}
	return n
}
