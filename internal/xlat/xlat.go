// Package xlat is the threaded-code execution backend: it translates
// each ir.Function ahead of time into specialized Go closures and runs
// those instead of the interpreter's per-instruction switch.
//
// The translation unit is the basic block. Operand access is resolved
// at translation time (constants and code addresses become immediates,
// register and argument slots become direct indices, alloca results
// become frame offsets), runs of side-effect-free instructions are
// fused into superinstructions — flat micro-op arrays executed under a
// single batched cycle advance — and common shapes (compare+branch,
// load+modify+store, argument-marshal+call) get dedicated fused
// closures. Accesses carrying a static proof certificate bind directly
// to the adjudication-elided memory path, and every function is
// translated per privilege level, so the unprivileged variant never
// re-tests the privilege bit.
//
// The backend is cycle- and trace-exact against the interpreter, which
// stays in the tree as the differential oracle: every architected
// effect (memory routing, fault handling, gate dispatch, IRQ delivery,
// injection triggers, trace emission, counters) goes through the same
// mach primitives via mach.Env, and the clock is advanced by exactly
// the interpreter's per-instruction costs — batched across unobservable
// stretches, flushed before anything that can observe it. While an
// injection is armed the engine drops to a per-instruction exact path,
// so campaign trials fire at the same instruction boundary either way.
//
// Translations are cached per (function, privilege, certificate row).
// The certificate row is keyed by slice identity: InstallProofs swaps
// whole immutable rows, so clearing certificates (the campaign Arm
// hook) or reinstating them (Restore) re-keys to a different variant
// instead of running a stale fused path — the translation-cache
// analogue of the MPU micro-TLB's generation bump.
package xlat

import (
	"opec/internal/ir"
	"opec/internal/mach"
)

// Engine implements mach.Backend. One engine serves one machine: code
// addresses are resolved against the machine at translation time, and
// the cache is not safe for concurrent machines.
type Engine struct {
	// funcs is the translation cache, indexed by ir.Function.Index().
	funcs []*variants
}

// New returns an empty engine; functions translate on first execution.
func New() *Engine { return &Engine{} }

// Name identifies the backend for run.Options selection.
func (en *Engine) Name() string { return "xlat" }

// variants holds one function's translations, one per (privilege,
// certificate row) pair seen at activation entry. fn guards the index
// slot against collisions with functions from other modules.
type variants struct {
	fn   *ir.Function
	list []*prog
}

// Exec translates on first use and runs the matching variant.
func (en *Engine) Exec(e *mach.Env) (uint32, error) {
	fn := e.Func()
	idx := fn.Index()
	if idx < 0 {
		// Unregistered (test-harness) function: no stable cache key.
		return e.Interp()
	}
	if idx >= len(en.funcs) {
		grown := make([]*variants, idx+1)
		copy(grown, en.funcs)
		en.funcs = grown
	}
	vs := en.funcs[idx]
	if vs == nil {
		vs = &variants{fn: fn}
		en.funcs[idx] = vs
	} else if vs.fn != fn {
		// Index collision with another module's function: the slot
		// keeps its first claimant, the straggler interprets.
		return e.Interp()
	}
	priv, certs := e.Privileged(), e.Certs()
	for _, p := range vs.list {
		if p.priv == priv && sameRow(p.certs, certs) {
			return p.run(e)
		}
	}
	p := translate(e, fn, priv, certs)
	vs.list = append(vs.list, p)
	return p.run(e)
}

// sameRow compares certificate rows by identity. Rows are immutable
// after InstallProofs, so pointer identity is the correct (and cheap)
// re-keying test: a cleared table (nil) and a reinstated boot table
// (the original row pointers) select different variants.
func sameRow(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// stepFn executes one block-body superinstruction.
type stepFn func(e *mach.Env) error

// termFn executes a block terminator: next block index, or the
// activation's return value when done.
type termFn func(e *mach.Env) (next int, ret uint32, done bool, err error)

// block is one translated basic block.
type block struct {
	steps []stepFn
	term  termFn
}

// paramCopy records one register-passed parameter pooled into the
// extended register file at activation entry.
type paramCopy struct {
	slot uint16 // extended-file index
	idx  uint8  // parameter index (< 4)
}

// regFile is the extended register file size of every translated
// activation. Pure operands are resolved to indices into it: slots
// [0, base) are the function's own virtual registers, slots past base
// hold the variant's constant pool (immediates, code addresses, field
// offsets) and pooled copies of the register-passed parameters,
// installed once at activation entry. The fixed size is what lets the
// micro-op loop run against a *[regFile]uint32 window with uint8
// indices — provably in-bounds, so the inner loop carries no bounds
// checks. Functions whose registers plus pool exceed it fall back to
// the interpreter.
const regFile = 256

// prog is one translated function variant.
type prog struct {
	priv   bool
	certs  []byte
	interp bool // untranslatable: fall back to the interpreter
	base   int  // fn.NumRegs(): first extended slot
	ext    []uint32
	params []paramCopy
	blocks []block
}

// run drives the translated block graph with the interpreter's exact
// structure: block-boundary tick (cycle budget + IRQ delivery), body
// steps with innermost-frame error location, then the terminator.
func (p *prog) run(e *mach.Env) (uint32, error) {
	if p.interp {
		return e.Interp()
	}
	regs := e.RegsN(regFile)
	if len(p.ext) > 0 {
		copy(regs[p.base:], p.ext)
		for _, pc := range p.params {
			regs[pc.slot] = e.Args()[pc.idx]
		}
	}
	bi, loops := 0, 0
	for {
		if err := e.Tick(); err != nil {
			return 0, err // unwrapped, as exec treats tick errors
		}
		e.Block(bi)
		b := &p.blocks[bi]
		for _, s := range b.steps {
			if err := s(e); err != nil {
				return 0, e.Locate(err)
			}
		}
		next, ret, done, err := b.term(e)
		if err != nil {
			return 0, e.Locate(err)
		}
		if done {
			return ret, nil
		}
		if next == bi {
			loops = e.LoopBack(loops)
		} else {
			loops = 0
		}
		bi = next
	}
}
