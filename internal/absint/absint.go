// Package absint is the OPEC toolchain's abstract-interpretation proof
// engine: an IR-level interval (value-range) analysis over virtual
// registers and non-escaping stack slots, joined at basic-block
// boundaries with widening, that classifies every static memory access
// of every operation against the operation's MPU plan as PROVEN (always
// admitted — a certificate records the justifying interval and region),
// REJECTED (provably denied — a compile-time vet error) or RUNTIME
// (dynamically adjudicated, the paper's baseline behavior).
//
// The interpreter consumes the certificates (mach.InstallProofs) to
// skip micro-TLB/MPU adjudication for proven accesses; the vet PROVE
// pass reports per-operation proof coverage. Soundness is argued in
// classify.go's RegionFile model and enforced dynamically on a
// mach.CheckParanoid machine, which double-checks every elided access.
//
// Scope of the memory model: the analysis tracks the contents of stack
// slots whose address never escapes their function (every use is the
// direct address of a load or store). A store through a wild pointer
// that happens to alias such a slot — writing another function's local
// without ever taking its address, undefined behavior in the source
// languages OPEC targets — is outside the model, as in the paper's own
// points-to analysis.
package absint

import (
	"opec/internal/ir"
)

// widenAfter is the number of times a block's input may be refined
// before joins widen growing cells straight to ⊤. Branch-condition
// refinement re-establishes loop bounds after widening, so precision
// for the common counted-loop idiom survives the jump.
const widenAfter = 4

// accessRec is one load/store observed during the final replay pass,
// with the abstract address at that program point.
type accessRec struct {
	in    *ir.Instr
	write bool
	addr  Interval
	size  int
}

// state is the abstract store at one program point: one interval per
// virtual register and one per tracked stack slot (both indexed by
// instruction ID; slot i is the content of the alloca with ID i).
type state struct {
	regs  []Interval
	slots []Interval
}

func newState(n int) *state {
	return &state{regs: make([]Interval, n), slots: make([]Interval, n)}
}

func (st *state) clone() *state {
	c := newState(len(st.regs))
	copy(c.regs, st.regs)
	copy(c.slots, st.slots)
	return c
}

// joinFrom joins o into st cell-wise, returning whether anything
// changed. With widen set, any growing cell jumps to ⊤ so the fixpoint
// terminates regardless of loop bounds.
func (st *state) joinFrom(o *state, widen bool) bool {
	changed := false
	joinCell := func(dst *Interval, src Interval) {
		j := dst.Join(src)
		if !j.Eq(*dst) {
			if widen {
				j = Top
			}
			if !j.Eq(*dst) {
				*dst = j
				changed = true
			}
		}
	}
	for i := range st.regs {
		joinCell(&st.regs[i], o.regs[i])
	}
	for i := range st.slots {
		joinCell(&st.slots[i], o.slots[i])
	}
	return changed
}

// evaluator analyzes one function under one operation's global
// addressing.
type evaluator struct {
	fn         *ir.Function
	globalAddr func(*ir.Global) (uint32, bool)
	params     map[*ir.Param]Interval
	stack      Interval // bounds of any frame address (⊤ when unknown)
	track      []bool   // trackable (non-escaping, word-addressed) allocas by ID
}

// analyzeFunc runs the interval fixpoint over fn and returns every
// load/store with its abstract address, in block/instruction order.
// globalAddr resolves a global operand to its address under the current
// operation (shadow copies make this operation-dependent); params is
// the domain's call-site argument summary (absent entries are ⊤); stack
// bounds every frame address (the interpreter refuses to establish a
// frame outside [StackLimit, StackTop), so the bound is machine-enforced
// rather than assumed).
func analyzeFunc(fn *ir.Function, globalAddr func(*ir.Global) (uint32, bool), params map[*ir.Param]Interval, stack Interval) []accessRec {
	n := fn.NumRegs()
	e := &evaluator{fn: fn, globalAddr: globalAddr, params: params, stack: stack, track: trackableSlots(fn, n)}

	entry := fn.Entry()
	if entry == nil {
		return nil
	}
	widenAt := backEdgeTargets(entry)
	in := map[*ir.Block]*state{entry: newState(n)}
	visits := map[*ir.Block]int{}
	work := []*ir.Block{entry}
	queued := map[*ir.Block]bool{entry: true}

	flow := func(succ *ir.Block, st *state) {
		cur := in[succ]
		changed := false
		if cur == nil {
			in[succ] = st.clone()
			changed = true
		} else {
			changed = cur.joinFrom(st, widenAt[succ] && visits[succ] >= widenAfter)
		}
		if changed && !queued[succ] {
			queued[succ] = true
			work = append(work, succ)
		}
	}

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		visits[b]++
		st := in[b].clone()
		for _, instr := range b.Instrs {
			e.transfer(st, instr, nil)
		}
		switch b.Term.Op {
		case ir.TermBr:
			flow(b.Term.Succs[0], st)
		case ir.TermCondBr:
			tSt := st.clone()
			e.refine(b, tSt, true)
			e.refine(b, st, false)
			flow(b.Term.Succs[0], tSt)
			flow(b.Term.Succs[1], st)
		}
	}

	// Final replay over the converged states, recording access
	// intervals. Blocks that never received a state are unreachable
	// from the entry; their accesses never execute but still count as
	// static accesses — conservatively RUNTIME (⊤ address).
	var recs []accessRec
	for _, b := range fn.Blocks {
		st := in[b]
		if st == nil {
			for _, instr := range b.Instrs {
				switch instr.Op {
				case ir.OpLoad:
					recs = append(recs, accessRec{in: instr, addr: Top, size: instr.Typ.Size()})
				case ir.OpStore:
					recs = append(recs, accessRec{in: instr, write: true, addr: Top, size: instr.Typ.Size()})
				}
			}
			continue
		}
		st = st.clone()
		for _, instr := range b.Instrs {
			e.transfer(st, instr, &recs)
		}
	}
	return recs
}

// backEdgeTargets returns the blocks targeted by a DFS back edge. Every
// cycle in the CFG contains at least one such edge, so widening only at
// these blocks still guarantees fixpoint termination — while joins at
// all other blocks (in particular loop bodies, whose input carries the
// branch-refined loop bound) stay precise.
func backEdgeTargets(entry *ir.Block) map[*ir.Block]bool {
	targets := map[*ir.Block]bool{}
	const (
		onStack = 1
		done    = 2
	)
	color := map[*ir.Block]int{entry: onStack}
	type frame struct {
		b *ir.Block
		i int
	}
	stack := []frame{{b: entry}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := f.b.Term.Succs
		if f.i < len(succs) {
			s := succs[f.i]
			f.i++
			switch color[s] {
			case 0:
				color[s] = onStack
				stack = append(stack, frame{b: s})
			case onStack:
				targets[s] = true
			}
			continue
		}
		color[f.b] = done
		stack = stack[:len(stack)-1]
	}
	return targets
}

// trackableSlots marks the allocas whose value is only ever used as the
// direct address operand of a load or store — their contents cannot be
// observed or clobbered through any alias, so the analysis may track
// them flow-sensitively.
func trackableSlots(fn *ir.Function, n int) []bool {
	track := make([]bool, n)
	fn.Instructions(func(_ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpAlloca {
			track[in.ID()] = true
		}
	})
	kill := func(v ir.Value) {
		if a, ok := v.(*ir.Instr); ok && a.Op == ir.OpAlloca {
			track[a.ID()] = false
		}
	}
	fn.Instructions(func(_ *ir.Block, in *ir.Instr) {
		for i, a := range in.Args {
			if i == 0 && (in.Op == ir.OpLoad || in.Op == ir.OpStore) {
				continue // direct address use: fine
			}
			kill(a)
		}
	})
	for _, b := range fn.Blocks {
		if b.Term.Cond != nil {
			kill(b.Term.Cond)
		}
		if b.Term.Val != nil {
			kill(b.Term.Val)
		}
	}
	return track
}

// trackedSlot returns the slot ID when v is a tracked alloca address.
func (e *evaluator) trackedSlot(v ir.Value) (int, bool) {
	if a, ok := v.(*ir.Instr); ok && a.Op == ir.OpAlloca && e.track[a.ID()] {
		return a.ID(), true
	}
	return 0, false
}

// operand evaluates one instruction operand to an interval.
func (e *evaluator) operand(st *state, v ir.Value) Interval {
	switch v := v.(type) {
	case ir.Const:
		return Exact(v.V)
	case *ir.Instr:
		return st.regs[v.ID()]
	case *ir.Global:
		if a, ok := e.globalAddr(v); ok {
			return Exact(a)
		}
	case *ir.Param:
		if iv, ok := e.params[v]; ok {
			return iv
		}
	}
	// Unsummarized params, function addresses, anything else: unknown.
	return Top
}

// transfer interprets one instruction abstractly. When rec is non-nil
// (the final replay) every load/store appends its access record.
func (e *evaluator) transfer(st *state, in *ir.Instr, rec *[]accessRec) {
	switch in.Op {
	case ir.OpBin:
		st.regs[in.ID()] = binOp(in.Kind, e.operand(st, in.Args[0]), e.operand(st, in.Args[1]))

	case ir.OpLoad:
		size := in.Typ.Size()
		if rec != nil {
			*rec = append(*rec, accessRec{in: in, addr: e.operand(st, in.Args[0]), size: size})
		}
		v := Top
		if s, ok := e.trackedSlot(in.Args[0]); ok {
			v = st.slots[s]
		}
		// A narrow load can only produce values of its width.
		if size < 4 && (!v.Known || v.Hi > maxOf(size)) {
			v = Range(0, maxOf(size))
		}
		st.regs[in.ID()] = v

	case ir.OpStore:
		size := in.Typ.Size()
		if rec != nil {
			*rec = append(*rec, accessRec{in: in, write: true, addr: e.operand(st, in.Args[0]), size: size})
		}
		if s, ok := e.trackedSlot(in.Args[0]); ok {
			if size == 4 {
				st.slots[s] = e.operand(st, in.Args[1])
			} else {
				st.slots[s] = Top // partial update: untracked residue
			}
		}

	case ir.OpAlloca:
		// The slot's exact address is runtime stack state, but it always
		// lies within the domain's stack bounds — which is enough to
		// prove reads (the stack region and the SRD fall-through both
		// admit unprivileged reads), while writes stay dynamic (a
		// gate-disabled sub-region falls through to the read-only
		// background map).
		st.regs[in.ID()] = e.stack

	case ir.OpFieldAddr:
		st.regs[in.ID()] = binOp(ir.Add, e.operand(st, in.Args[0]), Exact(uint32(in.Off)))

	case ir.OpIndexAddr:
		off := binOp(ir.Mul, e.operand(st, in.Args[1]), Exact(uint32(in.Off)))
		st.regs[in.ID()] = binOp(ir.Add, e.operand(st, in.Args[0]), off)

	case ir.OpCall, ir.OpICall, ir.OpSvc:
		// Tracked slots never escape, so callees (and IRQ handlers
		// dispatched at block boundaries) cannot alter them.
		st.regs[in.ID()] = Top
	}
}

// refine narrows the state along one edge of a conditional branch whose
// condition is a comparison against a constant: the register is always
// refined (single assignment), and the stack slot it was loaded from is
// refined too when no store to that slot intervenes between the load
// and the branch within the same block.
func (e *evaluator) refine(b *ir.Block, st *state, taken bool) {
	c, ok := b.Term.Cond.(*ir.Instr)
	if !ok || c.Op != ir.OpBin {
		return
	}
	k := c.Kind
	var v ir.Value
	var cv uint32
	if yc, ok := c.Args[1].(ir.Const); ok {
		v, cv = c.Args[0], yc.V
	} else if xc, ok := c.Args[0].(ir.Const); ok {
		v, cv = c.Args[1], xc.V
		k = flipCmp(k)
	} else {
		return
	}
	lo, hi, ok := cmpBounds(k, cv, taken)
	if !ok {
		return
	}
	vi, ok := v.(*ir.Instr)
	if !ok {
		return
	}
	st.regs[vi.ID()] = st.regs[vi.ID()].Meet(lo, hi)
	if vi.Op == ir.OpLoad && vi.Typ.Size() == 4 && vi.Block() == b {
		if s, ok := e.trackedSlot(vi.Args[0]); ok && !storedBetween(b, vi, s) {
			st.slots[s] = st.slots[s].Meet(lo, hi)
		}
	}
}

// storedBetween reports whether block b stores to slot s after the
// instruction from (the refinement-validity check).
func storedBetween(b *ir.Block, from *ir.Instr, s int) bool {
	seen := false
	for _, in := range b.Instrs {
		if in == from {
			seen = true
			continue
		}
		if !seen || in.Op != ir.OpStore {
			continue
		}
		if a, ok := in.Args[0].(*ir.Instr); ok && a.Op == ir.OpAlloca && a.ID() == s {
			return true
		}
	}
	return false
}

// flipCmp mirrors a comparison for a constant left operand:
// const ⋈ x becomes x ⋈' const.
func flipCmp(k ir.BinKind) ir.BinKind {
	switch k {
	case ir.Lt:
		return ir.Gt
	case ir.Le:
		return ir.Ge
	case ir.Gt:
		return ir.Lt
	case ir.Ge:
		return ir.Le
	}
	return k // Eq, Ne are symmetric
}

// cmpBounds returns the interval implied for x by "x ⋈ cv" being taken
// (or not taken). ok is false when the edge implies nothing (Ne taken)
// or is arithmetically impossible (x < 0).
func cmpBounds(k ir.BinKind, cv uint32, taken bool) (lo, hi uint32, ok bool) {
	const max = ^uint32(0)
	switch k {
	case ir.Lt:
		if taken {
			if cv == 0 {
				return 0, 0, false
			}
			return 0, cv - 1, true
		}
		return cv, max, true
	case ir.Le:
		if taken {
			return 0, cv, true
		}
		if cv == max {
			return 0, 0, false
		}
		return cv + 1, max, true
	case ir.Gt:
		if taken {
			if cv == max {
				return 0, 0, false
			}
			return cv + 1, max, true
		}
		return 0, cv, true
	case ir.Ge:
		if taken {
			return cv, max, true
		}
		if cv == 0 {
			return 0, 0, false
		}
		return 0, cv - 1, true
	case ir.Eq:
		if taken {
			return cv, cv, true
		}
	case ir.Ne:
		if !taken {
			return cv, cv, true
		}
	}
	return 0, 0, false
}
