package ir

import (
	"errors"
	"fmt"
	"sort"
)

// Verify checks structural well-formedness of the module: every block
// is terminated, every branch target belongs to the same function,
// instruction operands are defined in the same function, call arities
// match, OpSvc wrappers reference real functions, stores never target a
// function address, and indirect calls never go through a non-function
// constant. It returns all problems found joined into one error, or
// nil; the error list is sorted, so the message is deterministic
// regardless of traversal order.
func Verify(m *Module) error {
	var errs []error
	for _, f := range m.Functions {
		if len(f.Blocks) == 0 {
			errs = append(errs, fmt.Errorf("%s: no blocks", f.Name))
			continue
		}
		blocks := make(map[*Block]bool, len(f.Blocks))
		for _, b := range f.Blocks {
			blocks[b] = true
		}
		defined := make(map[*Instr]bool)
		f.Instructions(func(_ *Block, in *Instr) { defined[in] = true })

		// checkVal checks one operand of in, or of the terminator named
		// by term when in is nil. The context is rendered only for an
		// error: most operands are fine, and rendering an instruction
		// costs more than checking it.
		checkVal := func(b *Block, v Value, in *Instr, term string) {
			ctx := func() string {
				if in != nil {
					return fmt.Sprintf("instr %s", in)
				}
				return term
			}
			switch v := v.(type) {
			case nil:
				errs = append(errs, fmt.Errorf("%s/%s: nil operand in %s", f.Name, b.Name, ctx()))
			case *Instr:
				if !defined[v] {
					errs = append(errs, fmt.Errorf("%s/%s: operand from another function in %s", f.Name, b.Name, ctx()))
				}
			case *Param:
				if v.fn != f {
					errs = append(errs, fmt.Errorf("%s/%s: foreign parameter %s in %s", f.Name, b.Name, v.Name, ctx()))
				}
			case Const, *Global, *Function:
				// Always valid operands.
			default:
				errs = append(errs, fmt.Errorf("%s/%s: unknown operand kind %T in %s", f.Name, b.Name, v, ctx()))
			}
		}

		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for _, a := range in.Args {
					checkVal(b, a, in, "")
				}
				switch in.Op {
				case OpCall:
					if in.Fn == nil {
						errs = append(errs, fmt.Errorf("%s/%s: call with nil target", f.Name, b.Name))
					} else if !in.Fn.Variadic && len(in.Args) != len(in.Fn.Params) {
						errs = append(errs, fmt.Errorf("%s/%s: call %s arity %d != %d",
							f.Name, b.Name, in.Fn.Name, len(in.Args), len(in.Fn.Params)))
					}
				case OpICall:
					if len(in.Args) == 0 {
						errs = append(errs, fmt.Errorf("%s/%s: icall without pointer", f.Name, b.Name))
					} else if len(in.Args)-1 != len(in.Sig.Params) && !in.Sig.Variadic {
						errs = append(errs, fmt.Errorf("%s/%s: icall arity %d != signature %d",
							f.Name, b.Name, len(in.Args)-1, len(in.Sig.Params)))
					}
				case OpSvc:
					if in.Fn == nil {
						errs = append(errs, fmt.Errorf("%s/%s: svc without operation entry", f.Name, b.Name))
					}
				case OpAlloca:
					if in.Off <= 0 {
						errs = append(errs, fmt.Errorf("%s/%s: alloca of %d bytes", f.Name, b.Name, in.Off))
					}
				case OpLoad, OpStore:
					if in.Typ == nil || in.Typ.Size() == 0 {
						errs = append(errs, fmt.Errorf("%s/%s: memory op without width", f.Name, b.Name))
					}
					if in.Op == OpStore && len(in.Args) > 0 {
						if fn, ok := in.Args[0].(*Function); ok {
							errs = append(errs, fmt.Errorf("%s/%s: store to function address %s", f.Name, b.Name, fn.Name))
						}
					}
				}
				if in.Op == OpICall && len(in.Args) > 0 {
					if c, ok := in.Args[0].(Const); ok {
						errs = append(errs, fmt.Errorf("%s/%s: icall through non-function constant %#x", f.Name, b.Name, c.V))
					}
				}
			}
			switch b.Term.Op {
			case TermNone:
				errs = append(errs, fmt.Errorf("%s/%s: unterminated block", f.Name, b.Name))
			case TermBr:
				if len(b.Term.Succs) != 1 || !blocks[b.Term.Succs[0]] {
					errs = append(errs, fmt.Errorf("%s/%s: bad br target", f.Name, b.Name))
				}
			case TermCondBr:
				if len(b.Term.Succs) != 2 || !blocks[b.Term.Succs[0]] || !blocks[b.Term.Succs[1]] {
					errs = append(errs, fmt.Errorf("%s/%s: bad condbr targets", f.Name, b.Name))
				}
				checkVal(b, b.Term.Cond, nil, "condbr condition")
			case TermRet:
				if f.Ret != nil && b.Term.Val == nil {
					errs = append(errs, fmt.Errorf("%s/%s: ret void from non-void function", f.Name, b.Name))
				}
				if b.Term.Val != nil {
					checkVal(b, b.Term.Val, nil, "ret value")
				}
			}
		}
	}
	for _, g := range m.Globals {
		if g.Init != nil && len(g.Init) != g.Size() {
			errs = append(errs, fmt.Errorf("global %s: init %d bytes for size %d", g.Name, len(g.Init), g.Size()))
		}
	}
	sort.SliceStable(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errors.Join(errs...)
}
