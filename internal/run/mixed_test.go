package run_test

import (
	"fmt"
	"math/rand"
	"testing"

	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/run"
)

// Random mixed workloads — bounded loops, the full binary-operator set,
// arrays, stack round-trips, spilled arguments — compiled under OPEC,
// whose proof engine certifies some of their accesses for elision. The
// seven evaluation apps are the paranoid sweep's other inputs
// (TestProofParanoidSweep); these programs reach operator, loop and
// call shapes the apps do not.

// genMixedProgram builds a random always-terminating program: long pure
// ALU runs, cmp+branch loop back-edges, load+op+store sequences, helper
// calls with spilled arguments.
func genMixedProgram(rng *rand.Rand) (*ir.Module, core.Config) {
	m := ir.NewModule("bfuzz")
	nGlobals := 2 + rng.Intn(5)
	var globals []*ir.Global
	for i := 0; i < nGlobals; i++ {
		globals = append(globals, m.AddGlobal(&ir.Global{
			Name: fmt.Sprintf("g%d", i), Typ: ir.I32,
			Init: []byte{byte(rng.Intn(256)), byte(rng.Intn(4)), 0, 0},
		}))
	}
	arr := m.AddGlobal(&ir.Global{Name: "arr", Typ: ir.Array(ir.I32, 8)})

	mix := ir.NewFunc(m, "mix", "util.c", ir.I32, ir.P("a", ir.I32), ir.P("b", ir.I32))
	mix.Ret(mix.Add(mix.Mul(mix.Arg("a"), ir.CI(31)), mix.Arg("b")))

	// Six parameters: the last two always travel through the simulated
	// stack, exercising the spilled-argument accessors on every call.
	wide := ir.NewFunc(m, "mix6", "util.c", ir.I32,
		ir.P("a", ir.I32), ir.P("b", ir.I32), ir.P("c", ir.I32),
		ir.P("d", ir.I32), ir.P("e", ir.I32), ir.P("f", ir.I32))
	{
		s := wide.Xor(wide.Arg("a"), wide.Arg("b"))
		s = wide.Add(s, wide.Mul(wide.Arg("c"), ir.CI(7)))
		s = wide.Xor(s, wide.Arg("d"))
		s = wide.Add(s, wide.Arg("e"))
		s = wide.Xor(s, wide.Arg("f"))
		wide.Ret(s)
	}

	ops := []ir.BinKind{
		ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or, ir.Xor,
		ir.Shl, ir.Shr, ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge,
	}

	nTasks := 1 + rng.Intn(4)
	var entries []string
	for t := 0; t < nTasks; t++ {
		name := fmt.Sprintf("task%d", t)
		entries = append(entries, name)
		fb := ir.NewFunc(m, name, fmt.Sprintf("task%d.c", t), nil)

		// A bounded counting loop per task: cmp+branch back-edge, a
		// random body of RMW steps inside.
		iters := 1 + rng.Intn(6)
		loop := fb.NewBlock("loop")
		done := fb.NewBlock("done")
		iSlot := fb.Alloca(ir.I32)
		fb.Store(ir.I32, iSlot, ir.CI(0))
		fb.Br(loop)
		fb.SetBlock(loop)
		iv := fb.Load(ir.I32, iSlot)

		steps := 1 + rng.Intn(5)
		for s := 0; s < steps; s++ {
			src := globals[rng.Intn(len(globals))]
			dst := globals[rng.Intn(len(globals))]
			v := fb.Load(ir.I32, src)
			switch rng.Intn(6) {
			case 0:
				// Load+op+store peephole shape with a random operator;
				// |1 keeps divide/shift operands well-behaved without
				// dodging the wraparound cases (they're deterministic).
				k := ops[rng.Intn(len(ops))]
				fb.Store(ir.I32, dst, fb.Bin(k, v, ir.CI(uint32(rng.Intn(100))|1)))
			case 1:
				// A long pure run: chained ALU ops before one store.
				a := fb.Add(v, iv)
				b := fb.Mul(a, ir.CI(uint32(1+rng.Intn(7))))
				c := fb.Xor(b, ir.CI(uint32(rng.Intn(1<<16))))
				d := fb.Shr(c, ir.CI(uint32(rng.Intn(33))))
				fb.Store(ir.I32, dst, fb.Or(d, ir.CI(1)))
			case 2:
				w := fb.Load(ir.I32, dst)
				fb.Store(ir.I32, dst, fb.Call(mix.F, v, w))
			case 3:
				w := fb.Load(ir.I32, dst)
				fb.Store(ir.I32, dst, fb.Call(wide.F, v, w, iv,
					ir.CI(uint32(rng.Intn(256))), w, v))
			case 4:
				// Array element addressed by a masked induction value.
				el := fb.Index(arr, ir.I32, fb.And(fb.Add(iv, v), ir.CI(7)))
				w := fb.Load(ir.I32, el)
				fb.Store(ir.I32, el, fb.Add(w, v))
				fb.Store(ir.I32, dst, w)
			case 5:
				slot := fb.Alloca(ir.I32)
				fb.Store(ir.I32, slot, v)
				fb.Store(ir.I32, dst, fb.Load(ir.I32, slot))
			}
		}

		nx := fb.Add(iv, ir.CI(1))
		fb.Store(ir.I32, iSlot, nx)
		fb.CondBr(fb.Lt(nx, ir.CI(uint32(iters))), loop, done)
		fb.SetBlock(done)
		fb.RetVoid()
	}

	mb := ir.NewFunc(m, "main", "main.c", nil)
	rounds := 1 + rng.Intn(3)
	for r := 0; r < rounds; r++ {
		for t := 0; t < nTasks; t++ {
			mb.Call(m.MustFunc(fmt.Sprintf("task%d", t)))
		}
	}
	mb.Halt()
	mb.RetVoid()

	return m, core.Config{Entries: entries}
}

// mixedObs is what a checked or paranoid run must leave as the plain
// run did.
type mixedObs struct {
	err     string
	cycles  uint64
	globals []uint32
	elided  uint64
}

func observeMixed(t *testing.T, res *run.Result, err error, m *ir.Module) mixedObs {
	t.Helper()
	o := mixedObs{}
	if err != nil {
		o.err = err.Error()
	}
	if res == nil {
		return o
	}
	o.cycles = res.Cycles
	for _, c := range res.Machine.Counters() {
		if c.Name == "mach.proofs.elided" {
			o.elided = c.Value
		}
	}
	for _, g := range m.Globals {
		addr, f := res.Machine.GlobalAddr(g, true)
		if f != nil {
			t.Fatalf("resolve %s: %v", g.Name, f)
		}
		v, f := res.Machine.Bus.RawLoad(addr, 4)
		if f != nil {
			t.Fatalf("read %s: %v", g.Name, f)
		}
		o.globals = append(o.globals, v)
	}
	return o
}

// TestDifferentialInterpVsXlat is the interpreter's differential over
// random mixed programs. Each of 250 seeds' OPEC build runs three ways:
// with proof elision; with elision disabled, so that the MPU
// adjudicates every access; and under ParanoidProofs, which re-checks
// every certified access against the MPU and panics on one it denies.
// The three runs must end alike in error text, cycles and final
// globals, and the sweep as a whole must have elided accesses to
// re-check. (The name dates from when these seeds also ran on a second,
// translating engine, which the interpreter was the reference for.)
func TestDifferentialInterpVsXlat(t *testing.T) {
	savedP, savedD := mach.ParanoidProofs, mach.DisableProofs
	defer func() { mach.ParanoidProofs, mach.DisableProofs = savedP, savedD }()
	board := mach.STM32F4Discovery()
	var elided uint64
	for seed := int64(0); seed < 250; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			opec := func(paranoid, noProofs bool) mixedObs {
				mach.ParanoidProofs, mach.DisableProofs = paranoid, noProofs
				m, cfg := genMixedProgram(rand.New(rand.NewSource(seed)))
				b, err := core.Compile(m, board, cfg)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				inst := &apps.Instance{
					Mod: m, Cfg: cfg, Board: board, Clk: &mach.Clock{},
					MaxCycles: 10_000_000,
				}
				res, rerr := run.OPECWith(inst, b, run.Options{})
				return observeMixed(t, res, rerr, m)
			}
			plain := opec(false, false)
			elided += plain.elided
			for _, other := range []struct {
				name string
				obs  mixedObs
			}{
				{"checked", opec(false, true)},
				{"paranoid", opec(true, false)},
			} {
				o := other.obs
				if plain.err != o.err {
					t.Errorf("err:\n  plain: %s\n  %s: %s", plain.err, other.name, o.err)
				}
				if plain.cycles != o.cycles {
					t.Errorf("cycles: plain=%d %s=%d", plain.cycles, other.name, o.cycles)
				}
				if len(plain.globals) != len(o.globals) {
					t.Fatalf("global count: plain %d, %s %d", len(plain.globals), other.name, len(o.globals))
				}
				for i := range plain.globals {
					if plain.globals[i] != o.globals[i] {
						t.Errorf("g%d: plain=%#x %s=%#x", i, plain.globals[i], other.name, o.globals[i])
					}
				}
			}
		})
	}
	if elided == 0 {
		t.Fatal("no seed elided an access: the sweep re-checked nothing")
	}
}
