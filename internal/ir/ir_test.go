package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeSizes(t *testing.T) {
	cases := []struct {
		typ  Type
		want int
	}{
		{I8, 1},
		{I16, 2},
		{I32, 4},
		{Ptr(I8), 4},
		{Array(I8, 16), 16},
		{Array(I32, 5), 20},
		{Struct("s", Field{"a", I32}, Field{"b", I8}), 8}, // rounds up to word
		{Struct("t", Field{"a", I32}, Field{"b", I32}), 8},
		{Array(Struct("u", Field{"p", Ptr(I32)}, Field{"n", I32}), 3), 24},
		{Void, 0},
	}
	for _, c := range cases {
		if got := c.typ.Size(); got != c.want {
			t.Errorf("%s.Size() = %d, want %d", c.typ, got, c.want)
		}
	}
}

func TestStructOffsets(t *testing.T) {
	st := Struct("uart", Field{"SR", I32}, Field{"DR", I32}, Field{"BRR", I32})
	if off := st.Offset("DR"); off != 4 {
		t.Errorf("Offset(DR) = %d, want 4", off)
	}
	if off := st.Offset("BRR"); off != 8 {
		t.Errorf("Offset(BRR) = %d, want 8", off)
	}
	if ft := st.FieldType("SR"); ft != Type(I32) {
		t.Errorf("FieldType(SR) = %v", ft)
	}
}

func TestPointerFieldOffsets(t *testing.T) {
	st := Struct("file",
		Field{"flags", I32},
		Field{"buf", Ptr(I8)},
		Field{"inner", Struct("hdr", Field{"next", Ptr(I32)}, Field{"len", I32})},
	)
	got := PointerFieldOffsets(st)
	want := []int{4, 8}
	if len(got) != len(want) {
		t.Fatalf("PointerFieldOffsets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("offset[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	arr := Array(Ptr(I8), 3)
	if got := PointerFieldOffsets(arr); len(got) != 3 || got[1] != 4 {
		t.Errorf("array of pointers offsets = %v", got)
	}
}

func TestSameSignature(t *testing.T) {
	a := FuncType{Params: []Type{I32, Ptr(I8)}, Ret: I32}
	b := FuncType{Params: []Type{I32, Ptr(I8)}, Ret: I32}
	if !SameSignature(a, b) {
		t.Error("identical signatures reported different")
	}
	c := FuncType{Params: []Type{I32, Ptr(I16)}, Ret: I32}
	if SameSignature(a, c) {
		t.Error("pointer element type should distinguish signatures")
	}
	d := FuncType{Params: []Type{I32, Ptr(I8)}, Ret: nil}
	if SameSignature(a, d) {
		t.Error("return type should distinguish signatures")
	}
	e := FuncType{Params: []Type{I32}, Ret: I32}
	if SameSignature(a, e) {
		t.Error("arity should distinguish signatures")
	}
	s1 := Struct("s1", Field{"x", I32})
	s2 := Struct("s2", Field{"x", I32})
	f1 := FuncType{Params: []Type{s1}, Ret: nil}
	f2 := FuncType{Params: []Type{s2}, Ret: nil}
	if SameSignature(f1, f2) {
		t.Error("named struct types should compare by name")
	}
}

func buildTinyModule() *Module {
	m := NewModule("tiny")
	g := m.AddGlobal(&Global{Name: "counter", Typ: I32})
	fb := NewFunc(m, "inc", "main.c", I32, P("by", I32))
	v := fb.Load(I32, g)
	sum := fb.Add(v, fb.Arg("by"))
	fb.Store(I32, g, sum)
	fb.Ret(sum)

	mb := NewFunc(m, "main", "main.c", nil)
	loop := mb.NewBlock("loop")
	done := mb.NewBlock("done")
	i := mb.Alloca(I32)
	mb.Store(I32, i, CI(0))
	mb.Br(loop)
	mb.SetBlock(loop)
	iv := mb.Load(I32, i)
	mb.Call(m.MustFunc("inc"), CI(2))
	next := mb.Add(iv, CI(1))
	mb.Store(I32, i, next)
	mb.CondBr(mb.Lt(next, CI(10)), loop, done)
	mb.SetBlock(done)
	mb.Halt()
	mb.RetVoid()
	return m
}

func TestBuilderAndVerify(t *testing.T) {
	m := buildTinyModule()
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if m.Func("inc") == nil || m.Func("main") == nil {
		t.Fatal("functions not registered")
	}
	if m.Global("counter") == nil {
		t.Fatal("global not registered")
	}
	if got := m.MustFunc("main").FrameLocalBytes(); got != 4 {
		t.Errorf("FrameLocalBytes = %d, want 4", got)
	}
	if m.DataBytes() != 4 {
		t.Errorf("DataBytes = %d, want 4", m.DataBytes())
	}
}

func TestVerifyCatchesUnterminated(t *testing.T) {
	m := NewModule("bad")
	fb := NewFunc(m, "f", "f.c", nil)
	fb.Add(CI(1), CI(2)) // no terminator
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "unterminated") {
		t.Fatalf("Verify = %v, want unterminated error", err)
	}
}

func TestVerifyCatchesArity(t *testing.T) {
	m := NewModule("bad")
	fb := NewFunc(m, "callee", "f.c", nil, P("a", I32))
	fb.RetVoid()
	g := NewFunc(m, "caller", "f.c", nil)
	// Bypass builder arity check to exercise the verifier.
	g.emit(&Instr{Op: OpCall, Fn: m.MustFunc("callee"), Args: nil})
	g.RetVoid()
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("Verify = %v, want arity error", err)
	}
}

func TestVerifyCatchesFunctionAddressStore(t *testing.T) {
	m := NewModule("bad")
	fb := NewFunc(m, "target", "f.c", nil)
	fb.RetVoid()
	g := NewFunc(m, "writer", "f.c", nil)
	g.Store(I32, m.MustFunc("target"), CI(0))
	g.RetVoid()
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "store to function address target") {
		t.Fatalf("Verify = %v, want function-address store error", err)
	}
}

func TestVerifyCatchesConstICall(t *testing.T) {
	m := NewModule("bad")
	fb := NewFunc(m, "f", "f.c", nil)
	fb.ICall(FuncType{}, CI(0x8000))
	fb.RetVoid()
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "icall through non-function constant 0x8000") {
		t.Fatalf("Verify = %v, want const icall error", err)
	}
}

func TestVerifyErrorOrderDeterministic(t *testing.T) {
	build := func() *Module {
		m := NewModule("bad")
		// Two independent problems in separate functions; the joined
		// message must come out sorted regardless of discovery order.
		zb := NewFunc(m, "zz_unterminated", "f.c", nil)
		zb.Add(CI(1), CI(2))
		ab := NewFunc(m, "aa_icall", "f.c", nil)
		ab.ICall(FuncType{}, CI(4))
		ab.RetVoid()
		return m
	}
	first := Verify(build()).Error()
	second := Verify(build()).Error()
	if first != second {
		t.Fatalf("Verify not deterministic:\n%s\nvs\n%s", first, second)
	}
	if !(strings.Index(first, "aa_icall") < strings.Index(first, "zz_unterminated")) {
		t.Errorf("Verify errors not sorted: %s", first)
	}
}

func TestVerifyCatchesBadGlobalInit(t *testing.T) {
	m := NewModule("bad")
	m.AddGlobal(&Global{Name: "g", Typ: I32, Init: []byte{1, 2}})
	fb := NewFunc(m, "f", "f.c", nil)
	fb.RetVoid()
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "init") {
		t.Fatalf("Verify = %v, want init size error", err)
	}
}

func TestPrintStable(t *testing.T) {
	m := buildTinyModule()
	out := Print(m)
	for _, want := range []string{
		"; module tiny",
		"@counter : i32 (4B)",
		"func inc(i32 %by) i32 ; file=main.c",
		"ret void",
		"halt",
		"condbr",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q\n%s", want, out)
		}
	}
	if out != Print(m) {
		t.Error("Print is not deterministic")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	m := NewModule("dup")
	m.AddGlobal(&Global{Name: "g", Typ: I32})
	defer func() {
		if recover() == nil {
			t.Error("duplicate global did not panic")
		}
	}()
	m.AddGlobal(&Global{Name: "g", Typ: I32})
}

func TestEmitIntoTerminatedBlockPanics(t *testing.T) {
	m := NewModule("t")
	fb := NewFunc(m, "f", "f.c", nil)
	fb.RetVoid()
	defer func() {
		if recover() == nil {
			t.Error("emit into terminated block did not panic")
		}
	}()
	fb.Add(CI(1), CI(2))
}

func TestCodeSizeMonotonic(t *testing.T) {
	m := NewModule("cs")
	small := NewFunc(m, "small", "f.c", nil)
	small.RetVoid()
	big := NewFunc(m, "big", "f.c", nil)
	for i := 0; i < 50; i++ {
		big.Add(CI(uint32(i)), CI(1))
	}
	big.RetVoid()
	if small.F.CodeSize() >= big.F.CodeSize() {
		t.Errorf("CodeSize: small=%d big=%d", small.F.CodeSize(), big.F.CodeSize())
	}
	if m.CodeBytes() != small.F.CodeSize()+big.F.CodeSize() {
		t.Error("module CodeBytes is not the sum of function sizes")
	}
}

// Property: struct size is always >= sum of field sizes and word-aligned.
func TestStructSizeProperty(t *testing.T) {
	f := func(widths []uint8) bool {
		if len(widths) == 0 {
			return true
		}
		fields := make([]Field, 0, len(widths))
		sum := 0
		for i, w := range widths {
			var typ Type
			switch w % 3 {
			case 0:
				typ = I8
			case 1:
				typ = I16
			default:
				typ = I32
			}
			sum += typ.Size()
			fields = append(fields, Field{Name: string(rune('a' + i%26)), Typ: typ})
		}
		st := StructType{Fields: fields}
		return st.Size() >= sum && st.Size()%4 == 0 && st.Size() < sum+4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ValueRange.Contains agrees with explicit comparison.
func TestValueRangeProperty(t *testing.T) {
	f := func(min, max, v uint32) bool {
		if min > max {
			min, max = max, min
		}
		r := ValueRange{Min: min, Max: max}
		return r.Contains(v) == (v >= min && v <= max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: PointerFieldOffsets of an N-pointer array has N strictly
// increasing word-spaced entries.
func TestPointerOffsetsProperty(t *testing.T) {
	f := func(n uint8) bool {
		size := int(n%64) + 1
		offs := PointerFieldOffsets(Array(Ptr(I8), size))
		if len(offs) != size {
			return false
		}
		for i, o := range offs {
			if o != i*4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Golden test: the printer's exact output for the tiny module, so
// incidental format drift is caught.
func TestPrintGolden(t *testing.T) {
	m := NewModule("golden")
	g := m.AddGlobal(&Global{Name: "v", Typ: I32, Critical: &ValueRange{Min: 0, Max: 9}})
	fb := NewFunc(m, "bump", "g.c", I32, P("by", I32))
	v := fb.Load(I32, g)
	s := fb.Add(v, fb.Arg("by"))
	fb.Store(I32, g, s)
	fb.Ret(s)

	const want = `; module golden
@v : i32 (4B) critical[0,9]

func bump(i32 %by) i32 ; file=g.c
entry0:
  %v0 = load i32, @v
  %v1 = add %v0, %by
  store i32, @v <- %v1
  ret %v1
`
	if got := Print(m); got != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestVerifyOperandMessages pins the exact text of each operand error:
// Verify renders an operand's context only when it reports one, and the
// messages must read as they did when every context was rendered up
// front.
func TestVerifyOperandMessages(t *testing.T) {
	cases := []struct {
		name  string
		build func(m *Module)
		want  string
	}{
		{"nil operand", func(m *Module) {
			fb := NewFunc(m, "f", "f.c", nil)
			fb.Add(nil, CI(1))
			fb.RetVoid()
		}, "f/entry0: nil operand in instr %v0"},
		{"foreign parameter", func(m *Module) {
			g := NewFunc(m, "g", "g.c", nil, P("x", I32))
			g.RetVoid()
			fb := NewFunc(m, "f", "f.c", nil)
			fb.Store(I32, CI(0x20000000), g.Arg("x"))
			fb.RetVoid()
		}, "f/entry0: foreign parameter x in instr %v0"},
		{"operand from another function", func(m *Module) {
			g := NewFunc(m, "g", "g.c", nil)
			v := g.Mul(CI(6), CI(7))
			g.RetVoid()
			fb := NewFunc(m, "f", "f.c", nil)
			fb.Add(v, CI(1))
			fb.RetVoid()
		}, "f/entry0: operand from another function in instr %v0"},
		{"terminator operands", func(m *Module) {
			g := NewFunc(m, "g", "g.c", I32)
			v := g.Mul(CI(6), CI(7))
			g.Ret(v)
			fb := NewFunc(m, "f", "f.c", I32)
			then, els := fb.NewBlock("then"), fb.NewBlock("else")
			fb.CondBr(nil, then, els)
			fb.SetBlock(then)
			fb.Ret(v)
			fb.SetBlock(els)
			fb.Ret(CI(0))
		}, "f/entry0: nil operand in condbr condition\nf/then1: operand from another function in ret value"},
	}
	for _, c := range cases {
		m := NewModule("bad")
		c.build(m)
		err := Verify(m)
		if err == nil {
			t.Errorf("%s: Verify = nil", c.name)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: Verify =\n%q\nwant\n%q", c.name, err.Error(), c.want)
		}
	}
}

// TestGlobalIndex: AddGlobal gives each global its dense position in
// the module's list, as AddFunc does for functions; a global never
// registered reports -1.
func TestGlobalIndex(t *testing.T) {
	m := NewModule("idx")
	for i, name := range []string{"a", "b", "c"} {
		g := m.AddGlobal(&Global{Name: name, Typ: I32})
		if g.Index() != i || m.Globals[g.Index()] != g {
			t.Errorf("%s: Index() = %d, want %d", name, g.Index(), i)
		}
	}
	if got := (&Global{Name: "loose", Typ: I32}).Index(); got != -1 {
		t.Errorf("unregistered global: Index() = %d, want -1", got)
	}
}
