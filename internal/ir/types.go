// Package ir defines the typed intermediate representation that the OPEC
// compiler pipeline analyzes and the machine interpreter executes.
//
// The IR plays the role LLVM IR plays in the paper's prototype: programs
// (the HAL firmware library and the seven evaluated applications) are
// authored against it with the builder API, the static analyses in
// internal/analysis run over it, the partitioning and instrumentation
// passes in internal/core transform it, and internal/mach executes it with
// every memory access routed through the simulated bus and MPU.
//
// The IR is deliberately "unoptimized-LLVM"-shaped: locals are stack slots
// created by Alloca and accessed with explicit loads and stores, so stack
// isolation and the Figure 8 argument-relocation semantics are observable
// at the memory level rather than hidden in virtual registers.
package ir

import (
	"fmt"
	"strings"
)

// Type describes the storage layout of a value in simulated memory.
// All scalar values are at most one 32-bit machine word; aggregates
// (arrays and structs) exist only in memory and are manipulated through
// addresses.
type Type interface {
	// Size returns the storage size in bytes.
	Size() int
	String() string
}

// IntType is an integer of 8, 16 or 32 bits. The machine is 32-bit;
// narrower integers matter only for load/store width and layout.
type IntType struct {
	Bits int
}

func (t IntType) Size() int      { return t.Bits / 8 }
func (t IntType) String() string { return fmt.Sprintf("i%d", t.Bits) }

// Predefined scalar types.
var (
	I8  = IntType{8}
	I16 = IntType{16}
	I32 = IntType{32}
)

// PtrType is a 32-bit pointer to Elem.
type PtrType struct {
	Elem Type
}

func (t PtrType) Size() int      { return 4 }
func (t PtrType) String() string { return t.Elem.String() + "*" }

// Ptr returns the pointer type to elem.
func Ptr(elem Type) PtrType { return PtrType{Elem: elem} }

// ArrayType is a contiguous array of N elements.
type ArrayType struct {
	Elem Type
	N    int
}

func (t ArrayType) Size() int      { return t.Elem.Size() * t.N }
func (t ArrayType) String() string { return fmt.Sprintf("[%d x %s]", t.N, t.Elem) }

// Array returns the type of an n-element array of elem.
func Array(elem Type, n int) ArrayType { return ArrayType{Elem: elem, N: n} }

// Field is a named member of a StructType.
type Field struct {
	Name string
	Typ  Type
}

// StructType is a sequence of named fields laid out without padding
// beyond natural word alignment of the whole struct (field offsets are
// the running byte sums; the simulated machine tolerates unaligned
// scalar access, matching Cortex-M default behaviour).
type StructType struct {
	Name   string
	Fields []Field
}

func (t StructType) Size() int {
	n := 0
	for _, f := range t.Fields {
		n += f.Typ.Size()
	}
	// Round up to word size so arrays of structs keep word alignment.
	return (n + 3) &^ 3
}

func (t StructType) String() string {
	if t.Name != "" {
		return "%" + t.Name
	}
	parts := make([]string, len(t.Fields))
	for i, f := range t.Fields {
		parts[i] = f.Typ.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Offset returns the byte offset of the named field.
// It panics if the field does not exist; struct layouts are authored
// statically, so a miss is a programming error in the workload source.
func (t StructType) Offset(name string) int {
	off := 0
	for _, f := range t.Fields {
		if f.Name == name {
			return off
		}
		off += f.Typ.Size()
	}
	panic(fmt.Sprintf("ir: struct %s has no field %q", t.String(), name))
}

// FieldType returns the type of the named field.
func (t StructType) FieldType(name string) Type {
	for _, f := range t.Fields {
		if f.Name == name {
			return f.Typ
		}
	}
	panic(fmt.Sprintf("ir: struct %s has no field %q", t.String(), name))
}

// Struct returns a named struct type.
func Struct(name string, fields ...Field) StructType {
	return StructType{Name: name, Fields: fields}
}

// FuncType describes a function signature; used for indirect-call
// signature matching (the type-based icall analysis of Section 4.1).
type FuncType struct {
	Params   []Type
	Ret      Type // nil for void
	Variadic bool
}

func (t FuncType) Size() int { return 4 } // as a function pointer
func (t FuncType) String() string {
	parts := make([]string, len(t.Params))
	for i, p := range t.Params {
		parts[i] = p.String()
	}
	ret := "void"
	if t.Ret != nil {
		ret = t.Ret.String()
	}
	return fmt.Sprintf("%s(%s)", ret, strings.Join(parts, ", "))
}

// VoidType is the absent result type of a call.
type VoidType struct{}

func (VoidType) Size() int      { return 0 }
func (VoidType) String() string { return "void" }

// Void is the canonical void type.
var Void = VoidType{}

// PtrField describes one pointer-typed slot inside an aggregate: its
// byte offset and the type it points at. The monitor's deep-copy
// argument relocation (the paper's Section 5.2 future-work extension)
// uses the pointee type to size the nested buffer it must move.
type PtrField struct {
	Off  int
	Elem Type
}

// PointerFields returns every pointer-typed slot inside t with its
// pointee type, recursively through arrays and structs.
func PointerFields(t Type) []PtrField {
	var out []PtrField
	collectPointerFields(t, 0, &out)
	return out
}

func collectPointerFields(t Type, base int, out *[]PtrField) {
	switch t := t.(type) {
	case PtrType:
		*out = append(*out, PtrField{Off: base, Elem: t.Elem})
	case ArrayType:
		for i := 0; i < t.N; i++ {
			collectPointerFields(t.Elem, base+i*t.Elem.Size(), out)
		}
	case StructType:
		off := 0
		for _, f := range t.Fields {
			collectPointerFields(f.Typ, base+off, out)
			off += f.Typ.Size()
		}
	}
}

// PointerFieldOffsets returns the byte offsets of all pointer-typed
// scalar slots inside t, recursively, visiting every array element. The
// OPEC compiler records these for every external global at layout
// (core.Build.PtrFields) so the monitor can redirect pointer fields
// that point at another operation's shadow copies during an operation
// switch (Section 4.2 / 5.3) without walking the type again.
func PointerFieldOffsets(t Type) []int {
	var offs []int
	collectPointerOffsets(t, 0, &offs)
	return offs
}

func collectPointerOffsets(t Type, base int, offs *[]int) {
	switch t := t.(type) {
	case PtrType:
		*offs = append(*offs, base)
	case ArrayType:
		for i := 0; i < t.N; i++ {
			collectPointerOffsets(t.Elem, base+i*t.Elem.Size(), offs)
		}
	case StructType:
		off := 0
		for _, f := range t.Fields {
			collectPointerOffsets(f.Typ, base+off, offs)
			off += f.Typ.Size()
		}
	}
}

// SameSignature reports whether two signatures are identical under the
// paper's type-based icall matching rule: same number of arguments, same
// struct argument types, same pointer argument types, and same return
// type. Scalar integer arguments compare by width.
func SameSignature(a, b FuncType) bool {
	if len(a.Params) != len(b.Params) || a.Variadic != b.Variadic {
		return false
	}
	if !sameTypeForSig(a.Ret, b.Ret) {
		return false
	}
	for i := range a.Params {
		if !sameTypeForSig(a.Params[i], b.Params[i]) {
			return false
		}
	}
	return true
}

func sameTypeForSig(a, b Type) bool {
	if a == nil || b == nil {
		return (a == nil) == (b == nil)
	}
	switch at := a.(type) {
	case IntType:
		bt, ok := b.(IntType)
		return ok && at.Bits == bt.Bits
	case PtrType:
		bt, ok := b.(PtrType)
		return ok && sameTypeForSig(at.Elem, bt.Elem)
	case ArrayType:
		bt, ok := b.(ArrayType)
		return ok && at.N == bt.N && sameTypeForSig(at.Elem, bt.Elem)
	case StructType:
		bt, ok := b.(StructType)
		if !ok {
			return false
		}
		if at.Name != "" || bt.Name != "" {
			return at.Name == bt.Name
		}
		if len(at.Fields) != len(bt.Fields) {
			return false
		}
		for i := range at.Fields {
			if !sameTypeForSig(at.Fields[i].Typ, bt.Fields[i].Typ) {
				return false
			}
		}
		return true
	case FuncType:
		bt, ok := b.(FuncType)
		return ok && SameSignature(at, bt)
	case VoidType:
		_, ok := b.(VoidType)
		return ok
	}
	return false
}
