package aces

import (
	"testing"

	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/testprog"
)

// TestCompartmentTableMatchesMap checks the boot-time compartment table
// against the map it replaces: every function of the module, a
// function never registered with a module (index -1) and one
// registered with another module at an index the table holds must all
// resolve as Build.CompOf does.
func TestCompartmentTableMatchesMap(t *testing.T) {
	for _, strat := range []Strategy{Filename, FilenameNoOpt, Peripheral} {
		b, err := Compile(testprog.PinLockLike(), mach.STM32F4Discovery(), strat)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := Boot(b, mach.NewBus(b.Board.FlashSize, b.Board.SRAMSize, &mach.Clock{}))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range b.Mod.Functions {
			if got, want := rt.compartment(f), b.CompOf[f]; got != want || got == nil {
				t.Errorf("%s: %s resolves to %v, map %v", strat, f.Name, got, want)
			}
		}
		other := ir.NewModule("other")
		foreign := ir.NewFunc(other, "main", "main.c", nil)
		foreign.RetVoid()
		for _, f := range []*ir.Function{{Name: "unregistered"}, foreign.F} {
			if got := rt.compartment(f); got != nil {
				t.Errorf("%s: %s (index %d) resolves to compartment %s, map has none", strat, f.Name, f.Index(), got.Name)
			}
		}
	}
}
