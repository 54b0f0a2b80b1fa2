package mach

import (
	"reflect"
	"testing"
)

// stateComponents pairs each stateful component with the state struct
// it embeds: everything a checkpoint captures and Restore assigns back.
var stateComponents = []struct {
	component, state reflect.Type
}{
	{reflect.TypeOf(Machine{}), reflect.TypeOf(cpuState{})},
	{reflect.TypeOf(ffState{}), reflect.TypeOf(ffCounts{})},
	{reflect.TypeOf(Clock{}), reflect.TypeOf(clockState{})},
	{reflect.TypeOf(Bus{}), reflect.TypeOf(busState{})},
	{reflect.TypeOf(MPU{}), reflect.TypeOf(mpuState{})},
	{reflect.TypeOf(PMP{}), reflect.TypeOf(pmpState{})},
}

// notState lists every other field of those components with the reason
// a checkpoint leaves it out.
var notState = map[string]string{
	"Machine.Mod":        "wiring: the program, fixed at NewMachine",
	"Machine.Bus":        "wiring: a component with its own state struct",
	"Machine.Clock":      "wiring: a component with its own state struct",
	"Machine.Handlers":   "wiring: the scheme runtime's hooks, set at boot",
	"Machine.GlobalAddr": "wiring: the scheme runtime's global resolver, set at boot",
	"Machine.metaByIdx":  "wiring: per-function layout fixed at NewMachine; the certificate rows are captured as Snapshot.certs",
	"Machine.lateMeta":   "derived: layout of late-registered functions, rebuilt on demand",
	"Machine.funcAt":     "wiring: code-address table fixed at NewMachine",
	"Machine.MaxCycles":  "run configuration: the cycle budget, set per run",
	"Machine.irqs":       "wiring: IRQ bindings made at boot",
	"Machine.inj":        "run attachment: the armed injection, cleared by Restore",
	"Machine.frames":     "derived: host activation records; invalidateDerived resets their nominal sizes",
	"Machine.Trace":      "run attachment: the event bus, cleared by Restore",
	"Machine.CovEvents":  "run configuration: coverage events, set per run",
	"Machine.traceIDs":   "derived: name ids interned by AttachTrace",
	"Machine.watch":      "run attachment: the store watch, cleared by Restore",
	"Machine.exceptions": "derived: fast-forward witness input, only ever compared within one loop window",
	"Machine.ff":         "a component with its own state struct (ffState)",
	"ffState.log":        "derived: the fast-forward's device-read log, dropped by invalidateDerived",
	"Bus.MPU":            "wiring: a component with its own state struct",
	"Bus.Clock":          "wiring: a component with its own state struct",
	"Bus.Prot":           "wiring: the active protection unit (MPU or PMP), chosen at boot",
	"Bus.flash":          "memory: captured as a copy-on-write page set",
	"Bus.sram":           "memory: captured as a copy-on-write page set",
	"Bus.devices":        "wiring: the attached devices; their state is captured through Stateful",
	"Bus.lastDev":        "derived: last-device cache, dropped by invalidateDerived",
	"Bus.lastBase":       "derived: last-device cache, dropped by invalidateDerived",
	"Bus.lastEnd":        "derived: last-device cache, dropped by invalidateDerived",
	"Bus.noDevCache":     "run configuration: DisableCaches at NewBus",
	"Bus.rawWatch":       "run attachment: the raw-write watch, cleared by Restore",
	"Bus.writes":         "derived: fast-forward witness input, only ever compared within one loop window",
	"Bus.horizons":       "derived: the fast-forward's live log pointer, dropped by invalidateDerived",
	"MPU.NoCache":        "run configuration: DisableCaches at NewBus",
	"MPU.Trace":          "run attachment: the event bus, cleared by Restore",
	"MPU.Clock":          "wiring: the clock that stamps MPU events",
	"MPU.tlb":            "derived: micro-TLB entries, erased by invalidateDerived",
}

// TestStateFieldsAccountedFor is the completeness check behind
// Snapshot/Restore: every field of a stateful component is inside its
// state struct or listed in notState. A new field, or one moved out of
// its state struct, fails here until it is placed.
func TestStateFieldsAccountedFor(t *testing.T) {
	listed := map[string]bool{}
	for _, c := range stateComponents {
		embeds := false
		for i := 0; i < c.component.NumField(); i++ {
			f := c.component.Field(i)
			if f.Anonymous && f.Type == c.state {
				embeds = true
				continue
			}
			key := c.component.Name() + "." + f.Name
			if notState[key] == "" {
				t.Errorf("%s is neither in %s nor listed in notState with a reason", key, c.state.Name())
			}
			listed[key] = true
		}
		if !embeds {
			t.Errorf("%s does not embed its state struct %s", c.component.Name(), c.state.Name())
		}
		if p := firstReference(c.state); p != "" {
			t.Errorf("%s holds a reference (%s): a snapshot copies it by value, so it would alias the live machine", c.state.Name(), p)
		}
	}
	for key := range notState {
		if !listed[key] {
			t.Errorf("notState lists %s, which is not a field", key)
		}
	}
}

// firstReference returns the path to the first reference inside t, or
// "" when t is plain data.
func firstReference(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
		return t.String()
	case reflect.Array:
		return firstReference(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := firstReference(t.Field(i).Type); p != "" {
				return t.Field(i).Name + ": " + p
			}
		}
	}
	return ""
}
