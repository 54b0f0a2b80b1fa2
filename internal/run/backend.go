package run

import (
	"fmt"
	"os"

	"opec/internal/mach"
	"opec/internal/xlat"
)

// Execution backend names (Options.Backend / OPEC_MACH_BACKEND).
const (
	// BackendInterp is the reference interpreter — the differential
	// oracle every other backend is checked against.
	BackendInterp = "interp"
	// BackendXlat is the threaded-code translation engine.
	BackendXlat = "xlat"
)

// DefaultBackend is the backend a Context forks on when
// Options.Backend is empty, read once when the Context boots and
// initialised from OPEC_MACH_BACKEND. Empty selects the interpreter.
var DefaultBackend = os.Getenv("OPEC_MACH_BACKEND")

// SetDefaultBackend validates and installs the process-wide default
// (the CLIs' -backend flag routes here).
func SetDefaultBackend(name string) error {
	switch name {
	case "", BackendInterp, BackendXlat:
		DefaultBackend = name
		return nil
	}
	return fmt.Errorf("run: unknown execution backend %q (want %s | %s)", name, BackendInterp, BackendXlat)
}

// attachBackend installs the named execution backend on a booted
// machine; an empty name selects the interpreter. Re-selecting the
// backend a machine already runs is a no-op, so boot-once/fork-many
// contexts keep their warm translation cache across trials.
func attachBackend(m *mach.Machine, name string) error {
	switch name {
	case "", BackendInterp:
		m.SetBackend(nil)
	case BackendXlat:
		if b := m.ExecBackend(); b != nil && b.Name() == BackendXlat {
			return nil
		}
		m.SetBackend(xlat.New())
	default:
		return fmt.Errorf("run: unknown execution backend %q (want %s | %s)", name, BackendInterp, BackendXlat)
	}
	return nil
}
