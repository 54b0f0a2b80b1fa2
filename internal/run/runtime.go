package run

import (
	"opec/internal/aces"
	"opec/internal/image"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/trace"
)

// runtime is the scheme half of a booted instance — the OPEC monitor,
// the ACES runtime or the bare vanilla image — as Context drives it.
// The monitor and the ACES runtime bring Run and AttachTrace
// themselves.
type runtime interface {
	// Run executes main.
	Run() error
	// AttachTrace connects the runtime and its machine to buf; nil
	// disconnects them.
	AttachTrace(buf *trace.Buffer)

	// machine is the machine the runtime booted.
	machine() *mach.Machine
	// setPolicy selects the recovery policy, where the scheme has one.
	setPolicy(pol monitor.Policy)
	// checkpoint captures the runtime's own state, beside the machine
	// snapshot, and returns the function that rewinds to it.
	checkpoint() (restore func())
	// where names the executing domain ("" when the scheme has none).
	where() string
	// result sets the scheme's fields of a Result.
	result(res *Result)
}

type opecRuntime struct{ *monitor.Monitor }

func (r opecRuntime) machine() *mach.Machine       { return r.M }
func (r opecRuntime) setPolicy(pol monitor.Policy) { r.Policy = pol }
func (r opecRuntime) where() string                { return "operation " + r.Current().Name }
func (r opecRuntime) result(res *Result)           { res.Mon, res.Build = r.Monitor, r.B }

func (r opecRuntime) checkpoint() func() {
	s := r.Snapshot()
	return func() { r.Restore(s) }
}

type acesRuntime struct{ *aces.Runtime }

func (r acesRuntime) machine() *mach.Machine   { return r.M }
func (r acesRuntime) setPolicy(monitor.Policy) {}
func (r acesRuntime) where() string            { return "compartment " + r.Current().Name }
func (r acesRuntime) result(res *Result)       { res.ACES, res.ABld = r.Runtime, r.B }

func (r acesRuntime) checkpoint() func() {
	s := r.Snapshot()
	return func() { r.Restore(s) }
}

// vanillaRuntime is the baseline image on its machine; it keeps no
// state beside the machine's.
type vanillaRuntime struct {
	van *image.Vanilla
	m   *mach.Machine
}

func (r vanillaRuntime) AttachTrace(buf *trace.Buffer) { r.m.AttachTrace(buf) }
func (r vanillaRuntime) machine() *mach.Machine        { return r.m }
func (r vanillaRuntime) setPolicy(monitor.Policy)      {}
func (r vanillaRuntime) where() string                 { return "" }
func (r vanillaRuntime) result(res *Result)            { res.Van = r.van }
func (r vanillaRuntime) checkpoint() func()            { return func() {} }

func (r vanillaRuntime) Run() error {
	_, err := r.m.Run(r.van.Mod.MustFunc("main"))
	return err
}
