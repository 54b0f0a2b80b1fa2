package debug

import (
	"fmt"
	"time"

	"opec/internal/apps"
	"opec/internal/inject"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/trace"
)

// Default checkpointer shape.
const (
	DefaultKeyframeEvery = 2000 // cycles between periodic keyframes
	DefaultMaxKeyframes  = 64   // held frames before decimation
)

// Config describes one debuggable run.
type Config struct {
	App *apps.App

	// Spec, when non-nil, debugs a fault-injection / fuzzing trial
	// instead of a clean run. WantSnapID, when set, must match the
	// rebuilt boot checkpoint's id — the '<snapid>@<spec>' replay
	// coordinate verification.
	Spec       *inject.Spec
	WantSnapID string

	Policy    monitor.Policy
	MaxCycles uint64

	KeyframeEvery uint64 // 0 = DefaultKeyframeEvery
	MaxKeyframes  int    // 0 = DefaultMaxKeyframes; 1 keeps only the boot frame
	TraceCap      int    // recording ring capacity (0 = trace default)

	// hook is a test seam: every execution calls it with its trace bus
	// before the run, and calls the observer it returns at the arming
	// point, after the session's own.
	hook func(*trace.Buffer) func(*mach.Machine)
}

// Session is one recorded, queryable run. New boots the workload under
// OPEC into a forge, records the run once with the checkpointer and
// indexed store attached, and keeps the forge's boot checkpoint alive
// so every query can re-execute the byte-identical run with its own
// observers. A Session is not safe for concurrent queries: each query
// re-executes on the session's one checkpoint and caches indexes in
// its store.
type Session struct {
	cfg Config

	forge *inject.Forge
	m     *mach.Machine // the booted machine (symbol resolution)

	store *Store
	keys  *Keyframer

	// Recorded outcome.
	Outcome *inject.Outcome // spec runs
	RunErr  string          // clean runs: the run error or failed check, if any
	Cycles  uint64

	queries, queryNS, reexecs uint64
}

// New boots cfg's workload and records its run.
func New(cfg Config) (*Session, error) {
	if cfg.App == nil {
		return nil, fmt.Errorf("debug: no workload")
	}
	if cfg.MaxKeyframes < 0 {
		return nil, fmt.Errorf("debug: max keyframes %d is negative (want 0 for the default of %d, or a bound of 1 or more)",
			cfg.MaxKeyframes, DefaultMaxKeyframes)
	}
	forge, err := inject.NewForge(cfg.App)
	if err != nil {
		return nil, err
	}
	s := &Session{cfg: cfg, forge: forge}
	if cfg.WantSnapID != "" && s.SnapshotID() != cfg.WantSnapID {
		return nil, fmt.Errorf("debug: snapshot id mismatch: rebuilt checkpoint is %s, coordinate names %s (different workload scale or build?)",
			s.SnapshotID(), cfg.WantSnapID)
	}
	if err := s.record(); err != nil {
		return nil, err
	}
	return s, nil
}

// SnapshotID identifies the boot checkpoint every execution forks
// from; with the spec it forms the replay coordinate.
func (s *Session) SnapshotID() string { return s.forge.SnapshotID() }

// record performs the one recorded run: indexed store + checkpointer
// attached, machine captured for symbol resolution. The keyframes are
// sealed when the run ends.
func (s *Session) record() error {
	buf := trace.NewBuffer(s.cfg.TraceCap)
	s.store = NewStore(buf)
	s.keys = &Keyframer{Every: s.cfg.KeyframeEvery, Max: s.cfg.MaxKeyframes}
	buf.Attach(s.keys)
	out, err := s.execute(buf, func(m *mach.Machine) {
		s.m = m
		s.keys.Bind(m)
	})
	if err != nil {
		return err
	}
	s.Cycles = out.Cycles
	if s.cfg.Spec != nil {
		s.Outcome = &out
	} else {
		s.RunErr = out.Err
	}
	s.keys.seal()
	return s.store.Finish()
}

// execute performs one deterministic execution of the configured run
// with buf attached and observe bound at the arming point. Every call
// replays the byte-identical event stream — the fork-engine invariant
// the whole debugger rests on.
func (s *Session) execute(buf *trace.Buffer, observe func(*mach.Machine)) (inject.Outcome, error) {
	s.reexecs++
	if s.cfg.hook != nil {
		own, seen := observe, s.cfg.hook(buf)
		observe = func(m *mach.Machine) {
			if own != nil {
				own(m)
			}
			seen(m)
		}
	}
	return s.forge.Trial(s.cfg.Spec, s.cfg.Policy, s.cfg.MaxCycles, buf, false, observe)
}

// Store exposes the recording's indexed trace store.
func (s *Session) Store() *Store { return s.store }

// Keyframes exposes the recording's checkpointer.
func (s *Session) Keyframes() *Keyframer { return s.keys }

// ResolveGlobal resolves a global's address and size through the booted
// machine's privileged view — the public original, the address a
// MemManage fault on an unprivileged foreign write reports.
func (s *Session) ResolveGlobal(name string) (uint32, int, error) {
	mod := s.instMod()
	g := mod.Global(name)
	if g == nil {
		return 0, 0, fmt.Errorf("debug: no global %q", name)
	}
	addr, f := s.m.GlobalAddr(g, true)
	if f != nil {
		return 0, 0, fmt.Errorf("debug: resolving %q: %w", name, f)
	}
	return addr, g.Size(), nil
}

// GlobalAt names the global covering addr, with the byte offset into
// it, or "" when no global covers it.
func (s *Session) GlobalAt(addr uint32) (string, uint32) {
	for _, g := range s.instMod().Globals {
		base, f := s.m.GlobalAddr(g, true)
		if f != nil {
			continue
		}
		if addr >= base && addr < base+uint32(g.Size()) {
			return g.Name, addr - base
		}
	}
	return "", 0
}

func (s *Session) instMod() *ir.Module { return s.forge.Instance().Mod }

// timed wraps one query for the debug_* counters.
func (s *Session) timed(fn func() (string, error)) (string, error) {
	start := time.Now()
	out, err := fn()
	s.queries++
	s.queryNS += uint64(time.Since(start).Nanoseconds())
	return out, err
}

// Counters aggregates the debugger's own observability — query count
// and timing, re-executions, index sizes, checkpointer state — as one
// trace.CounterSource for the unified registry.
func (s *Session) Counters() []trace.Counter {
	cs := []trace.Counter{
		{Name: "debug.queries", Value: s.queries},
		{Name: "debug.query_ns", Value: s.queryNS},
		{Name: "debug.reexecs", Value: s.reexecs},
	}
	cs = append(cs, s.store.Counters()...)
	cs = append(cs, s.keys.Counters()...)
	return cs
}
