package exper

// The build cache. Every experiment of the evaluation needs some
// combination of compiled artifacts and finished runs over the same
// seven workloads — the matrix is (app × scheme × scale), and before
// the cache existed a full `opec-bench -exp all` sweep compiled the
// same workload under the same scheme dozens of times (Table 2 and
// Figure 9 both run vanilla and OPEC; Figures 10/11 and Tables 1/3 all
// recompile the OPEC build; the three ACES strategies appear in three
// experiments each).
//
// Cache memoizes one artifact per key and is safe for concurrent use:
// the harness worker pool issues Gets from many goroutines, and a
// per-entry sync.Once guarantees each key compiles (and runs) exactly
// once, with every caller receiving the identical pointer.
//
// Sharing is sound because the cache owns a fresh App.New() instance
// per key: core.Compile and aces.Compile mutate the input ir.Module
// (OPEC's entry-site instrumentation rewrites calls into SVCs), so a
// module may be compiled at most once, and a vanilla build must never
// see a module another scheme compiled. Builds are immutable once
// compiled, and a memoized run happens at most once per key, so the
// instance's devices are always in their power-on state when the run
// starts.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/metrics"
	"opec/internal/run"
	"opec/internal/trace"
)

// cacheKey identifies one artifact of the evaluation matrix.
type cacheKey struct {
	app    string
	scale  AppSet
	scheme string // "vanilla" | "opec" | "aces:<strategy>", "+run" suffix for executed runs, "trace"
}

// cacheEntry holds one memoized artifact. The sync.Once is the
// compile-exactly-once guarantee under concurrent Gets.
type cacheEntry struct {
	once sync.Once
	val  interface{}
	err  error
}

// Cache memoizes compiled builds, finished runs and task traces keyed
// by (application, scheme, scale). The zero value is not usable; call
// NewCache.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry

	// misses counts entry constructions — the number of actual
	// compiles/runs performed, regardless of how many Gets raced.
	misses atomic.Int64
}

// NewCache returns an empty build cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[cacheKey]*cacheEntry)}
}

// Misses returns how many artifacts were actually built (cache-filling
// work); Gets beyond the first per key do not increment it.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// get returns the memoized artifact for k, building it on first use.
// Concurrent calls for one key block on the same sync.Once and all
// observe the identical value.
func (c *Cache) get(k cacheKey, build func() (interface{}, error)) (interface{}, error) {
	c.mu.Lock()
	e := c.entries[k]
	if e == nil {
		e = &cacheEntry{}
		c.entries[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		c.misses.Add(1)
		e.val, e.err = build()
	})
	return e.val, e.err
}

// opecArtifact pairs an OPEC build with the instance it compiled, so a
// later memoized run can boot the build with the instance's devices.
type opecArtifact struct {
	inst *apps.Instance
	b    *core.Build
}

// acesArtifact is opecArtifact's ACES counterpart.
type acesArtifact struct {
	inst *apps.Instance
	b    *aces.Build
}

func (c *Cache) opecArtifact(app *apps.App, s AppSet) (*opecArtifact, error) {
	v, err := c.get(cacheKey{app: app.Name, scale: s, scheme: "opec"}, func() (interface{}, error) {
		inst := app.New()
		b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
		if err != nil {
			return nil, fmt.Errorf("compile %s under OPEC: %w", app.Name, err)
		}
		return &opecArtifact{inst: inst, b: b}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*opecArtifact), nil
}

// OPECBuild returns the memoized OPEC compile of app at scale s.
func (c *Cache) OPECBuild(app *apps.App, s AppSet) (*core.Build, error) {
	a, err := c.opecArtifact(app, s)
	if err != nil {
		return nil, err
	}
	return a.b, nil
}

// OPECRun returns the memoized, checked OPEC execution of app at scale
// s, reusing the cached build.
func (c *Cache) OPECRun(app *apps.App, s AppSet) (*run.Result, error) {
	return c.checkedRun(app, s, "opec", "under OPEC", func() (*run.Context, error) {
		a, err := c.opecArtifact(app, s)
		if err != nil {
			return nil, err
		}
		return run.BootOPEC(a.inst, a.b)
	})
}

// VanillaRun returns the memoized, checked baseline execution of app at
// scale s.
func (c *Cache) VanillaRun(app *apps.App, s AppSet) (*run.Result, error) {
	return c.checkedRun(app, s, "vanilla", "vanilla", func() (*run.Context, error) {
		return run.BootVanilla(app.New())
	})
}

// checkedRun memoizes one execution per (app, scale, scheme): boot,
// one run from the checkpoint, then the instance's correctness check.
// A run or check failure is memoized as the key's error; what names
// the scheme in it.
func (c *Cache) checkedRun(app *apps.App, s AppSet, scheme, what string, boot func() (*run.Context, error)) (*run.Result, error) {
	v, err := c.get(cacheKey{app: app.Name, scale: s, scheme: scheme + "+run"}, func() (interface{}, error) {
		ctx, err := boot()
		if err != nil {
			return nil, fmt.Errorf("run %s %s: %w", app.Name, what, err)
		}
		res, err := ctx.Fork(run.Options{})
		if err != nil {
			return nil, fmt.Errorf("run %s %s: %w", app.Name, what, err)
		}
		if err := run.AndCheck(ctx.Inst, res); err != nil {
			return nil, fmt.Errorf("check %s %s: %w", app.Name, what, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*run.Result), nil
}

func (c *Cache) acesArtifact(app *apps.App, s AppSet, strat aces.Strategy) (*acesArtifact, error) {
	v, err := c.get(cacheKey{app: app.Name, scale: s, scheme: "aces:" + strat.String()}, func() (interface{}, error) {
		inst := app.New()
		b, err := aces.Compile(inst.Mod, inst.Board, strat)
		if err != nil {
			return nil, fmt.Errorf("compile %s under %v: %w", app.Name, strat, err)
		}
		return &acesArtifact{inst: inst, b: b}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*acesArtifact), nil
}

// ACESBuild returns the memoized ACES compile of app under strat.
func (c *Cache) ACESBuild(app *apps.App, s AppSet, strat aces.Strategy) (*aces.Build, error) {
	a, err := c.acesArtifact(app, s, strat)
	if err != nil {
		return nil, err
	}
	return a.b, nil
}

// ACESRun returns the memoized, checked ACES execution of app under
// strat, reusing the cached build.
func (c *Cache) ACESRun(app *apps.App, s AppSet, strat aces.Strategy) (*run.Result, error) {
	return c.checkedRun(app, s, "aces:"+strat.String(), "under "+strat.String(), func() (*run.Context, error) {
		a, err := c.acesArtifact(app, s, strat)
		if err != nil {
			return nil, err
		}
		return run.BootACES(a.inst, a.b)
	})
}

// profileArtifact pairs a traced OPEC run with its event buffer and
// finished per-operation profile.
type profileArtifact struct {
	res  *run.Result
	buf  *trace.Buffer
	prof *trace.Profile
}

// ProfileRun returns the memoized traced-and-profiled OPEC execution of
// app at scale s. It compiles and runs a fresh instance rather than
// reusing the plain "opec+run" artifact: attaching a trace mid-flight
// would miss boot events, and a memoized run happens only once.
func (c *Cache) ProfileRun(app *apps.App, s AppSet) (*run.Result, *trace.Buffer, *trace.Profile, error) {
	v, err := c.get(cacheKey{app: app.Name, scale: s, scheme: "opec+profile"}, func() (interface{}, error) {
		inst := app.New()
		b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
		if err != nil {
			return nil, fmt.Errorf("compile %s under OPEC: %w", app.Name, err)
		}
		buf := trace.NewBuffer(0)
		prof := trace.NewProfiler(buf)
		res, err := run.OPECWith(inst, b, run.Options{Trace: buf})
		if err != nil {
			return nil, fmt.Errorf("profile %s under OPEC: %w", app.Name, err)
		}
		if err := run.AndCheck(inst, res); err != nil {
			return nil, fmt.Errorf("check %s under OPEC: %w", app.Name, err)
		}
		return &profileArtifact{res: res, buf: buf, prof: prof.Finish(res.Cycles)}, nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	a := v.(*profileArtifact)
	return a.res, a.buf, a.prof, nil
}

// Trace returns the memoized task trace of app at scale s. The trace
// runs a vanilla build of its own fresh instance (tracing must see the
// uninstrumented module), so it never shares an instance with the
// other schemes.
func (c *Cache) Trace(app *apps.App, s AppSet) (*metrics.TaskTrace, error) {
	v, err := c.get(cacheKey{app: app.Name, scale: s, scheme: "trace"}, func() (interface{}, error) {
		inst := app.New()
		tr, err := metrics.TraceTasks(inst)
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", app.Name, err)
		}
		return tr, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*metrics.TaskTrace), nil
}
