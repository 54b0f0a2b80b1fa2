package exper_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/exper"
)

// TestCacheSameKeyIdentical: repeated Gets of one key return the
// identical build pointer without recompiling.
func TestCacheSameKeyIdentical(t *testing.T) {
	c := exper.NewCache()
	app := exper.AppsFor(exper.Quick)[0] // PinLock

	b1, err := c.OPECBuild(app, exper.Quick)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c.OPECBuild(app, exper.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("same-key OPECBuild returned distinct builds")
	}
	if got := c.Misses(); got != 1 {
		t.Errorf("misses = %d after two same-key Gets, want 1", got)
	}

	a1, err := c.ACESBuild(app, exper.Quick, aces.Filename)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.ACESBuild(app, exper.Quick, aces.Filename)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("same-key ACESBuild returned distinct builds")
	}
}

// TestCacheDifferentKeysMiss: a different strategy (or scale) is a
// different key and compiles its own fresh instance.
func TestCacheDifferentKeysMiss(t *testing.T) {
	c := exper.NewCache()
	app := exper.AppsFor(exper.Quick)[0]

	a1, err := c.ACESBuild(app, exper.Quick, aces.Filename)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.ACESBuild(app, exper.Quick, aces.FilenameNoOpt)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Error("different strategies returned the same build")
	}
	if a1.Mod == a2.Mod {
		t.Error("different strategies share one module instance")
	}
	if got := c.Misses(); got != 2 {
		t.Errorf("misses = %d for two distinct keys, want 2", got)
	}

	o1, err := c.OPECBuild(app, exper.Quick)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := c.OPECBuild(app, exper.Full)
	if err != nil {
		t.Fatal(err)
	}
	if o1 == o2 || o1.Mod == o2.Mod {
		t.Error("different scales share a build or module")
	}
}

// TestCacheConcurrentSingleCompile: concurrent Gets of one key compile
// exactly once and every caller observes the identical pointer.
func TestCacheConcurrentSingleCompile(t *testing.T) {
	c := exper.NewCache()
	app := exper.AppsFor(exper.Quick)[0]

	const goroutines = 16
	builds := make([]*core.Build, goroutines)
	errs := make([]error, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < goroutines; i++ {
		i := i
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait() // maximize contention on the one key
			builds[i], errs[i] = c.OPECBuild(app, exper.Quick)
		}()
	}
	start.Done()
	done.Wait()

	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if builds[i] != builds[0] {
			t.Fatalf("goroutine %d observed a different build pointer", i)
		}
	}
	if got := c.Misses(); got != 1 {
		t.Errorf("misses = %d under %d concurrent Gets, want exactly 1 compile", got, goroutines)
	}
}

// TestCacheRunReusesBuild: a memoized run boots the cached build (the
// Result's Build pointer is the cache's) and is itself memoized.
func TestCacheRunReusesBuild(t *testing.T) {
	c := exper.NewCache()
	app := exper.AppsFor(exper.Quick)[0]

	b, err := c.OPECBuild(app, exper.Quick)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.OPECRun(app, exper.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Build != b {
		t.Error("OPECRun compiled its own build instead of reusing the cached one")
	}
	r2, err := c.OPECRun(app, exper.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("same-key OPECRun returned distinct results")
	}
}

// TestCacheRunsAreChecked: every memoized run — OPEC, vanilla and each
// ACES strategy — runs the instance's correctness check, and a failed
// check is the key's error, naming the scheme.
func TestCacheRunsAreChecked(t *testing.T) {
	base := exper.AppsFor(exper.Quick)[0]
	broken := &apps.App{Name: base.Name, New: func() *apps.Instance {
		inst := base.New()
		inst.Check = func(apps.ReadGlobal) error { return errors.New("deliberately failed") }
		return inst
	}}
	c := exper.NewCache()
	runs := map[string]func() error{
		"under OPEC": func() error { _, err := c.OPECRun(broken, exper.Quick); return err },
		"vanilla":    func() error { _, err := c.VanillaRun(broken, exper.Quick); return err },
	}
	for _, strat := range exper.Strategies {
		strat := strat
		runs["under "+strat.String()] = func() error { _, err := c.ACESRun(broken, exper.Quick, strat); return err }
	}
	for what, run := range runs {
		err := run()
		if err == nil || !strings.Contains(err.Error(), "check "+base.Name+" "+what) || !strings.Contains(err.Error(), "deliberately failed") {
			t.Errorf("%s: run with a failing check returned %v", what, err)
		}
	}
}

// TestHarnessParallelByteIdentical: the full rendered sweep is
// byte-identical between a serial harness and a deeply parallel one —
// the experiments' result assembly is index-addressed, so worker
// scheduling can never reorder output.
func TestHarnessParallelByteIdentical(t *testing.T) {
	render := func(h *exper.Harness) string {
		t1, err := h.Table1(exper.Quick)
		if err != nil {
			t.Fatal(err)
		}
		f9, err := h.Figure9(exper.Quick)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := h.Table2(exper.Quick)
		if err != nil {
			t.Fatal(err)
		}
		f10, err := h.Figure10(exper.Quick)
		if err != nil {
			t.Fatal(err)
		}
		f11, err := h.Figure11(exper.Quick)
		if err != nil {
			t.Fatal(err)
		}
		t3, err := h.Table3(exper.Quick)
		if err != nil {
			t.Fatal(err)
		}
		return exper.RenderTable1(t1) + exper.RenderFigure9(f9) +
			exper.RenderTable2(t2) + exper.RenderFigure10(f10) +
			exper.RenderFigure11(f11) + exper.RenderTable3(t3)
	}

	serial := render(exper.NewHarness(1))
	parallel := render(exper.NewHarness(8))
	if serial != parallel {
		t.Errorf("parallel sweep output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}
