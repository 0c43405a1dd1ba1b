package core_test

import (
	"strings"
	"testing"

	"es/internal/core"
)

// These tests pin `local` restore behaviour when things go wrong during
// or after the body: a settor that raises during restore must not lose
// the saved value (the SetVarRaw fallback), a deadline that aborts the
// body must not skip the restore, and a path/PATH restore must flush
// the path cache like any other assignment.  Each scenario runs as the
// "compiled" subtest, on the bytecode loop that performs the restore.

func onCompiled(t *testing.T, f func(t *testing.T, i *core.Interp, ctx *core.Ctx)) {
	t.Helper()
	t.Run("compiled", func(t *testing.T) {
		i, ctx, _ := harness(t)
		f(t, i, ctx)
	})
}

// A settor that raises while the dynamic extent is being unwound: the
// restore falls back to SetVarRaw, so the pre-local value survives even
// though the settor refused to run.
func TestLocalRestoreSettorRaisesFallsBackRaw(t *testing.T) {
	onCompiled(t, func(t *testing.T, i *core.Interp, ctx *core.Ctx) {
		res, err := i.RunString(ctx, `
			set-v = @ { if {~ $restorefail yes} {throw error set-v refused}; result $* }
			v = initial
			local (v = temporary) { restorefail = yes; result body-done }
		`)
		if err != nil {
			t.Fatalf("local body failed: %v", err)
		}
		if res.Flatten("") != "body-done" {
			t.Errorf("body result lost across failing restore: %v", res)
		}
		if got := i.Var("v").Flatten(""); got != "initial" {
			t.Errorf("v after failing restore = %q, want raw-restored %q", got, "initial")
		}
	})
}

// A deadline firing mid-body aborts the body with the signal exception,
// but the restore still runs; the cancel token is one-shot, so the
// settor participates in the restore normally and the caller sees the
// deadline, not a settor error.
func TestLocalRestoreRunsAfterDeadline(t *testing.T) {
	onCompiled(t, func(t *testing.T, i *core.Interp, ctx *core.Ctx) {
		done := make(chan struct{})
		i.SetCancel(done, "test-deadline")
		i.RegisterPrim("trip", func(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
			close(done)
			return core.StrList("tripped"), nil
		})
		settorRan := 0
		i.RegisterPrim("notesettor", func(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
			settorRan++
			return args, nil
		})
		_, err := i.RunString(ctx, `
			set-v = @ { $&notesettor $* }
			v = initial
			local (v = temporary) { $&trip; result unreached }
		`)
		if err == nil || !strings.Contains(err.Error(), "test-deadline") {
			t.Fatalf("want the deadline exception, got %v", err)
		}
		if got := i.Var("v").Flatten(""); got != "initial" {
			t.Errorf("v after deadline = %q, want %q", got, "initial")
		}
		// Initial assignment, local entry, then restore: the restore run
		// happened because the consumed cancel token no longer aborts
		// closure applies.
		if settorRan != 3 {
			t.Errorf("settor ran %d times, want 3 (assign + entry + restore)", settorRan)
		}
	})
}

// Restoring path (or PATH) at the end of the extent is an assignment
// like any other: the path cache entries seeded during the body must be
// flushed, exactly as on entry.
func TestLocalRestoreInvalidatesPathCache(t *testing.T) {
	onCompiled(t, func(t *testing.T, i *core.Interp, ctx *core.Ctx) {
		i.RegisterPrim("seedpath", func(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
			i.PathCache().Put("probe-cmd", "/probe/bin/probe-cmd")
			return core.List{}, nil
		})
		before := i.PathCache().Stats().Invalidations
		if _, err := i.RunString(ctx, "local (path = /tmp) { $&seedpath }"); err != nil {
			t.Fatalf("local: %v", err)
		}
		if n := i.PathCache().Len(); n != 0 {
			t.Errorf("path cache has %d entries after restore, want 0", n)
		}
		if after := i.PathCache().Stats().Invalidations; after <= before {
			t.Errorf("restore flushed nothing: invalidations %d -> %d", before, after)
		}
	})
}
