package core_test

import (
	"strings"
	"sync"
	"testing"

	"es/internal/compile"
	"es/internal/core"
	"es/internal/syntax"
)

// TestConcurrentFirstRunSharesUnits: spawned sessions that run one cached
// but never lowered tree at the same moment race to lower it.  Every
// block ends up with one unit, every session runs on it, and every
// session gets the right result.
func TestConcurrentFirstRunSharesUnits(t *testing.T) {
	tmpl, _, _ := harness(t)
	core.FlushParseCache() // a fresh tree on every -count
	const src = "let (mk = @ p {result @ x {result $p^$x}}; twice = @ f x {$f <={$f $x}}) " +
		"{let (f = <={$mk first-run-}; g = <={$mk shares-}) {result <={$f a} <={$twice $g b} <={$f <={$g c}}}}"
	const want = "first-run-a shares-shares-b first-run-shares-c"
	compiles := func() int64 {
		for _, s := range tmpl.CacheStats() {
			if s.Name == "compile" {
				return s.Misses
			}
		}
		t.Fatal("no compile cache in CacheStats")
		return 0
	}

	b, err := core.ParseCommand(src)
	if err != nil {
		t.Fatal(err)
	}
	if b.Unit.Load() != nil {
		t.Fatal("the fresh tree already has a unit")
	}

	const sessions = 8
	before := compiles()
	start := make(chan struct{})
	seen := make([]*compile.Unit, sessions)
	var wg sync.WaitGroup
	for k := range sessions {
		s := tmpl.Spawn()
		out := &core.Buffer{}
		ctx := &core.Ctx{IO: core.NewIOTable(strings.NewReader(""), out, out)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := s.RunString(ctx, src)
			if err != nil || res.Flatten(" ") != want {
				t.Errorf("session %d = %v, %v; want %s", k, res, err, want)
			}
			seen[k], _ = b.Unit.Load().(*compile.Unit)
		}()
	}
	close(start)
	wg.Wait()

	lowered := compiles() - before
	if lowered < 1 || lowered > sessions {
		t.Errorf("%d lowerings for %d sessions", lowered, sessions)
	}
	for k, u := range seen {
		if u == nil || u != seen[0] {
			t.Fatalf("session %d saw unit %p, session 0 saw %p", k, u, seen[0])
		}
	}
	// Every lambda and substitution body kept a unit too, so running
	// the program again lowers nothing.
	nested := 0
	compile.Compile(b, func(nb *syntax.Block, _ *compile.Unit) {
		nested++
		if nb.Unit.Load() == nil {
			t.Errorf("a nested body at %v has no unit", nb.Pos)
		}
	})
	if nested == 0 {
		t.Fatal("the program has no nested bodies")
	}
	before = compiles()
	if res, err := tmpl.Spawn().RunString(&core.Ctx{IO: core.NewIOTable(strings.NewReader(""), &core.Buffer{}, &core.Buffer{})}, src); err != nil || res.Flatten(" ") != want {
		t.Errorf("rerun = %v, %v; want %s", res, err, want)
	}
	if n := compiles() - before; n != 0 {
		t.Errorf("rerun lowered %d blocks", n)
	}
}
