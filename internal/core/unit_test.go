package core_test

import (
	"strings"
	"sync"
	"testing"

	"es/internal/analysis"
	"es/internal/core"
)

// lowerings returns the compile cache's misses: the programs lowered.
func lowerings(t *testing.T, i *core.Interp) int64 {
	t.Helper()
	for _, s := range i.CacheStats() {
		if s.Name == "compile" {
			return s.Misses
		}
	}
	t.Fatal("no compile cache in CacheStats")
	return 0
}

// TestConcurrentFirstRunSharesProgram: spawned sessions that run one
// fresh program at the same moment may each lower it.  Every session
// gets the right result, the parse cache keeps one of the programs, and
// running it again lowers nothing.
func TestConcurrentFirstRunSharesProgram(t *testing.T) {
	tmpl, _, _ := harness(t)
	core.FlushParseCache() // a fresh program on every -count
	const src = "let (mk = @ p {result @ x {result $p^$x}}; twice = @ f x {$f <={$f $x}}) " +
		"{let (f = <={$mk first-run-}; g = <={$mk shares-}) {result <={$f a} <={$twice $g b} <={$f <={$g c}}}}"
	const want = "first-run-a shares-shares-b first-run-shares-c"
	run := func(s *core.Interp) (core.List, error) {
		out := &core.Buffer{}
		return s.RunString(&core.Ctx{IO: core.NewIOTable(strings.NewReader(""), out, out)}, src)
	}

	const sessions = 8
	before := lowerings(t, tmpl)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for k := range sessions {
		s := tmpl.Spawn()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if res, err := run(s); err != nil || res.Flatten(" ") != want {
				t.Errorf("session %d = %v, %v; want %s", k, res, err, want)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := lowerings(t, tmpl) - before; n < 1 || n > sessions {
		t.Errorf("%d lowerings for %d sessions", n, sessions)
	}

	u, err := core.CompileCommand(src)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := core.CompileCommand(src); again != u {
		t.Errorf("the parse cache holds no one program: units %p, then %p", u, again)
	}
	before = lowerings(t, tmpl)
	if res, err := run(tmpl.Spawn()); err != nil || res.Flatten(" ") != want {
		t.Errorf("rerun = %v, %v; want %s", res, err, want)
	}
	if n := lowerings(t, tmpl) - before; n != 0 {
		t.Errorf("rerun lowered the program %d times", n)
	}
}

// parseEntries returns the number of programs the parse cache holds.
func parseEntries(t *testing.T, i *core.Interp) int {
	t.Helper()
	for _, s := range i.CacheStats() {
		if s.Name == "parse" {
			return s.Entries
		}
	}
	t.Fatal("no parse cache in CacheStats")
	return 0
}

// TestCheckedProgramIsNotLowered: checking a program, through the
// analyzer or ParseCommand, parses it and neither lowers it nor stores
// it in the parse cache.  Its first run lowers it once, and the runs
// after it find it lowered.
func TestCheckedProgramIsNotLowered(t *testing.T) {
	i, ctx, _ := harness(t)
	core.FlushParseCache()
	const src = "let (f = @ x {result <={result $x}^-ok}) {$f checked}"
	before, entries := lowerings(t, i), parseEntries(t, i)
	if _, err := core.ParseCommand(src); err != nil {
		t.Fatal(err)
	}
	if r := analysis.Analyze(src, analysis.Options{}); len(r.Diags) != 0 {
		t.Fatalf("Analyze(%q) = %+v", src, r.Diags)
	}
	if n := lowerings(t, i) - before; n != 0 {
		t.Fatalf("checking the program lowered it %d times", n)
	}
	if n := parseEntries(t, i) - entries; n != 0 {
		t.Fatalf("checking the program stored %d parse cache entries", n)
	}
	for range 3 {
		if res := eval(t, i, ctx, src); res.Flatten(" ") != "checked-ok" {
			t.Fatalf("run = %v, want checked-ok", res)
		}
	}
	if n := lowerings(t, i) - before; n != 1 {
		t.Errorf("three runs lowered the program %d times, want once", n)
	}
}

// TestConcurrentWhatisSharesTrees: sessions that unparse one closure of
// a fresh program at the same moment may each derive its trees, and all
// print the same definition.
func TestConcurrentWhatisSharesTrees(t *testing.T) {
	tmpl, ctx, _ := harness(t)
	core.FlushParseCache() // a fresh program, with no trees, on every -count
	eval(t, tmpl, ctx, "let (greeting = 'hello there') fn greet who {echo $greeting $who}")
	const want = "%closure(greeting='hello there')@ who {echo $greeting $who}\n"

	const sessions = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for k := range sessions {
		s := tmpl.Spawn()
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &core.Buffer{}
			<-start
			_, err := s.RunString(&core.Ctx{IO: core.NewIOTable(strings.NewReader(""), out, out)}, "whatis greet")
			if err != nil || out.String() != want {
				t.Errorf("session %d printed %q, %v; want %q", k, out.String(), err, want)
			}
		}()
	}
	close(start)
	wg.Wait()
}
