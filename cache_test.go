package es

// Integration tests for the native dispatch caches (path / parse /
// decode / glob) and the bugfix batch that shipped with them: the
// per-interpreter interrupt flag, the whatis exception fix, and cache
// invalidation through the settor and recache paths.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"es/internal/core"
	"es/internal/glob"
)

// twoDirShell builds a shell whose $path holds two directories that BOTH
// contain an executable called "tool", so reordering $path changes which
// one resolves.
func twoDirShell(t *testing.T) (sh *Shell, out *bytes.Buffer, dirA, dirB string) {
	t.Helper()
	sh, out, _ = newTestShell(t)
	root := t.TempDir()
	dirA = filepath.Join(root, "a")
	dirB = filepath.Join(root, "b")
	script := "#!" + selfExe(t) + "\n"
	for _, d := range []string{dirA, dirB} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "tool"), []byte(script), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Set("path", dirA, dirB); err != nil {
		t.Fatal(err)
	}
	return sh, out, dirA, dirB
}

// whatis returns what `whatis name` prints.
func whatis(t *testing.T, sh *Shell, out *bytes.Buffer, name string) string {
	t.Helper()
	return strings.TrimSpace(runOut(t, sh, out, "whatis "+name))
}

// Repeated lookups of the same name are served by the native path cache.
func TestPathCacheHits(t *testing.T) {
	sh, out, dirA, _ := twoDirShell(t)
	want := filepath.Join(dirA, "tool")

	before := sh.Interp().PathCache().Stats()
	for k := 0; k < 3; k++ {
		if got := whatis(t, sh, out, "tool"); got != want {
			t.Fatalf("lookup %d: whatis tool = %q, want %q", k, got, want)
		}
	}
	after := sh.Interp().PathCache().Stats()
	if hits := after.Hits - before.Hits; hits != 2 {
		t.Errorf("path cache hits = %d, want 2", hits)
	}
	if misses := after.Misses - before.Misses; misses != 1 {
		t.Errorf("path cache misses = %d, want 1", misses)
	}
}

// Assigning $path flushes the cache, so a reordered search path changes
// which copy of a cached name resolves.
func TestPathCacheInvalidatedByPathAssignment(t *testing.T) {
	sh, out, dirA, dirB := twoDirShell(t)

	if got, want := whatis(t, sh, out, "tool"), filepath.Join(dirA, "tool"); got != want {
		t.Fatalf("initial lookup = %q, want %q", got, want)
	}
	// Reorder through the shell itself so the settor path is exercised.
	if _, err := sh.Run(fmt.Sprintf("path = %s %s", dirB, dirA)); err != nil {
		t.Fatal(err)
	}
	if got, want := whatis(t, sh, out, "tool"), filepath.Join(dirB, "tool"); got != want {
		t.Errorf("after path reorder, whatis tool = %q, want %q", got, want)
	}
}

// The same round-trip through the colon-separated $PATH settor: es keeps
// path and PATH aliased, and either assignment must drop the cache.
func TestPathCacheInvalidatedByPATHAssignment(t *testing.T) {
	sh, out, dirA, dirB := twoDirShell(t)

	if got, want := whatis(t, sh, out, "tool"), filepath.Join(dirA, "tool"); got != want {
		t.Fatalf("initial lookup = %q, want %q", got, want)
	}
	if _, err := sh.Run(fmt.Sprintf("PATH = %s:%s", dirB, dirA)); err != nil {
		t.Fatal(err)
	}
	if got, want := whatis(t, sh, out, "tool"), filepath.Join(dirB, "tool"); got != want {
		t.Errorf("after PATH reorder, whatis tool = %q, want %q", got, want)
	}
}

// recache (the native primitive) flushes the path cache.
func TestRecacheFlushesPathCache(t *testing.T) {
	sh, out, _, _ := twoDirShell(t)
	whatis(t, sh, out, "tool")
	if n := sh.Interp().PathCache().Len(); n != 1 {
		t.Fatalf("cache entries after lookup = %d, want 1", n)
	}
	if _, err := sh.Run("recache"); err != nil {
		t.Fatal(err)
	}
	if n := sh.Interp().PathCache().Len(); n != 0 {
		t.Errorf("cache entries after recache = %d, want 0", n)
	}
}

// A cached entry whose binary has been deleted must not be served: the
// verify-on-hit stat notices and the search falls through to the other
// directory.
func TestPathCacheStaleBinaryFallsBack(t *testing.T) {
	sh, out, dirA, dirB := twoDirShell(t)
	if got, want := whatis(t, sh, out, "tool"), filepath.Join(dirA, "tool"); got != want {
		t.Fatalf("initial lookup = %q, want %q", got, want)
	}
	if err := os.Remove(filepath.Join(dirA, "tool")); err != nil {
		t.Fatal(err)
	}
	if got, want := whatis(t, sh, out, "tool"), filepath.Join(dirB, "tool"); got != want {
		t.Errorf("after deleting cached binary, whatis tool = %q, want %q", got, want)
	}
}

// Defining fn-tool takes precedence over a cached path entry: function
// dispatch is consulted before %pathsearch ever runs.
func TestFnDefinitionShadowsPathCache(t *testing.T) {
	sh, out, _, _ := twoDirShell(t)
	whatis(t, sh, out, "tool") // populate the cache
	if _, err := sh.Run("fn tool { result shadowed }"); err != nil {
		t.Fatal(err)
	}
	res, err := sh.Run("result <>{tool}")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(res.Flatten(" ")); got != "shadowed" {
		t.Errorf("tool = %q, want %q (fn- must win over the path cache)", got, "shadowed")
	}
}

// The es-level pathcache spoof (Figure 2) still takes precedence over
// the native cache: once fn-%pathsearch is defined, the native prim is
// reached only through the spoof's captured $fn-%pathsearch, and repeat
// lookups are served from the spoof's fn- variables.
func TestSpoofedPathsearchStillWins(t *testing.T) {
	sh, _, dirA, _ := twoDirShell(t)
	if _, err := sh.Run(pathCacheSpoof); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dirA, "tool")
	res, err := sh.Run("result <>{%pathsearch tool}")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(res.Flatten(" ")); got != want {
		t.Fatalf("spoofed %%pathsearch tool = %q, want %q", got, want)
	}
	// The spoof populated its own es-level cache...
	if fn := sh.Get("fn-tool"); len(fn) != 1 || fn[0].String() != want {
		t.Errorf("fn-tool = %v, want [%s]", fn, want)
	}
	// ...and its recache shadow (an es function) empties it, proving the
	// script-level protocol is untouched by the native layer.
	if _, err := sh.Run("recache"); err != nil {
		t.Fatal(err)
	}
	if fn := sh.Get("fn-tool"); len(fn) != 0 {
		t.Errorf("fn-tool after spoofed recache = %v, want empty", fn)
	}
}

// Running the same source twice parses it once.
func TestParseCacheReusesAST(t *testing.T) {
	sh, _, _ := newTestShell(t)
	src := "result parse-cache-probe-" + t.Name()
	core.FlushParseCache()
	for k := 0; k < 3; k++ {
		if _, err := sh.Run(src); err != nil {
			t.Fatal(err)
		}
	}
	var parse *int64
	for _, s := range sh.Interp().CacheStats() {
		if s.Name == "parse" {
			h := s.Hits
			parse = &h
		}
	}
	if parse == nil {
		t.Fatal("no parse cache in CacheStats")
	}
	if *parse < 2 {
		t.Errorf("parse cache hits = %d, want >= 2", *parse)
	}
}

// TestParseHitNeverRecompiles: a program whose tree is still in the parse
// cache runs on the units lowered the first time, however many blocks
// other programs have lowered since.  The 150 programs in between hold
// far more blocks than a block-keyed cache of 1,024 entries could keep,
// and far fewer trees than the parse cache's 512.
func TestParseHitNeverRecompiles(t *testing.T) {
	sh, _, _ := newTestShell(t)
	core.FlushParseCache()
	prog := func(k int) string {
		return fmt.Sprintf("let (mk = @ p {result @ x {result $p^$x}}; twice = @ f x {$f <={$f $x}}) "+
			"{let (f = <={$mk p%d}; g = <={$mk q%d}) {result <={$f a} <={$twice $g b} <={$f <={$g c}}}}", k, k)
	}
	misses := func(name string) int64 {
		for _, s := range sh.Interp().CacheStats() {
			if s.Name == name {
				return s.Misses
			}
		}
		t.Fatalf("no %s cache in CacheStats", name)
		return 0
	}
	run := func(k int) {
		t.Helper()
		res, err := sh.Run(prog(k))
		if want := fmt.Sprintf("p%[1]da q%[1]dq%[1]db p%[1]dq%[1]dc", k); err != nil || res.Flatten(" ") != want {
			t.Fatalf("program %d = %v, %v; want %s", k, res, err, want)
		}
	}
	run(0)
	before := misses("compile")
	for k := 1; k <= 150; k++ {
		run(k)
	}
	if lowered := misses("compile") - before; lowered < 150 {
		t.Fatalf("%d lowerings for 150 new programs", lowered)
	}
	parse, compile := misses("parse"), misses("compile")
	run(0)
	if n := misses("parse") - parse; n != 0 {
		t.Fatalf("rerun missed the parse cache %d times", n)
	}
	if n := misses("compile") - compile; n != 0 {
		t.Errorf("rerun of a cached tree lowered %d blocks again", n)
	}
}

// Two shells importing the same exported closure must not share mutable
// state through the decode cache: assignments to a captured variable in
// one shell stay invisible in the other.
func TestDecodeCacheIsolatesClosureState(t *testing.T) {
	parent, _, _ := newTestShell(t)
	// The counter appends to a captured variable, so its result length
	// counts how often THIS closure instance has run.
	if _, err := parent.Run("let (n = '') fn counter { n = $n^x; result $n }"); err != nil {
		t.Fatal(err)
	}
	env := parent.Interp().ExportEnv()

	shA, err := New(Options{Environ: env, Stdout: io.Discard, Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	shB, err := New(Options{Environ: env, Stdout: io.Discard, Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	// Advance the counter twice in shell A, then read the third value.
	if _, err := shA.Run("counter; counter"); err != nil {
		t.Fatal(err)
	}
	resA, err := shA.Run("counter")
	if err != nil {
		t.Fatal(err)
	}
	// Shell B must still see a fresh closure.
	resB, err := shB.Run("counter")
	if err != nil {
		t.Fatal(err)
	}
	a, b := resA.Flatten(""), resB.Flatten("")
	if a != "xxx" || b != "x" {
		t.Errorf("counter state leaked through decode cache: A=%q (want xxx), B=%q (want x)", a, b)
	}
}

// A glob pattern matched repeatedly in a shell loop reuses its compiled
// form.
func TestGlobCacheHitsFromShell(t *testing.T) {
	sh, _, _ := newTestShell(t)
	glob.FlushCache()
	before := glob.CacheStats()
	if _, err := sh.Run("for (f = main.c util.c doc.txt main.h) ~ $f *.[ch]"); err != nil {
		t.Fatal(err)
	}
	after := glob.CacheStats()
	if hits := after.Hits - before.Hits; hits < 3 {
		t.Errorf("glob cache hits = %d, want >= 3", hits)
	}
}

// Interrupting one interpreter must not interrupt an unrelated one: the
// flag is per-Interp now, not process-global.
func TestInterruptIsPerInterpreter(t *testing.T) {
	shA, _, _ := newTestShell(t)
	shB, _, _ := newTestShell(t)
	shA.Interp().Interrupt()
	if _, err := shB.Run("result ok"); err != nil {
		t.Errorf("shell B interrupted by shell A's flag: %v", err)
	}
	// Shell A itself does see the pending interrupt.
	if _, err := shA.Run("result ok"); err == nil {
		t.Error("shell A should have raised the pending interrupt")
	} else if !IsException(err, "signal") {
		t.Errorf("shell A raised %v, want signal exception", err)
	}
}

// Regression for the latched-interrupt bug: a SIGINT that arrives during
// one command but is never consumed (here, planted by the command itself
// just before it finishes) used to stay latched and spuriously abort the
// NEXT command typed at the prompt.  The prompt must discard it.
func TestInterruptClearedAtPrompt(t *testing.T) {
	sh, _, _ := newTestShell(t)
	sh.RegisterPrim("latchintr", func(i *core.Interp, ctx *core.Ctx, args List) (List, error) {
		i.Interrupt()
		return nil, nil
	})
	res, err := sh.Interactive(&scriptReader{lines: []string{
		"$&latchintr",
		"x = 42",
	}})
	if err != nil {
		t.Fatalf("Interactive: %v (res %v)", err, res)
	}
	if got := sh.Get("x"); len(got) != 1 || got[0].String() != "42" {
		t.Errorf("x = %v, want [42]: stale interrupt aborted the next command", got)
	}
}

// Regression for primWhatis swallowing real exceptions: a spoofed
// %pathsearch that throws a custom exception must propagate it, not be
// flattened into "whatis: not found".
func TestWhatisPropagatesHookException(t *testing.T) {
	sh, _, _ := newTestShell(t)
	if _, err := sh.Run("fn %pathsearch prog { throw customboom $prog }"); err != nil {
		t.Fatal(err)
	}
	_, err := sh.Run("whatis no-such-program-anywhere")
	if err == nil {
		t.Fatal("whatis succeeded; want the spoofed hook's exception")
	}
	if !IsException(err, "customboom") {
		t.Errorf("whatis raised %v, want customboom", err)
	}
}

// cachestats is scriptable: one colon-separated record per cache.
func TestCachestatsPrimitive(t *testing.T) {
	sh, _, _ := newTestShell(t)
	res, err := sh.Run("result <>{cachestats}")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, term := range res {
		fields := strings.Split(term.String(), ":")
		if len(fields) != 5 {
			t.Errorf("cachestats record %q: want name:hits:misses:invalidations:entries", term.String())
			continue
		}
		names[fields[0]] = true
	}
	for _, want := range []string{"path", "parse", "decode", "glob"} {
		if !names[want] {
			t.Errorf("cachestats missing %q cache (got %v)", want, names)
		}
	}
}
