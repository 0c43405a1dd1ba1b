package es

// The evaluator's verdicts.  testdata/engine_golden.json records the
// observable outcome — output, result, exception — of a battery covering
// every opcode, the word-evaluation fast paths and the exception
// machinery, of every FuzzDifferentialEval seed, and of the parser's fuzz
// corpus, as the retired tree-walking evaluator produced them.  The
// bytecode engine must reproduce each entry exactly.  No flag rewrites
// the file: the engine that wrote it is gone, so an edit to it is a
// hand-reviewed change of semantics.
//
// The fuzz target covers the risk that comes with one engine: a program
// is lowered once and kept in the parse cache, shared by every
// interpreter in the process, so each input must behave the same cold (a
// fresh program, lowered on its first run) and warm (a second shell
// running the program the first run left in the cache).

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// outcome is one program's observable behaviour: a golden corpus entry.
type outcome struct {
	Src    string `json:"src"`
	Output string `json:"output"`
	Result string `json:"result"`
	Error  string `json:"error"`
}

// runEngine evaluates src in a fresh shell, hermetically: no externals, a
// private working directory holding an empty file for each of files,
// deterministic stand-ins for the counter-reporting primitives, and a
// deadline so `forever {}` inputs terminate.  With cold set, the
// process-wide caches are flushed first, so src is parsed anew and its
// fresh program lowered on its first run.  It reports false, with no
// outcome, when the run is not reproducible: the deadline stopped it at
// a timing-dependent point, or it started a background job.  A job keeps
// the run's deadline, so runEngine fires it and reaps every job before
// it returns: no job is left to write into the directory as the test
// removes it.
func runEngine(t *testing.T, src string, cold bool, deadline time.Duration, files ...string) (outcome, bool) {
	t.Helper()
	dir := t.TempDir()
	for _, name := range files {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	sh, err := New(Options{Stdout: &buf, Stderr: &buf, Dir: dir})
	if err != nil {
		t.Fatalf("startup: %v", err)
	}
	sh.Interp().NoExternals = true
	// These report process-global or wall-clock state that legitimately
	// differs between two runs; pin them so they cannot cause spurious
	// mismatches (dispatch itself is still exercised).
	for _, name := range []string{"time", "cachestats", "serverstats"} {
		sh.RegisterPrim(name, func(i *Interp, ctx *Ctx, args List) (List, error) {
			return StrList("stubbed"), nil
		})
	}
	var concurrent atomic.Bool
	background := sh.Interp().Prim("background")
	sh.RegisterPrim("background", func(i *Interp, ctx *Ctx, args List) (List, error) {
		concurrent.Store(true)
		return background(i, ctx, args)
	})
	if cold {
		sh.Interp().FlushCaches()
	}
	done := make(chan struct{})
	timer := time.AfterFunc(deadline, func() { close(done) })
	sh.Interp().SetCancel(done, "difftest-deadline")
	res, rerr := sh.Run(src)
	fired := !timer.Stop()
	if concurrent.Load() {
		if !fired {
			close(done)
		}
		for {
			if _, _, ok := sh.Interp().WaitAny(); !ok {
				break
			}
		}
		return outcome{}, false
	}
	if fired {
		return outcome{}, false
	}
	o := outcome{Src: src, Output: buf.String()}
	if rerr != nil {
		o.Error = rerr.Error()
	} else {
		o.Result = res.Flatten(" \x00 ")
	}
	// Each run has its own private directory; scrub the path so error
	// messages and echoed filenames compare equal.
	o.Output = strings.ReplaceAll(o.Output, dir, "<dir>")
	o.Result = strings.ReplaceAll(o.Result, dir, "<dir>")
	o.Error = strings.ReplaceAll(o.Error, dir, "<dir>")
	return o, true
}

// TestDifferentialEngines replays the golden corpus and requires every
// recorded outcome exactly.
func TestDifferentialEngines(t *testing.T) {
	data, err := os.ReadFile("testdata/engine_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var corpus []outcome
	if err := json.Unmarshal(data, &corpus); err != nil {
		t.Fatalf("engine_golden.json: %v", err)
	}
	if len(corpus) == 0 {
		t.Fatal("engine_golden.json holds no entries")
	}
	for _, want := range corpus {
		got, ok := runEngine(t, want.Src, false, 5*time.Second)
		switch {
		case !ok:
			t.Errorf("%q hit the deadline or went to the background", want.Src)
		case got != want:
			t.Errorf("diverges from the golden outcome of %q:\n  got: %+v\n want: %+v", want.Src, got, want)
		}
	}
}

// wordFiles is the working directory TestWordsGolden's programs glob in.
var wordFiles = []string{"a1.c", "a2.c", "b.h", "ab"}

// TestWordsGolden pins word evaluation — concatenation, substitution,
// quoting against globbing, dynamic match patterns, computed names and
// the sharing of list values — to testdata/words_golden.json, recorded
// through runEngine in a directory holding wordFiles.
func TestWordsGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/words_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var corpus []outcome
	if err := json.Unmarshal(data, &corpus); err != nil {
		t.Fatalf("words_golden.json: %v", err)
	}
	if len(corpus) == 0 {
		t.Fatal("words_golden.json holds no entries")
	}
	for _, want := range corpus {
		got, ok := runEngine(t, want.Src, false, 5*time.Second, wordFiles...)
		switch {
		case !ok:
			t.Errorf("%q hit the deadline or went to the background", want.Src)
		case got != want:
			t.Errorf("diverges from the golden outcome of %q:\n  got: %+v\n want: %+v", want.Src, got, want)
		}
	}
}

// FuzzDifferentialEval: anything the parser accepts must behave the same
// cold and warm.  Hermetic: no externals, private tmpdirs,
// deadline-bounded; runs that are not reproducible (see runEngine) are
// not compared.
func FuzzDifferentialEval(f *testing.F) {
	seeds := []string{
		"fn apply cmd args {for (i = $args) $cmd $i}",
		"let (x = a; y = b) {echo $x $y}",
		"catch @ e msg {throw $e} {result body}",
		"echo $#x $$y $^z",
		"x = ({result a} 'q w' $v(1 2) pre$mid.suf)",
		"~ $subj a* [b-d]? 'lit'",
		"x = 1 2; echo $x^s",
		"echo `{result a b} <={result c}",
		"throw error x y; echo unreached",
		"for (i = 1 2 3) {if {~ $i 2} {break done}; echo $i}",
		"$&result a; $&nosuchprim; $&count 1 2",
		"! {~ a b}",
		"local (x = 1) {let (y = $x) {result $y}}",
		"a ^^ b",
		"fn-%x = $&result; %x hooked",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1024 {
			t.Skip("oversized input")
		}
		cold, coldOK := runEngine(t, src, true, 2*time.Second)
		warm, warmOK := runEngine(t, src, false, 2*time.Second)
		if coldOK && warmOK && cold != warm {
			t.Errorf("cold and warm runs disagree on %q:\n cold: %+v\n warm: %+v", src, cold, warm)
		}
	})
}
