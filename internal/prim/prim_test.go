package prim

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"es/internal/core"
)

func newInterp(t *testing.T) (*core.Interp, *core.Ctx, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	i := core.New()
	Register(i)
	var out, errw bytes.Buffer
	ctx := &core.Ctx{IO: core.NewIOTable(strings.NewReader(""), &out, &errw)}
	if err := RunInitial(i, ctx); err != nil {
		t.Fatalf("initial.es: %v", err)
	}
	return i, ctx, &out, &errw
}

func mustRun(t *testing.T, i *core.Interp, ctx *core.Ctx, src string) core.List {
	t.Helper()
	res, err := i.RunString(ctx, src)
	if err != nil {
		t.Fatalf("RunString(%q): %v", src, err)
	}
	return res
}

func TestIfChain(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	tests := []struct{ src, want string }{
		{"if {result 0} {result then}", "then"},
		{"if {result 1} {result then}", ""},
		{"if {result 1} {result then} {result else}", "else"},
		{"if {result 1} {result a} {result 0} {result b} {result c}", "b"},
		{"if {result 1} {result a} {result 1} {result b} {result c}", "c"},
		{"if", ""},
	}
	for _, tt := range tests {
		got := mustRun(t, i, ctx, "result <>{"+tt.src+"}").Flatten(" ")
		if got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestAndOrShortCircuit(t *testing.T) {
	i, ctx, out, _ := newInterp(t)
	mustRun(t, i, ctx, "%and {echo a} {result 1} {echo never}")
	if out.String() != "a\n" {
		t.Errorf("and transcript = %q", out.String())
	}
	out.Reset()
	mustRun(t, i, ctx, "%or {result 1} {echo b} {echo never}")
	if out.String() != "b\n" {
		t.Errorf("or transcript = %q", out.String())
	}
	if !mustRun(t, i, ctx, "%and").True() {
		t.Error("empty and should be true")
	}
	if mustRun(t, i, ctx, "%or").True() {
		t.Error("empty or should be false")
	}
}

func TestResultEchoesRichValues(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	res := mustRun(t, i, ctx, "result a {echo b} $&echo")
	if len(res) != 3 || res[1].Closure == nil || res[2].Prim != "echo" {
		t.Errorf("result = %#v", res)
	}
}

func TestThrowRequiresName(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	if _, err := i.RunString(ctx, "throw"); err == nil {
		t.Error("bare throw should fail")
	}
	_, err := i.RunString(ctx, "throw custom a b")
	e := core.AsException(err)
	if e == nil || e.Name() != "custom" || len(e.Args) != 3 {
		t.Errorf("custom exception = %v", err)
	}
}

func TestCatchRethrow(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	_, err := i.RunString(ctx, "catch @ e msg {throw $e $msg} {throw error original}")
	if err == nil || !strings.Contains(err.Error(), "original") {
		t.Errorf("rethrow = %v", err)
	}
}

func TestCatchNestedRetryIsolation(t *testing.T) {
	i, ctx, out, _ := newInterp(t)
	// retry thrown by the inner handler re-runs only the inner body.
	mustRun(t, i, ctx, `
inner-runs = ''
catch @ e {echo outer-handler} {
	catch @ e {
		if {~ $#inner-runs 2} {result done} {throw retry}
	} {
		inner-runs = $inner-runs x
		throw error boom
	}
}`)
	if strings.Contains(out.String(), "outer-handler") {
		t.Errorf("retry leaked to outer catch: %q", out.String())
	}
	if got := i.Var("inner-runs"); len(got) != 2 {
		t.Errorf("inner body ran %d times, want 2", len(got))
	}
}

func TestEvalPrimitive(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	got := mustRun(t, i, ctx, "cmd = 'result built at runtime'; result <>{eval $cmd}").Flatten(" ")
	if got != "built at runtime" {
		t.Errorf("eval = %q", got)
	}
}

func TestDotSourcesFile(t *testing.T) {
	i, ctx, out, _ := newInterp(t)
	dir := t.TempDir()
	file := filepath.Join(dir, "lib.es")
	if err := os.WriteFile(file, []byte("echo sourced with $*\nfn from-lib {result lib}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustRun(t, i, ctx, ". "+file+" a1 a2")
	if out.String() != "sourced with a1 a2\n" {
		t.Errorf("dot output = %q", out.String())
	}
	if got := mustRun(t, i, ctx, "from-lib").Flatten(""); got != "lib" {
		t.Errorf("function from sourced file = %q", got)
	}
	if _, err := i.RunString(ctx, ". /nonexistent-es-file"); err == nil {
		t.Error("sourcing a missing file should throw")
	}
}

func TestFlattenFsplitSplit(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	tests := []struct{ src, want string }{
		{"result <>{%flatten : a b c}", "a:b:c"},
		{"result <>{%flatten '' a b}", "ab"},
		{"result <>{%flatten :}", ""},
		{"result <>{%fsplit : a:b::c}", "a b  c"},
		{"result <>{%fsplit : a b}", "a b"},
		{"result <>{%split ': ' 'a:b c'}", "a b c"},
	}
	for _, tt := range tests {
		got := mustRun(t, i, ctx, tt.src).Flatten(" ")
		if got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
	// fsplit keeps empty fields: a::b has three.
	if got := mustRun(t, i, ctx, "result $#:xx"); got.Flatten("") != "0" {
		_ = got // placeholder: count checked below
	}
	res := mustRun(t, i, ctx, "x = <>{%fsplit : a::b}; result $#x").Flatten("")
	if res != "3" {
		t.Errorf("fsplit empty fields: %q", res)
	}
}

func TestCountPrim(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	if got := mustRun(t, i, ctx, "result <>{$&count a b c}").Flatten(""); got != "3" {
		t.Errorf("count = %q", got)
	}
}

func TestEchoFlags(t *testing.T) {
	i, ctx, out, _ := newInterp(t)
	mustRun(t, i, ctx, "echo -n no newline")
	if out.String() != "no newline" {
		t.Errorf("-n = %q", out.String())
	}
	out.Reset()
	mustRun(t, i, ctx, "echo -- -n literal")
	if out.String() != "-n literal\n" {
		t.Errorf("-- = %q", out.String())
	}
}

func TestCdAndErrors(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	dir := t.TempDir()
	mustRun(t, i, ctx, "cd "+dir)
	if i.Dir() != dir {
		t.Errorf("dir = %q", i.Dir())
	}
	// Relative cd.
	sub := filepath.Join(dir, "sub")
	os.Mkdir(sub, 0o755)
	mustRun(t, i, ctx, "cd sub")
	if i.Dir() != sub {
		t.Errorf("relative cd = %q", i.Dir())
	}
	mustRun(t, i, ctx, "cd ..")
	if i.Dir() != dir {
		t.Errorf("dotdot cd = %q", i.Dir())
	}
	_, err := i.RunString(ctx, "cd /no/such/dir")
	if err == nil || !strings.Contains(err.Error(), "chdir /no/such/dir") {
		t.Errorf("cd error = %v", err)
	}
	// cd with no argument goes home.
	i.SetVarRaw("home", core.StrList(dir))
	mustRun(t, i, ctx, "cd /")
	mustRun(t, i, ctx, "cd")
	if i.Dir() != dir {
		t.Errorf("cd home = %q", i.Dir())
	}
}

func TestCdSpoofTitlebar(t *testing.T) {
	// The paper's cd spoof: "a cd operation which also places the
	// current directory in the title-bar".
	i, ctx, out, _ := newInterp(t)
	i.RegisterPrim("title", func(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
		out.WriteString("TITLE:" + args.Flatten(" ") + "\n")
		return core.True(), nil
	})
	dir := t.TempDir()
	mustRun(t, i, ctx, "fn-title = $&title")
	mustRun(t, i, ctx, `
let (cd = $fn-cd)
fn cd {
	$cd $*
	title $*
}`)
	mustRun(t, i, ctx, "cd "+dir)
	if i.Dir() != dir {
		t.Errorf("spoofed cd did not chdir: %q", i.Dir())
	}
	if !strings.Contains(out.String(), "TITLE:"+dir) {
		t.Errorf("title hook not called: %q", out.String())
	}
}

func TestPathsearch(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	dir := t.TempDir()
	tool := filepath.Join(dir, "sometool")
	if err := os.WriteFile(tool, []byte("#!/bin/sh\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	notExec := filepath.Join(dir, "data")
	os.WriteFile(notExec, []byte("x"), 0o644)
	i.SetVarRaw("path", core.StrList("/nonexistent", dir))
	got := mustRun(t, i, ctx, "result <>{%pathsearch sometool}").Flatten("")
	if got != tool {
		t.Errorf("pathsearch = %q", got)
	}
	if _, err := i.RunString(ctx, "%pathsearch data"); err == nil {
		t.Error("non-executable file should not be found")
	}
	if _, err := i.RunString(ctx, "%pathsearch missing-entirely"); err == nil {
		t.Error("missing program should throw")
	}
	// Slash-containing names pass through.
	got = mustRun(t, i, ctx, "result <>{%pathsearch ./rel/prog}").Flatten("")
	if got != "./rel/prog" {
		t.Errorf("slash passthrough = %q", got)
	}
}

func TestWhatisForms(t *testing.T) {
	i, ctx, out, _ := newInterp(t)
	mustRun(t, i, ctx, "fn simple {echo hi}")
	mustRun(t, i, ctx, "whatis simple")
	if out.String() != "@ * {echo hi}\n" {
		t.Errorf("whatis fn = %q", out.String())
	}
	out.Reset()
	i.RegisterBuiltin("somebuiltin", func(i *core.Interp, ctx *core.Ctx, argv []string) int { return 0 })
	mustRun(t, i, ctx, "whatis somebuiltin")
	if out.String() != "$&somebuiltin\n" {
		t.Errorf("whatis builtin = %q", out.String())
	}
	out.Reset()
	res := mustRun(t, i, ctx, "whatis utterly-missing-xyz")
	if res.True() {
		t.Error("whatis of missing name should be false")
	}
}

func TestVarsListing(t *testing.T) {
	i, ctx, out, _ := newInterp(t)
	mustRun(t, i, ctx, "zz-unique = some value")
	mustRun(t, i, ctx, "vars")
	if !strings.Contains(out.String(), "zz-unique=some\x01value") {
		t.Errorf("vars output missing assignment: %q", out.String())
	}
}

// analyze returns one word per diagnostic, then "effects" and the
// effect categories, resolving names against the running interpreter:
// with the builtins registered, ls and wc run in process.
func TestAnalyzePrim(t *testing.T) {
	i, ctx, _, _ := newPipeInterp(t)
	got := mustRun(t, i, ctx, "analyze 'echo $nope; ls | wc; x = $&nosuch'")
	want := []string{
		"1:6 [W110] warning: reference to undefined variable nope (evaluates to the empty list)",
		"1:26 [E101] error: reference to unregistered primitive $&nosuch",
		"effects",
		"process",
	}
	if len(got) != len(want) {
		t.Fatalf("analyze returned %d words %q, want %q", len(got), got.Flatten("|"), want)
	}
	for k, w := range want {
		if got[k].String() != w {
			t.Errorf("word %d = %q, want %q", k, got[k].String(), w)
		}
	}
}

func TestTimeFormat(t *testing.T) {
	i, ctx, _, errw := newInterp(t)
	mustRun(t, i, ctx, "time {result 0}")
	got := errw.String()
	if !strings.Contains(got, "r ") || !strings.Contains(got, "u ") || !strings.Contains(got, "s\t") {
		t.Errorf("time format = %q", got)
	}
	if !strings.Contains(got, "result 0") {
		t.Errorf("time label = %q", got)
	}
}

func TestBackgroundAndWait(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	mustRun(t, i, ctx, "%background {result from-background}")
	apid := i.Var("apid").Flatten("")
	if apid == "" {
		t.Fatal("apid not set")
	}
	got := mustRun(t, i, ctx, "result <>{wait "+apid+"}").Flatten(" ")
	if got != "from-background" {
		t.Errorf("wait result = %q", got)
	}
	if _, err := i.RunString(ctx, "wait 99999"); err == nil {
		t.Error("waiting for unknown job should throw")
	}
	if _, err := i.RunString(ctx, "wait"); err == nil {
		t.Error("wait with no jobs should throw")
	}
}

func TestApids(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	mustRun(t, i, ctx, "sync = ''; %background {result 1}; %background {result 2}")
	ids := mustRun(t, i, ctx, "apids")
	if len(ids) != 2 {
		t.Errorf("apids = %v", ids)
	}
	mustRun(t, i, ctx, "wait "+ids[0].String())
	ids = mustRun(t, i, ctx, "apids")
	if len(ids) != 1 {
		t.Errorf("apids after wait = %v", ids)
	}
	mustRun(t, i, ctx, "wait") // drain
}

func TestForkIsolation(t *testing.T) {
	i, ctx, _, errw := newInterp(t)
	mustRun(t, i, ctx, "g = before; fork {g = inside}")
	if got := i.Var("g").Flatten(""); got != "before" {
		t.Errorf("fork leaked: %q", got)
	}
	// Exceptions die at the subshell boundary with a report and false.
	res := mustRun(t, i, ctx, "fork {throw error boom}")
	if res.True() {
		t.Error("fork with exception should be false")
	}
	if !strings.Contains(errw.String(), "boom") {
		t.Errorf("exception not reported: %q", errw.String())
	}
	// exit inside a subshell becomes its status, silently.
	errw.Reset()
	res = mustRun(t, i, ctx, "fork {exit 3}")
	if res.Flatten("") != "3" || errw.Len() != 0 {
		t.Errorf("fork exit: res=%v stderr=%q", res, errw.String())
	}
}

// A subshell gets its own copy of the lexical bindings its command closes
// over, as a fork(2)ed C es process does, so an assignment inside it never
// reaches the parent's binding.
func TestSubshellsCopyLexicalBindings(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	for _, src := range []string{
		"let (x = 1) {{x = 2} | {}; result $x}",
		"let (x = 1) {fork {x = 2}; result $x}",
		"let (x = 1) {y = `{x = 2}; result $x}",
		"let (x = 1) {{x = 2} &; wait; result $x}",
		// Sharing one binding, these two elements raced under -race.
		"let (x = 1) {{x = a} | {x = b}; result $x}",
	} {
		if got := mustRun(t, i, ctx, src).Flatten(" "); got != "1" {
			t.Errorf("%s: x = %q, want 1", src, got)
		}
	}
}

// A background job runs on the globals as they were when it was forked:
// the parent's later assignment, and the fold of it that the parent's
// next fork makes, never reach the job.
func TestBackgroundJobKeepsForkTimeGlobals(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	gate := make(chan struct{})
	i.RegisterPrim("gate", func(*core.Interp, *core.Ctx, core.List) (core.List, error) {
		<-gate
		return core.True(), nil
	})
	mustRun(t, i, ctx, "x = old; {$&gate; result $x} &; x = new; fork {}")
	close(gate)
	if got := mustRun(t, i, ctx, "wait").Flatten(" "); got != "old" {
		t.Errorf("job read x = %q, want old", got)
	}
	if got := i.Var("x").Flatten(" "); got != "new" {
		t.Errorf("parent x = %q, want new", got)
	}
}

func TestBackquoteSplitting(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	got := mustRun(t, i, ctx, "result `{echo 'a b'; echo c}").Flatten(",")
	if got != "a,b,c" {
		t.Errorf("backquote = %q", got)
	}
	// Custom ifs.
	got = mustRun(t, i, ctx, "local (ifs = :) {result `{echo -n a:b c}}").Flatten(",")
	if got != "a,b c\n" && got != "a,b c" {
		t.Errorf("custom ifs = %q", got)
	}
	// Backquote runs in a subshell: assignments do not leak.
	mustRun(t, i, ctx, "bq = before; x = `{bq = inside; echo out}")
	if got := i.Var("bq").Flatten(""); got != "before" {
		t.Errorf("backquote leaked: %q", got)
	}
}

func TestReadPrim(t *testing.T) {
	i, _, _, _ := newInterp(t)
	var out bytes.Buffer
	ctx := &core.Ctx{IO: core.NewIOTable(strings.NewReader("line one\nline two\n"), &out, &out)}
	got := mustRun(t, i, ctx, "result <>{read}").Flatten(" ")
	if got != "line one" {
		t.Errorf("read = %q", got)
	}
	got = mustRun(t, i, ctx, "result <>{read}").Flatten(" ")
	if got != "line two" {
		t.Errorf("read 2 = %q", got)
	}
	if _, err := i.RunString(ctx, "read"); !core.ExcNamed(err, "eof") {
		t.Errorf("read at eof = %v", err)
	}
}

func TestPrimitivesListing(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	res := mustRun(t, i, ctx, "result <>{$&primitives}")
	names := res.Strings()
	for _, want := range []string{"if", "pipe", "create", "catch", "pathsearch", "dot"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("primitive %q missing from listing", want)
		}
	}
	// Sorted.
	for k := 1; k < len(names); k++ {
		if names[k] < names[k-1] {
			t.Errorf("primitives not sorted at %d: %v", k, names)
			break
		}
	}
}

func TestUnknownPrimErrors(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	if _, err := i.RunString(ctx, "$&no-such-primitive"); err == nil {
		t.Error("unknown primitive should throw")
	}
}

func TestDupAndClose(t *testing.T) {
	i, ctx, out, errw := newInterp(t)
	mustRun(t, i, ctx, "echo to-stderr >[2=1]")
	// stderr duplicated onto stdout's stream target: both in out.
	_ = errw
	if out.String() != "to-stderr\n" {
		t.Errorf("dup 2=1: out=%q", out.String())
	}
	out.Reset()
	mustRun(t, i, ctx, "echo vanished >[1=]")
	if out.Len() != 0 {
		t.Errorf("close: out=%q", out.String())
	}
}

func TestRedirectionFiles(t *testing.T) {
	i, ctx, out, _ := newInterp(t)
	dir := t.TempDir()
	mustRun(t, i, ctx, "cd "+dir)
	mustRun(t, i, ctx, "echo one > f; echo two >> f")
	mustRun(t, i, ctx, "catch @ e {result $e} {{while {} {echo got <>{read}}} < f}")
	if out.String() != "got one\ngot two\n" {
		t.Errorf("file round trip = %q", out.String())
	}
}

func TestExitStatusHelper(t *testing.T) {
	for _, tt := range []struct {
		args []string
		want int
	}{
		{nil, 0},
		{[]string{"0"}, 0},
		{[]string{"3"}, 3},
		{[]string{"nonsense"}, 1},
		{[]string{"300"}, 1},
	} {
		if got := ExitStatus(core.StrList(tt.args...)); got != tt.want {
			t.Errorf("ExitStatus(%v) = %d, want %d", tt.args, got, tt.want)
		}
	}
}

func TestForever(t *testing.T) {
	i, ctx, out, _ := newInterp(t)
	got := mustRun(t, i, ctx, `
n =
result <>{forever {
	n = $n x
	if {~ $#n 3} {break finished $#n}
	echo tick
}}`)
	if got.Flatten(" ") != "finished 3" {
		t.Errorf("forever result = %v", got)
	}
	if out.String() != "tick\ntick\n" {
		t.Errorf("forever output = %q", out.String())
	}
	// break with no value falls back to the last body result.
	got = mustRun(t, i, ctx, "forever {break}")
	if !got.True() {
		t.Errorf("bare break result = %v", got)
	}
}

func TestNotPrim(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	if mustRun(t, i, ctx, "$&not {result 0}").True() {
		t.Error("not true should be false")
	}
	if !mustRun(t, i, ctx, "$&not {result 1}").True() {
		t.Error("not false should be true")
	}
	if mustRun(t, i, ctx, "$&not").True() {
		t.Error("bare not is false")
	}
	// %not runs a command with arguments.
	if mustRun(t, i, ctx, "$&not result 0").True() {
		t.Error("not result 0 should be false")
	}
}

func TestBreakReturnOutsideLoop(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	_, err := i.RunString(ctx, "break stray")
	if !core.ExcNamed(err, "break") {
		t.Errorf("stray break = %v", err)
	}
	_, err = i.RunString(ctx, "return stray")
	if !core.ExcNamed(err, "return") {
		t.Errorf("top-level return = %v", err)
	}
}

func TestExecPrim(t *testing.T) {
	i, ctx, out, _ := newInterp(t)
	_, err := i.RunString(ctx, "exec {echo ran; result 5}")
	e := core.AsException(err)
	if e == nil || e.Name() != "exit" {
		t.Fatalf("exec = %v", err)
	}
	if ExitStatus(e.Args[1:]) != 5 {
		t.Errorf("exec status = %v", e.Args)
	}
	if out.String() != "ran\n" {
		t.Errorf("exec output = %q", out.String())
	}
	if res := mustRun(t, i, ctx, "$&exec"); !res.True() {
		t.Errorf("bare exec = %v", res)
	}
}

func TestHerePrim(t *testing.T) {
	i, ctx, out, _ := newInterp(t)
	mustRun(t, i, ctx, "%here 0 'fed text' {echo got <>{read}}")
	if out.String() != "got fed text\n" {
		t.Errorf("here = %q", out.String())
	}
	if _, err := i.RunString(ctx, "%here bad x {y}"); err == nil {
		t.Error("bad fd should throw")
	}
	if _, err := i.RunString(ctx, "%here 0"); err == nil {
		t.Error("missing args should throw")
	}
}

func TestPipePrimDirect(t *testing.T) {
	i, ctx, out, _ := newInterp(t)
	mustRun(t, i, ctx, "%pipe {echo one; echo two} 1 0 {while {} {echo saw <>{read}}}")
	if out.String() != "saw one\nsaw two\n" {
		t.Errorf("pipe = %q", out.String())
	}
	// Degenerate forms.
	if res := mustRun(t, i, ctx, "%pipe"); !res.True() {
		t.Errorf("empty pipe = %v", res)
	}
	out.Reset()
	mustRun(t, i, ctx, "%pipe {echo solo}")
	if out.String() != "solo\n" {
		t.Errorf("single-element pipe = %q", out.String())
	}
	if _, err := i.RunString(ctx, "%pipe {a} 1 {b}"); err == nil {
		t.Error("malformed pipe should throw")
	}
	if _, err := i.RunString(ctx, "%pipe {a} x y {b}"); err == nil {
		t.Error("non-numeric fds should throw")
	}
}

func TestVarPrim(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	mustRun(t, i, ctx, "alpha = 1 2; beta = 3")
	got := mustRun(t, i, ctx, "result <>{$&var alpha beta}")
	if got.Flatten(" ") != "1 2 3" {
		t.Errorf("$&var = %v", got)
	}
}

func TestVersionPrim(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	got := mustRun(t, i, ctx, "version")
	if !strings.Contains(got.Flatten(" "), "es-go") {
		t.Errorf("version = %v", got)
	}
}

func TestNoexportPrim(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	mustRun(t, i, ctx, "secret = hidden; noexport secret")
	for _, kv := range i.ExportEnv() {
		if strings.HasPrefix(kv, "secret=") {
			t.Errorf("noexported variable leaked: %q", kv)
		}
	}
}

func TestMatchPrim(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	if !mustRun(t, i, ctx, "$&match foo f*").True() {
		t.Error("match f*")
	}
	if mustRun(t, i, ctx, "$&match foo b*").True() {
		t.Error("match b*")
	}
	if mustRun(t, i, ctx, "$&match foo").True() {
		t.Error("no patterns should be false for a subject")
	}
	if !mustRun(t, i, ctx, "$&match").True() {
		t.Error("empty match is true")
	}
}

type testReader struct {
	lines []string
	pos   int
}

func (r *testReader) ReadLine() (string, error) {
	if r.pos >= len(r.lines) {
		return "", errStop{}
	}
	l := r.lines[r.pos]
	r.pos++
	return l, nil
}

type errStop struct{}

func (errStop) Error() string { return "eof" }

func TestParsePrim(t *testing.T) {
	i, ctx, _, errw := newInterp(t)
	i.Reader = &testReader{lines: []string{"echo one", "fn f {", "echo two", "}"}}
	// First %parse returns a closure for "echo one".
	got := mustRun(t, i, ctx, "p = <>{%parse 'P1> ' 'P2> '}; $p")
	_ = got
	// Second command spans lines; continuation prompts go to stderr.
	mustRun(t, i, ctx, "q = <>{%parse 'P1> ' 'P2> '}; $q")
	e := errw.String()
	if !strings.Contains(e, "P1> ") || !strings.Contains(e, "P2> ") {
		t.Errorf("prompts = %q", e)
	}
	// Exhausted input throws eof.
	if _, err := i.RunString(ctx, "%parse"); !core.ExcNamed(err, "eof") {
		t.Errorf("parse at eof = %v", err)
	}
	// Without a reader, %parse is immediately eof.
	i.Reader = nil
	if _, err := i.RunString(ctx, "%parse"); !core.ExcNamed(err, "eof") {
		t.Errorf("parse without reader = %v", err)
	}
	// Malformed complete input is an error exception.
	i.Reader = &testReader{lines: []string{"a ) b"}}
	if _, err := i.RunString(ctx, "%parse"); !core.ExcNamed(err, "error") {
		t.Errorf("parse of garbage = %v", err)
	}
}

func TestFallbackLoop(t *testing.T) {
	i, ctx, out, _ := newInterp(t)
	// Delete the es-coded loop: the $& fallback must still drive a
	// session.
	mustRun(t, i, ctx, "fn-%interactive-loop =")
	i.Reader = &testReader{lines: []string{"echo via fallback", "result 9"}}
	res, err := i.CallHook(ctx, "%interactive-loop", nil)
	if err != nil {
		t.Fatalf("fallback loop: %v", err)
	}
	if out.String() != "via fallback\n" {
		t.Errorf("fallback output = %q", out.String())
	}
	if res.Flatten("") != "9" {
		t.Errorf("fallback result = %v", res)
	}
}

func TestRunSync(t *testing.T) {
	i, ctx, _, _ := newInterp(t)
	i.ImportEnv([]string{"PATH=/usr/bin:/bin"})
	if err := RunSync(i, ctx); err != nil {
		t.Fatal(err)
	}
	if got := i.Var("path").Flatten(","); got != "/usr/bin,/bin" {
		t.Errorf("path after sync = %q", got)
	}
}
