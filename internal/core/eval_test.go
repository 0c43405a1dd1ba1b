package core_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"es/internal/core"
	"es/internal/prim"
)

// harness builds a bare interpreter with primitives and initial.es but no
// coreutils — pure language-level testing.
func harness(t *testing.T) (*core.Interp, *core.Ctx, *core.Buffer) {
	t.Helper()
	i := core.New()
	prim.Register(i)
	out := &core.Buffer{}
	ctx := &core.Ctx{IO: core.NewIOTable(strings.NewReader(""), out, out)}
	if err := prim.RunInitial(i, ctx); err != nil {
		t.Fatalf("initial.es: %v", err)
	}
	return i, ctx, out
}

func eval(t *testing.T, i *core.Interp, ctx *core.Ctx, src string) core.List {
	t.Helper()
	res, err := i.RunString(ctx, src)
	if err != nil {
		t.Fatalf("RunString(%q): %v", src, err)
	}
	return res
}

func TestEvalWordForms(t *testing.T) {
	i, ctx, _ := harness(t)
	eval(t, i, ctx, "x = a b c; one = solo; empty =")
	tests := []struct{ src, want string }{
		{"result $x", "a b c"},
		{"result $#x", "3"},
		{"result $#one", "1"},
		{"result $#empty", "0"},
		{"result $#nonexistent", "0"},
		{"result $x(2)", "b"},
		{"result $x(3 1)", "c a"},
		{"result $x(9)", ""},
		{"result pre^$one", "presolo"},
		{"result $x^-suf", "a-suf b-suf c-suf"},
		{"result $x^$x", "aa bb cc"},
		{"result (l1 l2)^end", "l1end l2end"},
		{"result a(1 2)b", "a1b a2b"},
		{"result ''", ""},
		{"result a b^''", "a b"},
		{"y = x; result $$y", "a b c"},
		{"result <>{result r1 r2}", "r1 r2"},
		{"result `{echo s1 s2}", "s1 s2"},
		{"n = 2; result $x($n)", "b"},
	}
	for _, tt := range tests {
		got := eval(t, i, ctx, tt.src)
		if got.Flatten(" ") != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got.Flatten(" "), tt.want)
		}
	}
}

func TestEvalBadConcat(t *testing.T) {
	i, ctx, _ := harness(t)
	eval(t, i, ctx, "two = a b; three = x y z")
	_, err := i.RunString(ctx, "result $two^$three")
	if err == nil || !strings.Contains(err.Error(), "bad concatenation") {
		t.Errorf("err = %v", err)
	}
	_, err = i.RunString(ctx, "result $empty-undefined^x")
	if err == nil {
		t.Errorf("concat with null should error, got nil")
	}
}

// A word list is allocated once, at one term per word: with one-term $a
// and $c, `result $a b $c` makes exactly one allocation on a warm
// interpreter, the list itself.
// TestWordListSizedOnce pins what evaluating words allocates: a list of
// several words is made once, a lambda word adds only its closure, and a
// lone $var or <={…} list is the value itself, not a copy.
func TestWordListSizedOnce(t *testing.T) {
	i, ctx, _ := harness(t)
	eval(t, i, ctx, "a = one; c = three")
	for _, tc := range []struct {
		src, want string
		allocs    float64
	}{
		{"result $a b $c", "one b three", 1},
		{"result @ x {x}", "@ x {x}", 2},
		{"x = $a; result $x", "one", 1},
		{"x = <={result $a}; result $x", "one", 2},
	} {
		if got := eval(t, i, ctx, tc.src).Flatten(" "); got != tc.want {
			t.Fatalf("%s = %q", tc.src, got)
		}
		if n := testing.AllocsPerRun(100, func() { i.RunString(ctx, tc.src) }); n != tc.allocs {
			t.Errorf("%s made %v allocations per run, want %v", tc.src, n, tc.allocs)
		}
	}
}

// TestDynamicLiteralMatchAllocatesNothing: a pattern word with no
// unquoted wildcard matches its terms as strings and builds no glob
// pattern, however many terms it has.
func TestDynamicLiteralMatchAllocatesNothing(t *testing.T) {
	i, ctx, _ := harness(t)
	eval(t, i, ctx, "s = abcdefgh; p = abcdefgh; q = x y abcdefgh")
	for _, tc := range []struct {
		src, want string
		allocs    float64
	}{
		{"~ $s $p", "0", 0},
		{"~ $s $q", "0", 0},
	} {
		if got := eval(t, i, ctx, tc.src).Flatten(" "); got != tc.want {
			t.Fatalf("%s = %q", tc.src, got)
		}
		if n := testing.AllocsPerRun(100, func() { i.RunString(ctx, tc.src) }); n != tc.allocs {
			t.Errorf("%s made %v allocations per run, want %v", tc.src, n, tc.allocs)
		}
	}
}

func TestEvalGlobbing(t *testing.T) {
	i, ctx, _ := harness(t)
	dir := t.TempDir()
	for _, f := range []string{"Ex1", "Ex2", "other"} {
		if err := os.WriteFile(filepath.Join(dir, f), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	i.SetDir(dir)
	if got := eval(t, i, ctx, "result Ex*").Flatten(" "); got != "Ex1 Ex2" {
		t.Errorf("glob = %q", got)
	}
	// Quoted stars do not glob.
	if got := eval(t, i, ctx, "result 'Ex*'").Flatten(" "); got != "Ex*" {
		t.Errorf("quoted glob = %q", got)
	}
	// Unmatched patterns stay literal (rc behaviour).
	if got := eval(t, i, ctx, "result zz*").Flatten(" "); got != "zz*" {
		t.Errorf("unmatched glob = %q", got)
	}
	// Assignment values glob like arguments do...
	eval(t, i, ctx, "globbed = Ex*")
	if got := eval(t, i, ctx, "result $#globbed").Flatten(" "); got != "2" {
		t.Errorf("assignment did not glob: %q", got)
	}
	// ... but variable values are never re-globbed on substitution.
	eval(t, i, ctx, "pat = 'Ex*'")
	if got := eval(t, i, ctx, "result $pat").Flatten(" "); got != "Ex*" {
		t.Errorf("variable re-globbed: %q", got)
	}
}

func TestEvalLeftoverArgsBinding(t *testing.T) {
	i, ctx, _ := harness(t)
	eval(t, i, ctx, "fn f a b {result $a / $b / $*}")
	tests := []struct{ src, want string }{
		{"f", "/ /"},
		{"f 1", "1 / / 1"},
		{"f 1 2", "1 / 2 / 1 2"},
		{"f 1 2 3 4", "1 / 2 3 4 / 1 2 3 4"},
	}
	for _, tt := range tests {
		if got := eval(t, i, ctx, tt.src).Flatten(" "); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestEvalForParallel(t *testing.T) {
	i, ctx, _ := harness(t)
	// The third iteration binds b to null, which vanishes from the word
	// list.
	got := eval(t, i, ctx, "acc = ''; for (a = 1 2 3; b = x y) {acc = $acc $a $b}; result $acc").Flatten(" ")
	if got != " 1 x 2 y 3" {
		t.Errorf("parallel for = %q", got)
	}
}

func TestEvalForBreak(t *testing.T) {
	i, ctx, _ := harness(t)
	got := eval(t, i, ctx, "acc = ''; for (x = a b c d) {if {~ $x c} {break}; acc = $acc $x}; result $acc").Flatten(" ")
	if got != " a b" {
		t.Errorf("for-break = %q", got)
	}
	// break carries a value out.
	got = eval(t, i, ctx, "result <>{for (x = a b) {break val}}").Flatten(" ")
	if got != "val" {
		t.Errorf("break value = %q", got)
	}
}

func TestEvalWhile(t *testing.T) {
	i, ctx, _ := harness(t)
	got := eval(t, i, ctx, `
n = ''
while {!~ $#n 5} {n = $n x}
result $#n`).Flatten(" ")
	if got != "5" {
		t.Errorf("while = %q", got)
	}
	got = eval(t, i, ctx, "while {result 0} {break done}").Flatten(" ")
	if got != "done" {
		t.Errorf("while break = %q", got)
	}
}

func TestEvalLocalRestoresOnException(t *testing.T) {
	i, ctx, _ := harness(t)
	eval(t, i, ctx, "g = original")
	_, err := i.RunString(ctx, "local (g = changed) {throw error boom}")
	if err == nil {
		t.Fatal("exception lost")
	}
	if got := i.Var("g").Flatten(" "); got != "original" {
		t.Errorf("g after exception = %q", got)
	}
}

func TestEvalLocalUndefinedRestore(t *testing.T) {
	i, ctx, _ := harness(t)
	eval(t, i, ctx, "local (fresh = x) {result $fresh}")
	if i.Defined("fresh") {
		t.Error("fresh should be undefined after local")
	}
}

func TestEvalLexicalAssignmentSharing(t *testing.T) {
	// "Two functions ... defined in the same lexical scope.  If one of
	// them modifies a lexically scoped variable, that change will affect
	// the variable as seen by the other function."
	i, ctx, _ := harness(t)
	eval(t, i, ctx, `
let (shared = init) {
	fn get {result $shared}
	fn set v {shared = $v}
}`)
	if got := eval(t, i, ctx, "get").Flatten(" "); got != "init" {
		t.Errorf("initial = %q", got)
	}
	eval(t, i, ctx, "set changed")
	if got := eval(t, i, ctx, "get").Flatten(" "); got != "changed" {
		t.Errorf("after set = %q", got)
	}
	// The global namespace is untouched.
	if i.Defined("shared") {
		t.Error("lexical assignment leaked to globals")
	}
}

// Export keeps a binding only when the body reads it from outside.  The
// values of a let binding see the bindings before it, so f's $a is the
// inner let's and f captures nothing; local binds no lexical name, so
// g's $a is the outer let's, and g keeps it.
func TestExportSequentialHeaders(t *testing.T) {
	i, ctx, out := harness(t)
	eval(t, i, ctx, `let (a = outer) {
	fn f {let (a = inner; b = $a) echo $b}
	fn g {local (a = inner; b = $a) echo $b}
}`)
	for _, c := range []struct{ fn, whatis, prints string }{
		{"f", "@ * {let (a = inner; b = $a) echo $b}\n", "inner\n"},
		{"g", "%closure(a=outer)@ * {local (a = inner; b = $a) echo $b}\n", "outer\n"},
	} {
		out.Reset()
		eval(t, i, ctx, "whatis "+c.fn)
		if got := out.String(); got != c.whatis {
			t.Errorf("whatis %s = %q, want %q", c.fn, got, c.whatis)
		}
		out.Reset()
		eval(t, i, ctx, c.fn)
		if got := out.String(); got != c.prints {
			t.Errorf("%s printed %q, want %q", c.fn, got, c.prints)
		}
	}
}

// ... but if the functions are forked, the connection is lost (the
// paper's subshell lament, reproduced by Fork's copy of captured
// bindings).
func TestForkSeversLexicalSharing(t *testing.T) {
	i, ctx, _ := harness(t)
	eval(t, i, ctx, `
let (shared = init) {
	fn get {result $shared}
	fn set v {shared = $v}
}`)
	child := i.Fork()
	if _, err := child.RunString(ctx, "set child-value"); err != nil {
		t.Fatal(err)
	}
	if got := eval(t, child, ctx, "get").Flatten(" "); got != "child-value" {
		t.Errorf("child get = %q", got)
	}
	// Parent unaffected.
	if got := eval(t, i, ctx, "get").Flatten(" "); got != "init" {
		t.Errorf("parent get = %q", got)
	}
}

func TestForkIsolatesGlobalsAndDir(t *testing.T) {
	i, ctx, _ := harness(t)
	eval(t, i, ctx, "g = parent")
	dir := t.TempDir()
	child := i.Fork()
	child.SetDir(dir)
	eval(t, child, ctx, "g = child; h = new")
	if i.Var("g").Flatten("") != "parent" || i.Defined("h") {
		t.Error("fork leaked variables to parent")
	}
	if i.Dir() == dir {
		t.Error("fork leaked directory")
	}
}

// bigList installs a variable with n elements without quadratic shell
// list building.
func bigList(i *core.Interp, name string, n int) {
	vals := make([]string, n)
	for k := range vals {
		vals[k] = "x"
	}
	i.SetVarRaw(name, core.StrList(vals...))
}

func TestTailCallElimination(t *testing.T) {
	i, ctx, _ := harness(t)
	i.SetMaxDepth(100)
	bigList(i, "big", 10000)
	// 10000 tail-recursive iterations cannot fit in 100 apply frames
	// unless tail calls are eliminated.  The paper's echo-nl shape: the
	// leftover parameter consumes the list.
	got := eval(t, i, ctx, `
fn drain head tail {
	if {~ $#head 0} {
		result done
	} {
		drain $tail
	}
}
drain $big`).Flatten(" ")
	if got != "done" {
		t.Errorf("drain = %q", got)
	}
}

func TestNoTailCallsAblation(t *testing.T) {
	i, ctx, _ := harness(t)
	i.NoTailCalls = true
	i.SetMaxDepth(100)
	bigList(i, "big", 1000)
	_, err := i.RunString(ctx, `
fn drain head tail {
	if {~ $#head 0} {result done} {drain $tail}
}
drain $big`)
	if err == nil || !strings.Contains(err.Error(), "too much recursion") {
		t.Errorf("expected recursion failure without TCO, got %v", err)
	}
}

// Tail calls must NOT escape a catch frame: exceptions thrown later are
// still caught.
func TestTailCallRespectsCatch(t *testing.T) {
	i, ctx, _ := harness(t)
	got := eval(t, i, ctx, `
fn thrower {throw error inner}
fn guarded {
	catch @ e msg {result caught $msg} {thrower}
}
guarded`).Flatten(" ")
	if got != "caught inner" {
		t.Errorf("guarded = %q", got)
	}
}

func TestSettorReceivesAndTransformsValue(t *testing.T) {
	i, ctx, _ := harness(t)
	eval(t, i, ctx, "set-v = @ {result ($* $*)}") // settor doubles the value
	eval(t, i, ctx, "v = a b")
	if got := i.Var("v").Flatten(" "); got != "a b a b" {
		t.Errorf("v = %q", got)
	}
}

func TestSettorNotTriggeredByLexical(t *testing.T) {
	i, ctx, out := harness(t)
	eval(t, i, ctx, "set-w = @ {echo settor; return $*}")
	out.Reset()
	eval(t, i, ctx, "let (w = lexical) {w = changed}")
	if out.String() != "" {
		t.Errorf("settor ran on lexical assignment: %q", out.String())
	}
	eval(t, i, ctx, "w = global")
	if out.String() != "settor\n" {
		t.Errorf("settor did not run on global assignment: %q", out.String())
	}
}

func TestInterruptBecomesSignalException(t *testing.T) {
	i, ctx, _ := harness(t)
	i.Interrupt()
	_, err := i.RunString(ctx, "echo hi")
	if !core.ExcNamed(err, "signal") {
		t.Errorf("err = %v, want signal exception", err)
	}
	// Flag is consumed: next command runs.
	eval(t, i, ctx, "result ok")
}

func TestMatchListSubject(t *testing.T) {
	i, ctx, _ := harness(t)
	eval(t, i, ctx, "xs = foo bar baz")
	if !eval(t, i, ctx, "~ $xs ba*").True() {
		t.Error("list subject should match")
	}
	if eval(t, i, ctx, "~ $xs qux").True() {
		t.Error("no element matches qux")
	}
	// Empty subject matches nothing... except the empty pattern list.
	if !eval(t, i, ctx, "~ $undefined-xyz").True() {
		t.Error("~ with null subject and no patterns should be true")
	}
	if eval(t, i, ctx, "~ $undefined-xyz a").True() {
		t.Error("~ null subject with patterns should be false")
	}
}

func TestAllocStatsRecording(t *testing.T) {
	i, ctx, _ := harness(t)
	i.Alloc.Trace = true
	eval(t, i, ctx, "fn f x {result $x $x}; for (k = 1 2 3) {f $k}")
	a := i.Alloc
	if a.Terms == 0 || a.Bindings == 0 || a.Closures == 0 || a.Commands == 0 {
		t.Errorf("alloc stats not recorded: %+v", a)
	}
}

func TestDollarStarInsideNestedLambda(t *testing.T) {
	i, ctx, _ := harness(t)
	// The inner lambda's $* shadows the outer's.
	got := eval(t, i, ctx, "fn outer {result <>{<>{result @ {result $*}} inner-args}}; outer outer-args").Flatten(" ")
	if got != "inner-args" {
		t.Errorf("nested $* = %q", got)
	}
}

func TestRunExternalAndBuiltin(t *testing.T) {
	i, ctx, out := harness(t)
	// Builtins resolve after fn- definitions, before PATH.
	i.RegisterBuiltin("probe-tool", func(in *core.Interp, c *core.Ctx, argv []string) int {
		c.Stdout().Write([]byte("builtin " + argv[1] + "\n"))
		return 0
	})
	eval(t, i, ctx, "probe-tool arg1")
	if out.String() != "builtin arg1\n" {
		t.Errorf("builtin dispatch = %q", out.String())
	}
	if i.Builtin("probe-tool") == nil || i.Builtin("nothere") != nil {
		t.Error("Builtin accessor broken")
	}
	if i.Prim("if") == nil {
		t.Error("Prim accessor broken")
	}
	if len(i.PrimNames()) < 10 {
		t.Error("PrimNames too small")
	}

	// An external that does not exist on an empty path throws.
	i.SetVarRaw("path", core.List{})
	if _, err := i.RunString(ctx, "no-such-program-zz"); err == nil {
		t.Error("missing external should throw")
	}
	// Direct path to a missing file throws too.
	if _, err := i.RunString(ctx, "/no/such/file/zz"); err == nil {
		t.Error("missing file should throw")
	}
}

func TestRunExternalRealProcess(t *testing.T) {
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Skip("no /bin/sh")
	}
	i, ctx, out := harness(t)
	i.SetVarRaw("path", core.StrList("/bin", "/usr/bin"))
	eval(t, i, ctx, "sh -c 'echo external ran'")
	if out.String() != "external ran\n" {
		t.Errorf("external = %q", out.String())
	}
	// Non-zero exit becomes a false status, not an exception.
	res := eval(t, i, ctx, "sh -c 'exit 3'")
	if res.Flatten("") != "3" {
		t.Errorf("status = %v", res)
	}
	// The environment travels: functions are visible to child processes
	// as encoded strings.
	envBin := "/usr/bin/env"
	if _, err := os.Stat(envBin); err != nil {
		t.Skip("no env binary")
	}
	eval(t, i, ctx, "fn marked {}")
	out.Reset()
	eval(t, i, ctx, envBin+" | /bin/grep -c '^fn-marked='")
	if out.String() != "1\n" {
		t.Errorf("fn- not in child env: %q", out.String())
	}
}

func TestIfsVariable(t *testing.T) {
	i, ctx, _ := harness(t)
	// Default ifs splits on whitespace.
	got := eval(t, i, ctx, "result `{echo 'a b:c'}").Flatten(",")
	if got != "a,b:c" {
		t.Errorf("default ifs = %q", got)
	}
	got = eval(t, i, ctx, "local (ifs = :) {result `{echo -n 'a b:c'}}").Flatten(",")
	if got != "a b,c" {
		t.Errorf("colon ifs = %q", got)
	}
}

func TestVarNamesAndIsClosure(t *testing.T) {
	i, ctx, _ := harness(t)
	eval(t, i, ctx, "zz1 = 1; zz2 = {frag}")
	names := i.VarNames()
	found := 0
	for _, n := range names {
		if n == "zz1" || n == "zz2" {
			found++
		}
	}
	if found != 2 {
		t.Errorf("VarNames missing entries: %v", names)
	}
	v := i.Var("zz2")
	if len(v) != 1 || !v[0].IsClosure() {
		t.Error("IsClosure")
	}
	if i.Var("zz1")[0].IsClosure() {
		t.Error("string term reported as closure")
	}
}

func TestCallHookFallbacks(t *testing.T) {
	i, ctx, _ := harness(t)
	// Hook defined: used.
	eval(t, i, ctx, "fn %probe-hook {result via-hook}")
	got, err := i.CallHook(ctx, "%probe-hook", nil)
	if err != nil || got.Flatten("") != "via-hook" {
		t.Errorf("hook = %v %v", got, err)
	}
	// Hook missing but primitive present: falls back.
	got, err = i.CallHook(ctx, "%flatten", core.StrList(":", "a", "b"))
	if err != nil || got.Flatten("") != "a:b" {
		t.Errorf("prim fallback = %v %v", got, err)
	}
	// Neither: error.
	if _, err := i.CallHook(ctx, "%truly-missing", nil); err == nil {
		t.Error("missing hook should error")
	}
}

func TestTailCallErrorMessage(t *testing.T) {
	// The internal tailCall sentinel's Error() exists for debugging; it
	// must never escape to users, but keep it meaningful.
	i, ctx, _ := harness(t)
	res, err := i.RunString(ctx, "fn f {result tailed}; f")
	if err != nil || res.Flatten("") != "tailed" {
		t.Fatalf("TCO smoke: %v %v", res, err)
	}
}

func TestEvalErrorPaths(t *testing.T) {
	i, ctx, _ := harness(t)
	cases := []struct{ src, wantSub string }{
		{"x = a b; result $y($x)", "bad subscript"},
		{"(a b) = v", "single name"},
		{"echo > (two names) {x}", "single name"},
		{"result $#nonexistent^suffix", ""}, // count of missing is "0": fine
	}
	for _, c := range cases {
		_, err := i.RunString(ctx, c.src)
		if c.wantSub == "" {
			if err != nil {
				t.Errorf("%q: unexpected error %v", c.src, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%q: err = %v, want containing %q", c.src, err, c.wantSub)
		}
	}
}

func TestRunStringParseError(t *testing.T) {
	i, ctx, _ := harness(t)
	_, err := i.RunString(ctx, "{unclosed")
	if !core.ExcNamed(err, "error") {
		t.Errorf("parse error = %v", err)
	}
}

// %backquote is a hook: deleting it falls back to the primitive, and
// spoofing it changes `{...} substitution.
func TestBackquoteHookSpoof(t *testing.T) {
	i, ctx, _ := harness(t)
	eval(t, i, ctx, "fn %backquote cmd {result intercepted}")
	got := eval(t, i, ctx, "result `{echo real output}").Flatten(" ")
	if got != "intercepted" {
		t.Errorf("spoofed backquote = %q", got)
	}
	eval(t, i, ctx, "fn-%backquote =")
	got = eval(t, i, ctx, "result `{echo real output}").Flatten(" ")
	if got != "real output" {
		t.Errorf("fallback backquote = %q", got)
	}
}
