package es

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestShellRunResult(t *testing.T) {
	sh, _, _ := newTestShell(t)
	res, err := sh.Run("result a b c")
	if err != nil {
		t.Fatal(err)
	}
	if res.Flatten(" ") != "a b c" {
		t.Errorf("res = %v", res)
	}
}

func TestShellGetSet(t *testing.T) {
	sh, _, _ := newTestShell(t)
	if err := sh.Set("greeting", "hello", "world"); err != nil {
		t.Fatal(err)
	}
	if got := sh.Get("greeting").Flatten(","); got != "hello,world" {
		t.Errorf("greeting = %q", got)
	}
	// Set runs settors, like any assignment.
	if _, err := sh.Run("set-observed = @ {return transformed}"); err != nil {
		t.Fatal(err)
	}
	if err := sh.Set("observed", "raw"); err != nil {
		t.Fatal(err)
	}
	if got := sh.Get("observed").Flatten(""); got != "transformed" {
		t.Errorf("settor through Set: %q", got)
	}
}

func TestShellRegisterPrim(t *testing.T) {
	sh, out, _ := newTestShell(t)
	sh.RegisterPrim("host-add", func(i *Interp, ctx *Ctx, args List) (List, error) {
		total := 0
		for _, a := range args {
			n := 0
			for _, ch := range a.String() {
				n = n*10 + int(ch-'0')
			}
			total += n
		}
		return StrList(itoa(total)), nil
	})
	got := runOut(t, sh, out, "echo <>{$&host-add 20 22}")
	if got != "42\n" {
		t.Errorf("custom prim = %q", got)
	}
	// And it can be hooked by name like any service.
	got = runOut(t, sh, out, "fn-add = $&host-add; echo <>{add 1 2 3}")
	if got != "6\n" {
		t.Errorf("hooked prim = %q", got)
	}
}

// TestPrimResolvedAtRunTime: a literal $&name head is looked up in the
// running shell's registry each time it runs.  Every run below shares one
// compiled unit, so a primitive registered after that unit was compiled
// is found, and only by the shell that registered it.
func TestPrimResolvedAtRunTime(t *testing.T) {
	const src = "$&probe-late 7"
	a, _, _ := newTestShell(t)
	b, _, _ := newTestShell(t)
	compiles := func() int64 {
		for _, s := range a.Interp().CacheStats() {
			if s.Name == "compile" {
				return s.Misses
			}
		}
		t.Fatal("no compile cache in CacheStats")
		return 0
	}
	unknown := func(sh *Shell, who string) {
		t.Helper()
		if _, err := sh.Run(src); err == nil || !strings.Contains(err.Error(), "$&probe-late: unknown primitive") {
			t.Errorf("%s: err = %v, want $&probe-late: unknown primitive", who, err)
		}
	}
	unknown(a, "A before registering")
	before := compiles()
	a.RegisterPrim("probe-late", func(i *Interp, ctx *Ctx, args List) (List, error) {
		return args, nil
	})
	if res, err := a.Run(src); err != nil || res.Flatten(" ") != "7" {
		t.Errorf("A after registering = %v, %v; want 7", res, err)
	}
	unknown(b, "B, which never registered it")
	if after := compiles(); after != before {
		t.Errorf("%d more compile misses: the runs did not share one unit", after-before)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestShellRegisterBuiltin(t *testing.T) {
	sh, out, _ := newTestShell(t)
	sh.RegisterBuiltin("shout", func(i *Interp, ctx *Ctx, argv []string) int {
		ctx.Stdout().Write([]byte(strings.ToUpper(strings.Join(argv[1:], " ")) + "\n"))
		return 0
	})
	got := runOut(t, sh, out, "shout hello there")
	if got != "HELLO THERE\n" {
		t.Errorf("builtin = %q", got)
	}
	// fn- definitions shadow builtins.
	got = runOut(t, sh, out, "fn shout {echo quiet}; shout hello")
	if got != "quiet\n" {
		t.Errorf("shadowing = %q", got)
	}
}

func TestShellRunFileArgs(t *testing.T) {
	sh, out, _ := newTestShell(t)
	dir := t.TempDir()
	path := dir + "/script.es"
	if err := writeFile(path, "echo args: $*; echo count: $#*"); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if _, err := sh.RunFile(path, "x", "y"); err != nil {
		t.Fatal(err)
	}
	if out.String() != "args: x y\ncount: 2\n" {
		t.Errorf("script output = %q", out.String())
	}
}

func TestShellErrorsAreExceptions(t *testing.T) {
	sh, _, _ := newTestShell(t)
	_, err := sh.Run("throw kaboom with args")
	exc, ok := err.(*Exception)
	if !ok {
		t.Fatalf("err = %T", err)
	}
	if exc.Name() != "kaboom" || len(exc.Args) != 3 {
		t.Errorf("exc = %v", exc)
	}
	if !IsException(err, "kaboom") || IsException(err, "error") {
		t.Error("IsException broken")
	}
	// Parse errors become error exceptions too.
	_, err = sh.Run("{unclosed")
	if !IsException(err, "error") {
		t.Errorf("parse error = %v", err)
	}
}

// Blocks in command position are grouping: transparent to return, no
// rebinding of $*.  (Regression: a block boundary must not swallow
// return, or the autoload spoof and Figure 3 both break.)
func TestShellBlockGrouping(t *testing.T) {
	sh, out, _ := newTestShell(t)
	got := runOut(t, sh, out, `
fn f {
	{ { return deep } }
	echo unreachable
}
echo <>{f}`)
	if got != "deep\n" {
		t.Errorf("return through blocks = %q", got)
	}
	got = runOut(t, sh, out, "fn g a b { {echo inner sees $*} }; g 1 2")
	if got != "inner sees 1 2\n" {
		t.Errorf("block $* = %q", got)
	}
	// But a block with arguments is an application with fresh $*.
	got = runOut(t, sh, out, "fn h a { {echo args $*} x y }; h 1")
	if got != "args x y\n" {
		t.Errorf("applied block $* = %q", got)
	}
}

func TestShellDefaultIO(t *testing.T) {
	// A shell with zero options works and discards output.
	sh, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Run("echo into the void"); err != nil {
		t.Fatal(err)
	}
	// Reading stdin hits immediate EOF.
	if _, err := sh.Run("read"); !IsException(err, "eof") {
		t.Errorf("read = %v", err)
	}
}

func TestShellNoCoreutils(t *testing.T) {
	var out bytes.Buffer
	sh, err := New(Options{Stdout: &out, NoCoreutils: true})
	if err != nil {
		t.Fatal(err)
	}
	sh.Set("path") // and nothing external either
	if _, err := sh.Run("cat"); err == nil {
		t.Error("cat should be unavailable without coreutils")
	}
	// Primitives still work.
	if _, err := sh.Run("echo fine"); err != nil {
		t.Errorf("echo: %v", err)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestShellOptionsDir(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	sh, err := New(Options{Stdout: &out, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Interp().Dir() != dir {
		t.Errorf("Dir = %q", sh.Interp().Dir())
	}
	if _, err := sh.Run("pwd"); err != nil {
		t.Fatal(err)
	}
	if out.String() != dir+"\n" {
		t.Errorf("pwd = %q", out.String())
	}
}
