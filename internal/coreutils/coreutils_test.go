package coreutils

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"testing/iotest"

	"es/internal/core"
)

// runTool invokes a builtin directly with the given stdin and returns
// (stdout, status).
func runTool(t *testing.T, i *core.Interp, stdin string, argv ...string) (string, int) {
	t.Helper()
	fn := i.Builtin(argv[0])
	if fn == nil {
		t.Fatalf("builtin %q not registered", argv[0])
	}
	var out, errw bytes.Buffer
	ctx := &core.Ctx{IO: core.NewIOTable(strings.NewReader(stdin), &out, &errw)}
	status := fn(i, ctx, argv)
	if errw.Len() > 0 {
		t.Logf("%v stderr: %s", argv, errw.String())
	}
	return out.String(), status
}

func newI(t *testing.T) *core.Interp {
	t.Helper()
	i := core.New()
	Register(i)
	return i
}

func TestCat(t *testing.T) {
	i := newI(t)
	if got, st := runTool(t, i, "line1\nline2\n", "cat"); got != "line1\nline2\n" || st != 0 {
		t.Errorf("cat stdin = %q, %d", got, st)
	}
	dir := t.TempDir()
	f := filepath.Join(dir, "f")
	os.WriteFile(f, []byte("data"), 0o644)
	if got, st := runTool(t, i, "", "cat", f); got != "data" || st != 0 {
		t.Errorf("cat file = %q, %d", got, st)
	}
	if _, st := runTool(t, i, "", "cat", "/missing-file-zz"); st == 0 {
		t.Error("cat missing file should fail")
	}
	// Relative paths resolve against the interpreter's directory.
	i.SetDir(dir)
	if got, _ := runTool(t, i, "", "cat", "f"); got != "data" {
		t.Errorf("cat relative = %q", got)
	}
}

func TestTr(t *testing.T) {
	i := newI(t)
	tests := []struct {
		argv  []string
		stdin string
		want  string
	}{
		{[]string{"tr", "a-z", "A-Z"}, "hello", "HELLO"},
		{[]string{"tr", "abc", "xyz"}, "aabbcc", "xxyyzz"},
		{[]string{"tr", "-d", "aeiou"}, "education", "dctn"},
		{[]string{"tr", "-s", "l"}, "hello all", "helo al"},
		// The paper's pipeline: complement+squeeze into newlines.
		{[]string{"tr", "-cs", "a-zA-Z0-9", `\012`}, "one, two; three\n", "one\ntwo\nthree\n"},
		{[]string{"tr", `\n`, " "}, "a\nb\n", "a b "},
		// A range may end at byte 255.
		{[]string{"tr", "a-\xff", "x"}, "abc\n", "xxx\n"},
	}
	for _, tt := range tests {
		got, st := runTool(t, i, tt.stdin, tt.argv...)
		if got != tt.want || st != 0 {
			t.Errorf("%v < %q = %q (%d), want %q", tt.argv, tt.stdin, got, st, tt.want)
		}
	}
}

// TestTrRangeToByte255 checks that a range ending at byte 255 ends: a
// byte counter would wrap to 0 and loop for ever.
func TestTrRangeToByte255(t *testing.T) {
	if got := expandTrSet("a-\xff"); len(got) != 0xff-'a'+1 || got[0] != 'a' || got[len(got)-1] != 0xff {
		t.Errorf("expandTrSet(a-\\xff) = %d bytes, want %d from a to 0xff", len(got), 0xff-'a'+1)
	}
}

func TestSort(t *testing.T) {
	i := newI(t)
	in := "banana\napple\ncherry\napple\n"
	if got, _ := runTool(t, i, in, "sort"); got != "apple\napple\nbanana\ncherry\n" {
		t.Errorf("sort = %q", got)
	}
	if got, _ := runTool(t, i, in, "sort", "-r"); got != "cherry\nbanana\napple\napple\n" {
		t.Errorf("sort -r = %q", got)
	}
	if got, _ := runTool(t, i, in, "sort", "-u"); got != "apple\nbanana\ncherry\n" {
		t.Errorf("sort -u = %q", got)
	}
	nums := "10\n9\n100\n"
	if got, _ := runTool(t, i, nums, "sort", "-n"); got != "9\n10\n100\n" {
		t.Errorf("sort -n = %q", got)
	}
	if got, _ := runTool(t, i, nums, "sort", "-nr"); got != "100\n10\n9\n" {
		t.Errorf("sort -nr = %q", got)
	}
	// Numeric sort on uniq -c style columns.
	counts := "      2 bb\n     10 aa\n      1 cc\n"
	if got, _ := runTool(t, i, counts, "sort", "-nr"); !strings.HasPrefix(got, "     10 aa") {
		t.Errorf("sort -nr counts = %q", got)
	}
	// -n reads POSIX's initial numeric string: blanks, an optional minus
	// sign, digits, and one optional decimal point with digits.  10-5
	// reads 10, 3.2.1 reads 3.2, +5 reads 0, and so do a prefix with no
	// digits and a number that overflows a float64.
	for _, tc := range []struct{ in, want string }{
		{"10-5\n9\n3.2.1\n3.1\n+5\n4\n", "+5\n3.1\n3.2.1\n4\n9\n10-5\n"},
		{" 2x\n\t-1.5\n-.5\n1\n", "\t-1.5\n-.5\n1\n 2x\n"},
		{"1\n-\n.\n" + strings.Repeat("9", 400) + "\n-1\n", "-1\n-\n.\n" + strings.Repeat("9", 400) + "\n1\n"},
	} {
		if got, _ := runTool(t, i, tc.in, "sort", "-n"); got != tc.want {
			t.Errorf("sort -n < %q = %q, want %q", tc.in, got, tc.want)
		}
	}
	// Ties compare whole lines, so -nr reverses the whole order.
	if got, _ := runTool(t, i, "1 b\n2\n1 a\n", "sort", "-nr"); got != "2\n1 b\n1 a\n" {
		t.Errorf("sort -nr ties = %q", got)
	}
}

func TestUniq(t *testing.T) {
	i := newI(t)
	in := "a\na\nb\na\n"
	if got, _ := runTool(t, i, in, "uniq"); got != "a\nb\na\n" {
		t.Errorf("uniq = %q", got)
	}
	got, _ := runTool(t, i, in, "uniq", "-c")
	want := "      2 a\n      1 b\n      1 a\n"
	if got != want {
		t.Errorf("uniq -c = %q, want %q", got, want)
	}
}

func TestSed(t *testing.T) {
	i := newI(t)
	in := "one\ntwo\nthree\nfour\n"
	if got, _ := runTool(t, i, in, "sed", "2q"); got != "one\ntwo\n" {
		t.Errorf("sed 2q = %q", got)
	}
	if got, _ := runTool(t, i, in, "sed", "q"); got != "one\n" {
		t.Errorf("sed q = %q", got)
	}
	if got, _ := runTool(t, i, "aaa\n", "sed", "s/a/b/"); got != "baa\n" {
		t.Errorf("sed s = %q", got)
	}
	if got, _ := runTool(t, i, "aaa\n", "sed", "s/a/b/g"); got != "bbb\n" {
		t.Errorf("sed s g = %q", got)
	}
	if got, _ := runTool(t, i, in, "sed", "/t/d"); got != "one\nfour\n" {
		t.Errorf("sed /t/d = %q", got)
	}
	if _, st := runTool(t, i, in, "sed", "y/abc/xyz/"); st == 0 {
		t.Error("unsupported sed script should fail")
	}
}

func TestGrep(t *testing.T) {
	i := newI(t)
	in := "alpha\nbeta\ngamma\n"
	if got, st := runTool(t, i, in, "grep", "a$"); got != "alpha\nbeta\ngamma\n" || st != 0 {
		t.Errorf("grep a$ = %q, %d", got, st)
	}
	if got, st := runTool(t, i, in, "grep", "^b"); got != "beta\n" || st != 0 {
		t.Errorf("grep ^b = %q, %d", got, st)
	}
	if _, st := runTool(t, i, in, "grep", "zz"); st != 1 {
		t.Errorf("grep no match status = %d", st)
	}
	if got, _ := runTool(t, i, in, "grep", "-v", "a"); got != "" {
		t.Errorf("grep -v a = %q", got)
	}
	if got, _ := runTool(t, i, in, "grep", "-c", "a"); got != "3\n" {
		t.Errorf("grep -c = %q", got)
	}
	if got, _ := runTool(t, i, in, "grep", "-i", "ALPHA"); got != "alpha\n" {
		t.Errorf("grep -i = %q", got)
	}
}

func TestHeadTail(t *testing.T) {
	i := newI(t)
	var b strings.Builder
	for k := 1; k <= 20; k++ {
		b.WriteString(strings.Repeat("x", 0))
		b.WriteString("line")
		b.WriteByte(byte('0' + k%10))
		b.WriteByte('\n')
	}
	in := b.String()
	got, _ := runTool(t, i, in, "head", "-3")
	if got != "line1\nline2\nline3\n" {
		t.Errorf("head -3 = %q", got)
	}
	got, _ = runTool(t, i, in, "head", "-n", "2")
	if got != "line1\nline2\n" {
		t.Errorf("head -n 2 = %q", got)
	}
	got, _ = runTool(t, i, in, "tail", "-2")
	if got != "line9\nline0\n" {
		t.Errorf("tail -2 = %q", got)
	}
	// default 10
	got, _ = runTool(t, i, in, "head")
	if strings.Count(got, "\n") != 10 {
		t.Errorf("head default = %q", got)
	}
}

func TestWc(t *testing.T) {
	i := newI(t)
	got, _ := runTool(t, i, "one two\nthree\n", "wc")
	f := strings.Fields(got)
	if len(f) != 3 || f[0] != "2" || f[1] != "3" || f[2] != "14" {
		t.Errorf("wc = %q", got)
	}
	got, _ = runTool(t, i, "a b c\n", "wc", "-w")
	if strings.TrimSpace(got) != "3" {
		t.Errorf("wc -w = %q", got)
	}
	got, _ = runTool(t, i, "a\nb\n", "wc", "-l")
	if strings.TrimSpace(got) != "2" {
		t.Errorf("wc -l = %q", got)
	}
}

func TestTestBuiltin(t *testing.T) {
	i := newI(t)
	dir := t.TempDir()
	file := filepath.Join(dir, "plain")
	os.WriteFile(file, []byte("data"), 0o644)
	exe := filepath.Join(dir, "exe")
	os.WriteFile(exe, []byte("#!/bin/sh\n"), 0o755)

	tests := []struct {
		argv []string
		want int
	}{
		{[]string{"test", "-f", file}, 0},
		{[]string{"test", "-f", dir}, 1},
		{[]string{"test", "-d", dir}, 0},
		{[]string{"test", "-d", file}, 1},
		{[]string{"test", "-e", file}, 0},
		{[]string{"test", "-e", filepath.Join(dir, "nope")}, 1},
		{[]string{"test", "-x", exe}, 0},
		{[]string{"test", "-x", file}, 1},
		{[]string{"test", "-s", file}, 0},
		{[]string{"test", "-n", "x"}, 0},
		{[]string{"test", "-n", ""}, 1},
		{[]string{"test", "-z", ""}, 0},
		{[]string{"test", "a", "=", "a"}, 0},
		{[]string{"test", "a", "=", "b"}, 1},
		{[]string{"test", "a", "!=", "b"}, 0},
		{[]string{"test", "2", "-lt", "10"}, 0},
		{[]string{"test", "10", "-lt", "2"}, 1},
		{[]string{"test", "5", "-ge", "5"}, 0},
		{[]string{"test", "!", "-f", file}, 1},
		{[]string{"test", "nonempty"}, 0},
		{[]string{"test", ""}, 1},
		{[]string{"test"}, 1},
		{[]string{"[", "a", "=", "a", "]"}, 0},
		{[]string{"[", "a", "=", "a"}, 1}, // missing ]
	}
	for _, tt := range tests {
		if _, st := runTool(t, i, "", tt.argv...); st != tt.want {
			t.Errorf("%v = %d, want %d", tt.argv, st, tt.want)
		}
	}
}

func TestLs(t *testing.T) {
	i := newI(t)
	dir := t.TempDir()
	for _, f := range []string{"b", "a", ".hidden"} {
		os.WriteFile(filepath.Join(dir, f), nil, 0o644)
	}
	os.Mkdir(filepath.Join(dir, "sub"), 0o755)
	got, st := runTool(t, i, "", "ls", dir)
	if st != 0 || got != "a\nb\nsub\n" {
		t.Errorf("ls = %q, %d", got, st)
	}
	got, _ = runTool(t, i, "", "ls", "-a", dir)
	if got != ".hidden\na\nb\nsub\n" {
		t.Errorf("ls -a = %q", got)
	}
	if _, st := runTool(t, i, "", "ls", "/no/such/dir"); st == 0 {
		t.Error("ls missing dir should fail")
	}
	// ls of the interpreter's working directory by default.
	i.SetDir(dir)
	got, _ = runTool(t, i, "", "ls")
	if got != "a\nb\nsub\n" {
		t.Errorf("ls cwd = %q", got)
	}
}

func TestMkdirRmTouch(t *testing.T) {
	i := newI(t)
	dir := t.TempDir()
	i.SetDir(dir)
	if _, st := runTool(t, i, "", "mkdir", "d1"); st != 0 {
		t.Fatal("mkdir failed")
	}
	if _, st := runTool(t, i, "", "mkdir", "-p", "d2/nested/deep"); st != 0 {
		t.Fatal("mkdir -p failed")
	}
	if _, st := runTool(t, i, "", "touch", "d1/file"); st != 0 {
		t.Fatal("touch failed")
	}
	if fi, err := os.Stat(filepath.Join(dir, "d1/file")); err != nil || fi.IsDir() {
		t.Fatal("touched file missing")
	}
	if _, st := runTool(t, i, "", "rm", "d1/file"); st != 0 {
		t.Fatal("rm failed")
	}
	if _, st := runTool(t, i, "", "rm", "d1/file"); st == 0 {
		t.Error("rm of missing file should fail")
	}
	if _, st := runTool(t, i, "", "rm", "-f", "d1/file"); st != 0 {
		t.Error("rm -f of missing file should succeed")
	}
	if _, st := runTool(t, i, "", "rm", "-r", "d2"); st != 0 {
		t.Error("rm -r failed")
	}
	if _, err := os.Stat(filepath.Join(dir, "d2")); err == nil {
		t.Error("rm -r left directory")
	}
}

func TestPwdBasenameDirname(t *testing.T) {
	i := newI(t)
	dir := t.TempDir()
	i.SetDir(dir)
	if got, _ := runTool(t, i, "", "pwd"); got != dir+"\n" {
		t.Errorf("pwd = %q", got)
	}
	if got, _ := runTool(t, i, "", "basename", "/a/b/c.txt"); got != "c.txt\n" {
		t.Errorf("basename = %q", got)
	}
	if got, _ := runTool(t, i, "", "basename", "/a/b/c.txt", ".txt"); got != "c\n" {
		t.Errorf("basename suffix = %q", got)
	}
	if got, _ := runTool(t, i, "", "dirname", "/a/b/c.txt"); got != "/a/b\n" {
		t.Errorf("dirname = %q", got)
	}
}

func TestSeq(t *testing.T) {
	i := newI(t)
	if got, _ := runTool(t, i, "", "seq", "3"); got != "1\n2\n3\n" {
		t.Errorf("seq 3 = %q", got)
	}
	if got, _ := runTool(t, i, "", "seq", "2", "4"); got != "2\n3\n4\n" {
		t.Errorf("seq 2 4 = %q", got)
	}
	if got, _ := runTool(t, i, "", "seq", "10", "-5", "0"); got != "10\n5\n0\n" {
		t.Errorf("seq step = %q", got)
	}
	if _, st := runTool(t, i, "", "seq", "x"); st == 0 {
		t.Error("seq x should fail")
	}
}

func TestDate(t *testing.T) {
	i := newI(t)
	got, st := runTool(t, i, "", "date", "+%y-%m-%d")
	if st != 0 || len(strings.TrimSpace(got)) != 8 || strings.Count(got, "-") != 2 {
		t.Errorf("date +%%y-%%m-%%d = %q", got)
	}
	if got, _ := runTool(t, i, "", "date", "+literal%%"); got != "literal%\n" {
		t.Errorf("date literal = %q", got)
	}
	if _, st := runTool(t, i, "", "date", "+%Q"); st == 0 {
		t.Error("unsupported directive should fail")
	}
	if got, st := runTool(t, i, "", "date"); st != 0 || len(got) < 20 {
		t.Errorf("bare date = %q", got)
	}
}

func TestCutTeeRevTacNl(t *testing.T) {
	i := newI(t)
	if got, _ := runTool(t, i, "a:b:c\nd:e:f\n", "cut", "-d", ":", "-f", "2"); got != "b\ne\n" {
		t.Errorf("cut = %q", got)
	}
	if got, _ := runTool(t, i, "a:b:c\n", "cut", "-d:", "-f1,3"); got != "a:c\n" {
		t.Errorf("cut multi = %q", got)
	}
	if got, _ := runTool(t, i, "abc\n", "rev"); got != "cba\n" {
		t.Errorf("rev = %q", got)
	}
	if got, _ := runTool(t, i, "1\n2\n3\n", "tac"); got != "3\n2\n1\n" {
		t.Errorf("tac = %q", got)
	}
	got, _ := runTool(t, i, "x\ny\n", "nl")
	if !strings.Contains(got, "1\tx") || !strings.Contains(got, "2\ty") {
		t.Errorf("nl = %q", got)
	}
	dir := t.TempDir()
	i.SetDir(dir)
	if got, _ := runTool(t, i, "payload\n", "tee", "copy"); got != "payload\n" {
		t.Errorf("tee stdout = %q", got)
	}
	data, err := os.ReadFile(filepath.Join(dir, "copy"))
	if err != nil || string(data) != "payload\n" {
		t.Errorf("tee file = %q, %v", data, err)
	}
}

func TestCpMvCmp(t *testing.T) {
	i := newI(t)
	dir := t.TempDir()
	i.SetDir(dir)
	os.WriteFile(filepath.Join(dir, "src"), []byte("content"), 0o644)
	if _, st := runTool(t, i, "", "cp", "src", "dst"); st != 0 {
		t.Fatal("cp failed")
	}
	if _, st := runTool(t, i, "", "cmp", "src", "dst"); st != 0 {
		t.Error("cmp equal files should succeed")
	}
	os.WriteFile(filepath.Join(dir, "other"), []byte("different"), 0o644)
	if _, st := runTool(t, i, "", "cmp", "src", "other"); st == 0 {
		t.Error("cmp different files should fail")
	}
	if _, st := runTool(t, i, "", "mv", "dst", "moved"); st != 0 {
		t.Fatal("mv failed")
	}
	if _, err := os.Stat(filepath.Join(dir, "dst")); err == nil {
		t.Error("mv left source")
	}
}

func TestExpr(t *testing.T) {
	i := newI(t)
	tests := []struct {
		argv   []string
		out    string
		status int
	}{
		{[]string{"expr", "2", "+", "3"}, "5\n", 0},
		{[]string{"expr", "2", "-", "2"}, "0\n", 1},
		{[]string{"expr", "6", "*", "7"}, "42\n", 0},
		{[]string{"expr", "7", "/", "2"}, "3\n", 0},
		{[]string{"expr", "7", "%", "2"}, "1\n", 0},
		{[]string{"expr", "2", "<", "3"}, "1\n", 0},
		{[]string{"expr", "3", "<", "2"}, "0\n", 1},
		{[]string{"expr", "1", "/", "0"}, "", 1},
	}
	for _, tt := range tests {
		got, st := runTool(t, i, "", tt.argv...)
		if got != tt.out || st != tt.status {
			t.Errorf("%v = %q,%d want %q,%d", tt.argv, got, st, tt.out, tt.status)
		}
	}
}

func TestPrintf(t *testing.T) {
	i := newI(t)
	if got, _ := runTool(t, i, "", "printf", `%s-%d\n`, "x", "42"); got != "x-42\n" {
		t.Errorf("printf = %q", got)
	}
	if got, _ := runTool(t, i, "", "printf", `a\tb`); got != "a\tb" {
		t.Errorf("printf escapes = %q", got)
	}
}

func TestTrueFalseEnvYes(t *testing.T) {
	i := newI(t)
	if _, st := runTool(t, i, "", "true"); st != 0 {
		t.Error("true")
	}
	if _, st := runTool(t, i, "", "false"); st != 1 {
		t.Error("false")
	}
	i.SetVarRaw("MARKER", core.StrList("here"))
	got, _ := runTool(t, i, "", "env")
	if !strings.Contains(got, "MARKER=here") {
		t.Errorf("env = %q", got)
	}
	got, _ = runTool(t, i, "", "yes", "ok")
	if !strings.HasPrefix(got, "ok\nok\n") {
		t.Errorf("yes = %q", got[:20])
	}
}

func TestXargs(t *testing.T) {
	i := newI(t)
	var out bytes.Buffer
	ctx := &core.Ctx{IO: core.NewIOTable(strings.NewReader("a b\nc\n"), &out, &out)}
	st := i.Builtin("xargs")(i, ctx, []string{"xargs", "printf", `<%s><%s><%s>`})
	if st != 0 || out.String() != "<a><b><c>" {
		t.Errorf("xargs = %q, %d", out.String(), st)
	}
	// Default command is echo (the primitive is absent here, so it
	// reports failure rather than crashing).
	var out2 bytes.Buffer
	ctx2 := &core.Ctx{IO: core.NewIOTable(strings.NewReader("x\n"), &out2, &out2)}
	i.Builtin("xargs")(i, ctx2, []string{"xargs"})
}

func TestSleepAndErrors(t *testing.T) {
	i := newI(t)
	if _, st := runTool(t, i, "", "sleep", "0.01"); st != 0 {
		t.Error("sleep 0.01 failed")
	}
	if _, st := runTool(t, i, "", "sleep", "forever"); st == 0 {
		t.Error("sleep forever should fail")
	}
	if _, st := runTool(t, i, "", "sleep"); st == 0 {
		t.Error("sleep without args should fail")
	}
}

func TestTeeAppend(t *testing.T) {
	i := newI(t)
	dir := t.TempDir()
	i.SetDir(dir)
	runTool(t, i, "one\n", "tee", "log")
	runTool(t, i, "two\n", "tee", "-a", "log")
	data, _ := os.ReadFile(filepath.Join(dir, "log"))
	if string(data) != "one\ntwo\n" {
		t.Errorf("tee -a = %q", data)
	}
}

func TestGrepQuiet(t *testing.T) {
	i := newI(t)
	out, st := runTool(t, i, "needle\n", "grep", "-q", "needle")
	if st != 0 || out != "" {
		t.Errorf("grep -q = %q, %d", out, st)
	}
	if _, st := runTool(t, i, "hay\n", "grep", "-q", "needle"); st != 1 {
		t.Error("grep -q miss should be 1")
	}
	if _, st := runTool(t, i, "", "grep", "["); st == 0 {
		t.Error("bad regexp should fail")
	}
	if _, st := runTool(t, i, "", "grep"); st == 0 {
		t.Error("missing pattern should fail")
	}
}

func TestSedPrintForm(t *testing.T) {
	i := newI(t)
	got, _ := runTool(t, i, "keep\ndrop\n", "sed", "-n", "/keep/p")
	if got != "keep\n" {
		t.Errorf("sed -n /re/p = %q", got)
	}
	got, _ = runTool(t, i, "a\nb\n", "sed", "/a/p")
	if got != "a\na\nb\n" {
		t.Errorf("sed /re/p = %q", got)
	}
}

func TestDateMoreDirectives(t *testing.T) {
	i := newI(t)
	got, st := runTool(t, i, "", "date", "+%Y-%m-%dT%H:%M:%S")
	if st != 0 || len(strings.TrimSpace(got)) != 19 {
		t.Errorf("timestamp = %q", got)
	}
	got, st = runTool(t, i, "", "date", "+%s")
	if st != 0 || len(strings.TrimSpace(got)) < 9 {
		t.Errorf("epoch = %q", got)
	}
}

func TestLsLong(t *testing.T) {
	i := newI(t)
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "f"), []byte("12345"), 0o644)
	got, st := runTool(t, i, "", "ls", "-l", dir)
	if st != 0 || !strings.Contains(got, "5 f") {
		t.Errorf("ls -l = %q", got)
	}
	if _, st := runTool(t, i, "", "ls", "-Z", dir); st == 0 {
		t.Error("unknown flag should fail")
	}
}

func TestHeadOfFile(t *testing.T) {
	i := newI(t)
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "f"), []byte("1\n2\n3\n"), 0o644)
	i.SetDir(dir)
	if got, _ := runTool(t, i, "", "head", "-2", "f"); got != "1\n2\n" {
		t.Errorf("head file = %q", got)
	}
	if _, st := runTool(t, i, "", "head", "-2", "missing"); st == 0 {
		t.Error("head of missing file should fail")
	}
	if _, st := runTool(t, i, "", "head", "-nx"); st == 0 {
		t.Error("bad count should fail")
	}
}

// TestLineTooLong checks that the line-oriented builtins report a line
// over the 16 MiB cap, or a failed read, and fail: 1, or 2 for grep,
// whose 1 means no match.
func TestLineTooLong(t *testing.T) {
	i := newI(t)
	long := "a\n" + strings.Repeat("x", 16<<20+1) + "\nb\n"
	readErr := errors.New("read failed")
	for _, tc := range []struct {
		argv   []string
		status int
	}{
		{[]string{"sort"}, 1},
		{[]string{"uniq"}, 1},
		{[]string{"sed", "5q"}, 1},
		{[]string{"grep", "b"}, 2},
		{[]string{"head"}, 1},
		{[]string{"tail"}, 1},
		{[]string{"cut", "-f1"}, 1},
		{[]string{"rev"}, 1},
		{[]string{"tac"}, 1},
		{[]string{"nl"}, 1},
	} {
		for _, in := range []struct {
			r   io.Reader
			err error
		}{
			{strings.NewReader(long), bufio.ErrTooLong},
			{io.MultiReader(strings.NewReader("a\n"), iotest.ErrReader(readErr)), readErr},
		} {
			var out, errw bytes.Buffer
			ctx := &core.Ctx{IO: core.NewIOTable(in.r, &out, &errw)}
			status := i.Builtin(tc.argv[0])(i, ctx, tc.argv)
			want := tc.argv[0] + ": " + in.err.Error() + "\n"
			if status != tc.status || errw.String() != want {
				t.Errorf("%v on %v: status %d, stderr %q; want %d, %q",
					tc.argv, in.err, status, errw.String(), tc.status, want)
			}
		}
	}
}

// TestSedScriptForms checks sed's hand-written recognisers against the
// regexps that define the script forms: the same scripts must be
// accepted, with the same parts.
func TestSedScriptForms(t *testing.T) {
	quitRE := regexp.MustCompile(`^(\d*)q$`)
	addrRE := regexp.MustCompile(`^/(.*)/([dp])$`)
	check := func(script string) {
		digits, ok := sedQuit(script)
		if m := quitRE.FindStringSubmatch(script); ok != (m != nil) || ok && digits != m[1] {
			t.Errorf("sedQuit(%q) = %q, %v; the regexp matches %q", script, digits, ok, m)
		}
		pat, cmd, ok := sedAddress(script)
		if m := addrRE.FindStringSubmatch(script); ok != (m != nil) || ok && (pat != m[1] || string(cmd) != m[2]) {
			t.Errorf("sedAddress(%q) = %q, %q, %v; the regexp matches %q", script, pat, cmd, ok, m)
		}
	}
	for _, script := range []string{
		"q", "3q", "007q", strings.Repeat("9", 30) + "q", "qq", "q3", " 3q",
		"//d", "/a/p", "/a/b/d", "/a/x", "/a\n/d", "/d", "/", "s/a/b/",
		"", "3q\n", "/a/d\n", "\n/a/d", "٣q", "/\xff/p", "/é/d",
	} {
		check(script)
	}
	// Every script of up to five bytes over an alphabet that reaches each
	// branch of both recognisers.
	const alphabet = "/dpq3a\n"
	scripts := []string{""}
	for n := 0; n < 5; n++ {
		var next []string
		for _, s := range scripts {
			for k := 0; k < len(alphabet); k++ {
				next = append(next, s+alphabet[k:k+1])
			}
		}
		for _, s := range next {
			check(s)
		}
		scripts = next
	}
}
