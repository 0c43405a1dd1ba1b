package es

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	dumpBinOnce sync.Once
	dumpBinPath string
	dumpBinErr  error
)

func buildEsdump(t *testing.T) string {
	t.Helper()
	dumpBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "esdumpbin")
		if err != nil {
			dumpBinErr = err
			return
		}
		dumpBinPath = filepath.Join(dir, "esdump")
		cmd := exec.Command("go", "build", "-o", dumpBinPath, "./cmd/esdump")
		cmd.Dir = mustGetwd()
		if out, err := cmd.CombinedOutput(); err != nil {
			dumpBinErr = err
			t.Logf("go build: %s", out)
		}
	})
	if dumpBinErr != nil {
		t.Skipf("cannot build esdump: %v", dumpBinErr)
	}
	return dumpBinPath
}

func TestEsdumpCoreForms(t *testing.T) {
	bin := buildEsdump(t)
	tests := []struct{ src, want string }{
		{"ls > /tmp/foo", "%create 1 /tmp/foo {ls}\n"},
		{"a | b | c", "%pipe {a} 1 0 {b} 1 0 {c}\n"},
		{"a && b || c", "%or {%and {a} {b}} {c}\n"},
		{"sleep 9 &", "%background {sleep 9}\n"},
		{"fn d {date}", "fn-d = {date}\n"},
	}
	for _, tt := range tests {
		out, err := exec.Command(bin, "-core", tt.src).Output()
		if err != nil {
			t.Fatalf("esdump -core %q: %v", tt.src, err)
		}
		if string(out) != tt.want {
			t.Errorf("esdump -core %q = %q, want %q", tt.src, out, tt.want)
		}
	}
}

func TestEsdumpAllStagesAndStdin(t *testing.T) {
	bin := buildEsdump(t)
	cmd := exec.Command(bin)
	cmd.Stdin = strings.NewReader("echo hi > f\n")
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	for _, want := range []string{"tokens:", "surface:", "core:", "echo hi > f", "%create 1 f {echo hi}"} {
		if !strings.Contains(s, want) {
			t.Errorf("esdump output missing %q:\n%s", want, s)
		}
	}
}

func TestEsdumpParseError(t *testing.T) {
	bin := buildEsdump(t)
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-core", "{unclosed")
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("esdump should fail on a parse error")
	}
	if !strings.Contains(stderr.String(), "expected") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

func TestEsBinaryVersionAndTco(t *testing.T) {
	bin := buildEs(t)
	out, err := exec.Command(bin, "-v").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "es-go") {
		t.Errorf("-v = %q", out)
	}
	// -no-tco still runs shallow programs.
	out, err = exec.Command(bin, "-no-tco", "-c", "echo ok").Output()
	if err != nil || string(out) != "ok\n" {
		t.Errorf("-no-tco: %q, %v", out, err)
	}
}

// The es binary reports uncaught exceptions on stderr with status 1.
func TestEsBinaryUncaughtException(t *testing.T) {
	bin := buildEs(t)
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-c", "throw grue darkness")
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("status: %v", err)
	}
	if !strings.Contains(stderr.String(), "uncaught exception: grue darkness") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

var (
	fmtBinOnce sync.Once
	fmtBinPath string
	fmtBinErr  error
)

func buildEsfmt(t *testing.T) string {
	t.Helper()
	fmtBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "esfmtbin")
		if err != nil {
			fmtBinErr = err
			return
		}
		fmtBinPath = filepath.Join(dir, "esfmt")
		cmd := exec.Command("go", "build", "-o", fmtBinPath, "./cmd/esfmt")
		cmd.Dir = mustGetwd()
		if out, err := cmd.CombinedOutput(); err != nil {
			fmtBinErr = err
			t.Logf("go build: %s", out)
		}
	})
	if fmtBinErr != nil {
		t.Skipf("cannot build esfmt: %v", fmtBinErr)
	}
	return fmtBinPath
}

// esfmt formats the paper's trace function exactly as the paper typesets
// it.
func TestEsfmtTraceGolden(t *testing.T) {
	bin := buildEsfmt(t)
	cmd := exec.Command(bin)
	cmd.Stdin = strings.NewReader(
		"fn trace functions {for (func = $functions) let (old = $(fn-$func)) fn $func args {echo calling $func $args; $old $args}}\n")
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	want := `fn trace functions {
	for (func = $functions)
		let (old = $(fn-$func))
			fn $func args {
				echo calling $func $args
				$old $args
			}
}
`
	if string(out) != want {
		t.Errorf("esfmt output:\n%s\nwant:\n%s", out, want)
	}
}

// esfmt -w is idempotent and preserves program meaning on every shipped
// script.
func TestEsfmtShippedScripts(t *testing.T) {
	bin := buildEsfmt(t)
	wd := mustGetwd()
	files, _ := filepath.Glob(filepath.Join(wd, "lib", "*.es"))
	files = append(files, filepath.Join(wd, "testdata", "selftest.es"))
	for _, f := range files {
		out1, err := exec.Command(bin, f).Output()
		if err != nil {
			t.Errorf("esfmt %s: %v", f, err)
			continue
		}
		// Idempotence: formatting the formatted output changes nothing.
		cmd := exec.Command(bin)
		cmd.Stdin = strings.NewReader(string(out1))
		out2, err := cmd.Output()
		if err != nil {
			t.Errorf("esfmt reformat %s: %v", f, err)
			continue
		}
		if string(out1) != string(out2) {
			t.Errorf("esfmt not idempotent on %s", f)
		}
	}
}

// esfmt keeps no comments, so -w leaves a file that holds one as it is:
// it exits 2 naming the comment's line, while the stdout mode formats the
// file and prints the same message as a warning.
func TestEsfmtWriteKeepsCommentedFile(t *testing.T) {
	bin := buildEsfmt(t)
	src, err := os.ReadFile(filepath.Join(mustGetwd(), "lib", "trace.es"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.es")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-w", path)
	cmd.Stderr = &stderr
	err = cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("esfmt -w on a file with comments: %v (stderr %q), want exit status 2", err, stderr.String())
	}
	note := path + ":1: a comment, which esfmt does not keep"
	if !strings.Contains(stderr.String(), note) {
		t.Errorf("stderr %q does not name the comment's line (%q)", stderr.String(), note)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, src) {
		t.Errorf("esfmt -w changed a file with comments (%v):\n%s", err, got)
	}

	stderr.Reset()
	cmd = exec.Command(bin, path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil || !strings.HasPrefix(string(out), "fn trace functions {") {
		t.Errorf("esfmt %s: %v, output %q", path, err, out)
	}
	if !strings.Contains(stderr.String(), "warning: "+note) {
		t.Errorf("stderr %q lacks the warning %q", stderr.String(), note)
	}
}

// A file without comments is still rewritten in place, '#' in a quoted
// word, a count or a heredoc body notwithstanding.
func TestEsfmtWriteRewritesFile(t *testing.T) {
	bin := buildEsfmt(t)
	path := filepath.Join(t.TempDir(), "f.es")
	src := "fn f {a; b}\necho '#' $#x\ncat << EOF\n# body\nEOF\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(bin, "-w", path).CombinedOutput(); err != nil || len(out) > 0 {
		t.Fatalf("esfmt -w: %v, output %q", err, out)
	}
	want := "fn f {\n\ta\n\tb\n}\necho '#' $#x\ncat <<< '# body\n'\n"
	if got, err := os.ReadFile(path); err != nil || string(got) != want {
		t.Errorf("esfmt -w wrote %q (%v), want %q", got, err, want)
	}
}

func TestEsfmtRejectsBadInput(t *testing.T) {
	bin := buildEsfmt(t)
	cmd := exec.Command(bin)
	cmd.Stdin = strings.NewReader("{unclosed\n")
	if err := cmd.Run(); err == nil {
		t.Error("esfmt should fail on a parse error")
	}
}

func TestEsParseOnly(t *testing.T) {
	bin := buildEs(t)
	if err := exec.Command(bin, "-n", "-c", "fn f {ok}").Run(); err != nil {
		t.Errorf("-n of valid program: %v", err)
	}
	if err := exec.Command(bin, "-n", "-c", "{unclosed").Run(); err == nil {
		t.Error("-n of invalid program should fail")
	}
	// -n never executes: no output, no side effects.
	out, err := exec.Command(bin, "-n", "-c", "echo should-not-run").Output()
	if err != nil || len(out) != 0 {
		t.Errorf("-n executed: %q %v", out, err)
	}
	// Files and stdin.
	dir := t.TempDir()
	good := filepath.Join(dir, "good.es")
	os.WriteFile(good, []byte("echo hi\n"), 0o644)
	bad := filepath.Join(dir, "bad.es")
	os.WriteFile(bad, []byte("'unterminated\n"), 0o644)
	if err := exec.Command(bin, "-n", good).Run(); err != nil {
		t.Errorf("-n good file: %v", err)
	}
	if err := exec.Command(bin, "-n", good, bad).Run(); err == nil {
		t.Error("-n with a bad file should fail")
	}
	cmd := exec.Command(bin, "-n")
	cmd.Stdin = strings.NewReader("a | b\n")
	if err := cmd.Run(); err != nil {
		t.Errorf("-n stdin: %v", err)
	}
}

func TestEsCheckOnly(t *testing.T) {
	bin := buildEs(t)
	check := func(stdin string, args ...string) (int, string, string) {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"-check"}, args...)...)
		cmd.Stdin = strings.NewReader(stdin)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if _, ok := err.(*exec.ExitError); err != nil && !ok {
			t.Fatalf("es -check %v: %v", args, err)
		}
		return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
	}
	// -check never executes: a clean program exits 0 and prints nothing.
	if code, out, errs := check("", "-c", "echo should-not-run"); code != 0 || out != "" || errs != "" {
		t.Errorf("-check of a clean program: exit %d, stdout %q, stderr %q", code, out, errs)
	}
	const src = "$&nosuchprim x"
	const diag = "1:1: [E101] reference to unregistered primitive $&nosuchprim\n"
	dir := t.TempDir()
	file := filepath.Join(dir, "bad.es")
	os.WriteFile(file, []byte(src+"\n"), 0o644)
	for _, c := range []struct {
		label, stdin string
		args         []string
	}{
		{"-c", "", []string{"-c", src}},
		{file, "", []string{file}},
		{"stdin", src + "\n", nil},
	} {
		code, out, errs := check(c.stdin, c.args...)
		if code != 1 || out != "" || errs != c.label+":"+diag {
			t.Errorf("-check %s: exit %d, stdout %q, stderr %q; want exit 1 and %q",
				c.label, code, out, errs, c.label+":"+diag)
		}
	}
	if code, _, errs := check("", filepath.Join(dir, "missing.es")); code != 1 || errs == "" {
		t.Errorf("-check of a missing file: exit %d, stderr %q", code, errs)
	}
}

func TestEsProtectedMode(t *testing.T) {
	bin := buildEs(t)
	hostile := append(os.Environ(),
		"fn-echo=@ * {$&echo HIJACKED}",
		"set-x=@ {$&echo settor-hijack; return $*}")
	run := func(protected bool) string {
		args := []string{"-c", "echo safe?; x = v"}
		if protected {
			args = append([]string{"-p"}, args...)
		}
		cmd := exec.Command(bin, args...)
		cmd.Env = hostile
		out, _ := cmd.CombinedOutput()
		return string(out)
	}
	unprotected := run(false)
	if !strings.Contains(unprotected, "HIJACKED") || !strings.Contains(unprotected, "settor-hijack") {
		t.Errorf("environment functions should apply without -p: %q", unprotected)
	}
	protected := run(true)
	if strings.Contains(protected, "HIJACKED") || strings.Contains(protected, "hijack") {
		t.Errorf("-p did not strip inherited functions: %q", protected)
	}
	if !strings.Contains(protected, "safe?") {
		t.Errorf("-p broke normal operation: %q", protected)
	}
}
