package proc

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// shPath returns a usable /bin/sh, skipping when the host has none.
func shPath(t *testing.T) string {
	t.Helper()
	for _, p := range []string{"/bin/sh", "/usr/bin/sh"} {
		if fi, err := os.Stat(p); err == nil && fi.Mode()&0o111 != 0 {
			return p
		}
	}
	t.Skip("no /bin/sh on this host")
	return ""
}

func TestRunCapturesOutput(t *testing.T) {
	sh := shPath(t)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	status, err := Run(sh, []string{"sh", "-c", "echo hello"}, "/", nil, Files{1: w})
	w.Close()
	if err != nil || status != "0" {
		t.Fatalf("Run: %v %q", err, status)
	}
	var buf bytes.Buffer
	buf.ReadFrom(r)
	r.Close()
	if buf.String() != "hello\n" {
		t.Errorf("output = %q", buf.String())
	}
}

func TestRunExitStatus(t *testing.T) {
	sh := shPath(t)
	status, err := Run(sh, []string{"sh", "-c", "exit 42"}, "/", nil, nil)
	if err != nil || status != "42" {
		t.Errorf("status = %q, err %v", status, err)
	}
}

func TestRunDir(t *testing.T) {
	sh := shPath(t)
	dir := t.TempDir()
	r, w, _ := os.Pipe()
	status, err := Run(sh, []string{"sh", "-c", "pwd"}, dir, nil, Files{1: w})
	w.Close()
	if err != nil || status != "0" {
		t.Fatalf("Run: %v %q", err, status)
	}
	var buf bytes.Buffer
	buf.ReadFrom(r)
	r.Close()
	got := buf.String()
	if got != dir+"\n" {
		// Allow symlinked temp dirs.
		if resolved, _ := filepath.EvalSymlinks(dir); got != resolved+"\n" {
			t.Errorf("pwd = %q, want %q", got, dir)
		}
	}
}

func TestRunEnv(t *testing.T) {
	sh := shPath(t)
	r, w, _ := os.Pipe()
	status, err := Run(sh, []string{"sh", "-c", "echo $MARKER"}, "/",
		[]string{"MARKER=from-test", "PATH=/bin:/usr/bin"}, Files{1: w})
	w.Close()
	if err != nil || status != "0" {
		t.Fatalf("Run: %v %q", err, status)
	}
	var buf bytes.Buffer
	buf.ReadFrom(r)
	r.Close()
	if buf.String() != "from-test\n" {
		t.Errorf("env passing = %q", buf.String())
	}
}

func TestRunHighDescriptors(t *testing.T) {
	sh := shPath(t)
	r, w, _ := os.Pipe()
	// fd 4 is passed via ExtraFiles; fd 3 is filled with the null device.
	status, err := Run(sh, []string{"sh", "-c", "echo on-four >&4"}, "/",
		nil, Files{4: w})
	w.Close()
	if err != nil || status != "0" {
		t.Fatalf("Run: %v %q", err, status)
	}
	var buf bytes.Buffer
	buf.ReadFrom(r)
	r.Close()
	if buf.String() != "on-four\n" {
		t.Errorf("fd 4 = %q", buf.String())
	}
}

func TestRunStdin(t *testing.T) {
	sh := shPath(t)
	pr, pw, _ := os.Pipe()
	pw.WriteString("from stdin\n")
	pw.Close()
	or, ow, _ := os.Pipe()
	status, err := Run(sh, []string{"sh", "-c", "cat"}, "/", nil, Files{0: pr, 1: ow})
	ow.Close()
	pr.Close()
	if err != nil || status != "0" {
		t.Fatalf("Run: %v %q", err, status)
	}
	var buf bytes.Buffer
	buf.ReadFrom(or)
	or.Close()
	if buf.String() != "from stdin\n" {
		t.Errorf("stdin round trip = %q", buf.String())
	}
}

func TestStatusSignal(t *testing.T) {
	sh := shPath(t)
	status, err := Run(sh, []string{"sh", "-c", "kill -TERM $$"}, "/", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != "sigterm" {
		t.Errorf("signal status = %q", status)
	}
}

// A child killed by a signal reports the signal's name as C es does.
func TestStatusSignalNames(t *testing.T) {
	sh := shPath(t)
	for _, sig := range []string{"INT", "KILL", "PIPE", "TERM"} {
		status, err := Run(sh, []string{"sh", "-c", "kill -" + sig + " $$"}, "/", nil, nil)
		if want := "sig" + strings.ToLower(sig); err != nil || status != want {
			t.Errorf("kill -%s: status %q, %v; want %s", sig, status, err, want)
		}
	}
	for sig, want := range map[syscall.Signal]string{
		syscall.SIGQUIT: "sigquit",
		syscall.SIGCHLD: "sigchld",
		syscall.SIGSYS:  "sigsys",
		0:               "sig0",
		34:              "sig34",
		-1:              "sig-1",
	} {
		if got := SignalName(sig); got != want {
			t.Errorf("SignalName(%d) = %q, want %q", int(sig), got, want)
		}
	}
}

func TestStatusConversion(t *testing.T) {
	if s, err := Status(nil); s != "0" || err != nil {
		t.Errorf("nil = %q %v", s, err)
	}
	// A non-exit error passes through.
	if _, err := Status(os.ErrNotExist); err == nil {
		t.Error("plain error should propagate")
	}
	// Real exit error.
	sh := shPath(t)
	cmd := exec.Command(sh, "-c", "exit 3")
	runErr := cmd.Run()
	if s, err := Status(runErr); s != "3" || err != nil {
		t.Errorf("exit 3 = %q %v", s, err)
	}
}

func TestLookup(t *testing.T) {
	dir := t.TempDir()
	sub1 := filepath.Join(dir, "empty")
	sub2 := filepath.Join(dir, "full")
	os.MkdirAll(sub1, 0o755)
	os.MkdirAll(sub2, 0o755)
	tool := filepath.Join(sub2, "tool")
	os.WriteFile(tool, []byte("#!/bin/sh\n"), 0o755)
	os.WriteFile(filepath.Join(sub2, "notexec"), []byte("x"), 0o644)
	os.MkdirAll(filepath.Join(sub2, "adir"), 0o755)

	if got, ok := Lookup("tool", []string{sub1, sub2}); !ok || got != tool {
		t.Errorf("Lookup tool = %q, %v", got, ok)
	}
	if _, ok := Lookup("notexec", []string{sub2}); ok {
		t.Error("non-executable found")
	}
	if _, ok := Lookup("adir", []string{sub2}); ok {
		t.Error("directory found as executable")
	}
	if _, ok := Lookup("missing", []string{sub1, sub2}); ok {
		t.Error("phantom executable")
	}
	if _, ok := Lookup("tool", nil); ok {
		t.Error("found with empty path")
	}
}

func TestUsageSince(t *testing.T) {
	u := Snapshot()
	time.Sleep(10 * time.Millisecond)
	real, user, sys := u.Since()
	if real < 5*time.Millisecond {
		t.Errorf("real = %v, want >= 5ms", real)
	}
	if user < 0 || sys < 0 {
		t.Errorf("negative cpu times: %v %v", user, sys)
	}
}
