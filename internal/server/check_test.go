package server

// Tests for the check frame and the -vet admission gate: static
// diagnostics come back over the wire without evaluation, and a vetting
// server proves it rejected a bad script *before* running any of it.

import (
	"strings"
	"testing"
)

func TestCheckFrame(t *testing.T) {
	srv := newTestServer(t, Config{})
	c := dial(t, srv.cfg.Socket)

	// A script with only warnings checks true, diagnostics included.
	f := c.roundTrip(t, &Frame{Type: "check", ID: 1, Src: "echo $undefined; ls | wc"})
	if f.Type != "check" || !f.True {
		t.Fatalf("warning-only check = %+v", f)
	}
	if len(f.Diags) != 1 || !strings.Contains(f.Diags[0], "[W110]") {
		t.Errorf("diags = %v", f.Diags)
	}
	if strings.Join(f.Effects, " ") == "" {
		t.Errorf("no effects for a process-spawning script")
	}

	// A script with a static error checks false.
	f = c.roundTrip(t, &Frame{Type: "check", ID: 2, Src: "echo <>{$&nosuchprim}"})
	if f.Type != "check" || f.True {
		t.Fatalf("bad check = %+v", f)
	}
	if len(f.Diags) != 1 || !strings.Contains(f.Diags[0], "[E101]") {
		t.Errorf("diags = %v", f.Diags)
	}

	if got := srv.Metrics().Checks.Load(); got != 2 {
		t.Errorf("Checks = %d, want 2", got)
	}
	if got := srv.Metrics().CheckRejects.Load(); got != 1 {
		t.Errorf("CheckRejects = %d, want 1", got)
	}
	stats := strings.Join(srv.Stats(), " ")
	if !strings.Contains(stats, "checks:2") || !strings.Contains(stats, "check_rejects:1") {
		t.Errorf("stats missing check counters: %v", stats)
	}
}

// TestCheckResolvesAgainstSession pins the registry the check runs
// against: a hook the session itself spoofed is known to its analyzer.
func TestCheckResolvesAgainstSession(t *testing.T) {
	srv := newTestServer(t, Config{})
	c := dial(t, srv.cfg.Socket)

	f := c.roundTrip(t, &Frame{Type: "check", ID: 1, Src: "%my-custom-hook"})
	if f.True && len(f.Diags) == 0 {
		t.Fatalf("undefined hook not diagnosed: %+v", f)
	}
	if f = c.eval(t, "fn %my-custom-hook {echo custom}", 0); f.Type != "result" {
		t.Fatalf("spoof failed: %+v", f)
	}
	f = c.roundTrip(t, &Frame{Type: "check", ID: 3, Src: "%my-custom-hook"})
	if !f.True || len(f.Diags) != 0 {
		t.Fatalf("session-defined hook still diagnosed: %+v", f)
	}
}

func TestVetRejectsWithoutEvaluating(t *testing.T) {
	srv := newTestServer(t, Config{Vet: true})
	c := dial(t, srv.cfg.Socket)

	// The script sets a variable and then trips a static error.  If any
	// of it had run, $witness would be set afterwards.
	f := c.eval(t, "witness = ran; echo <>{$&nosuchprim}", 0)
	if f.Type != "error" {
		t.Fatalf("vet did not reject: %+v", f)
	}
	if !strings.Contains(strings.Join(f.Exception, " "), "vet") {
		t.Errorf("exception = %v", f.Exception)
	}
	if f.Stdout != "" {
		t.Errorf("rejected script produced output %q", f.Stdout)
	}

	f = c.eval(t, "echo count <={%count $witness}", 0)
	if f.Type != "result" || f.Stdout != "count 0\n" {
		t.Fatalf("rejected script was (partially) evaluated: %+v", f)
	}

	// Statically clean scripts still run; warnings do not block.
	f = c.eval(t, "echo $undefined-but-legal ok", 0)
	if f.Type != "result" || f.Stdout != "ok\n" {
		t.Fatalf("clean eval under vet = %+v", f)
	}

	if got := srv.Metrics().CheckRejects.Load(); got != 1 {
		t.Errorf("CheckRejects = %d, want 1", got)
	}
}
