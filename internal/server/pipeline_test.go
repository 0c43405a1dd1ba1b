package server

// Tests for the fleet-front-end session semantics: the hello handshake,
// in-session pipelining windows, tenant quotas, the oversized-frame
// error path, the socket-takeover lock, and the startSession refusal
// branches.

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"es"
	"es/internal/core"
)

func TestHelloWindowClamp(t *testing.T) {
	srv := newTestServer(t, Config{MaxWindow: 2})
	c := dial(t, srv.cfg.Socket)
	f := c.hello(t, "", 99)
	if f.Type != "hello" || !f.True || f.Window != 2 {
		t.Fatalf("hello reply = %+v, want granted window 2", f)
	}
	// The session works normally after the handshake.
	if f := c.eval(t, "result ok", 0); f.Type != "result" {
		t.Fatalf("eval after hello: %+v", f)
	}
}

// TestPipelining is the tentpole's wire semantics: several evals in
// flight on one session, answered with their ids, each reply correct.
func TestPipelining(t *testing.T) {
	srv := newTestServer(t, Config{})
	c := dial(t, srv.cfg.Socket)
	if f := c.hello(t, "", 4); f.Window != 4 {
		t.Fatalf("hello granted %+v", f)
	}
	const n = 4
	for id := 1; id <= n; id++ {
		if err := c.Write(&Frame{Type: "eval", ID: int64(id),
			Src: fmt.Sprintf("result r%d", id)}); err != nil {
			t.Fatalf("pipelined write %d: %v", id, err)
		}
	}
	seen := map[int64]string{}
	for k := 0; k < n; k++ {
		f, err := c.Read()
		if err != nil {
			t.Fatalf("pipelined read %d: %v", k, err)
		}
		if f.Type != "result" {
			t.Fatalf("pipelined reply = %+v", f)
		}
		seen[f.ID] = strings.Join(f.Value, " ")
	}
	for id := 1; id <= n; id++ {
		if seen[int64(id)] != fmt.Sprintf("r%d", id) {
			t.Errorf("id %d answered %q", id, seen[int64(id)])
		}
	}
}

// TestSerialClientUnaffected pins wire compatibility: a session that
// never says hello sees exactly the old frame types and old behavior.
func TestSerialClientUnaffected(t *testing.T) {
	srv := newTestServer(t, Config{MaxWindow: 8})
	c := dial(t, srv.cfg.Socket)
	for n := 0; n < 3; n++ {
		f := c.eval(t, fmt.Sprintf("result %d", n), 0)
		if f.Type != "result" || f.Value[0] != fmt.Sprintf("%d", n) {
			t.Fatalf("serial eval %d: %+v", n, f)
		}
	}
}

func TestTenantSessionQuota(t *testing.T) {
	srv := newTestServer(t, Config{
		Tenants: map[string]TenantQuota{"acme": {MaxSessions: 1}},
	})
	a := dial(t, srv.cfg.Socket)
	if f := a.hello(t, "acme", 1); f.Type != "hello" || f.Tenant != "acme" {
		t.Fatalf("first hello: %+v", f)
	}
	b := dial(t, srv.cfg.Socket)
	f := b.hello(t, "acme", 1)
	if f.Type != "error" || len(f.Exception) < 2 || f.Exception[0] != "signal" || f.Exception[1] != "quota" {
		t.Fatalf("over-quota hello = %+v, want signal quota", f)
	}
	if bye, err := b.Read(); err != nil || bye.Type != "bye" || bye.Reason != "quota" {
		t.Fatalf("after quota reject: %+v, %v", bye, err)
	}
	if got := srv.Metrics().QuotaRejects.Load(); got != 1 {
		t.Errorf("quota_rejects = %d, want 1", got)
	}
	// Closing the first session frees the slot.
	a.Write(&Frame{Type: "bye"})
	a.Read()
	a.Conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c := dial(t, srv.cfg.Socket)
		f := c.hello(t, "acme", 1)
		if f.Type == "hello" {
			break
		}
		c.Read() // the bye
		c.Conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("session slot never released after bye")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTenantInFlightQuota(t *testing.T) {
	srv := newTestServer(t, Config{
		MaxConcurrent: 4,
		Tenants:       map[string]TenantQuota{"t": {MaxInFlight: 1}},
	})
	c := dial(t, srv.cfg.Socket)
	if f := c.hello(t, "t", 4); f.Type != "hello" {
		t.Fatalf("hello: %+v", f)
	}
	// The first eval is slow and holds the tenant's one in-flight slot;
	// the second arrives while it runs and must be refused retryably.
	if err := c.Write(&Frame{Type: "eval", ID: 1, Src: "sleep 0.3; result slow"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(&Frame{Type: "eval", ID: 2, Src: "result fast"}); err != nil {
		t.Fatal(err)
	}
	var rejected, completed *Frame
	for k := 0; k < 2; k++ {
		f, err := c.Read()
		if err != nil {
			t.Fatal(err)
		}
		switch f.ID {
		case 1:
			completed = f
		case 2:
			rejected = f
		}
	}
	if rejected == nil || rejected.Type != "error" ||
		len(rejected.Exception) < 2 || rejected.Exception[1] != "quota" {
		t.Fatalf("second eval = %+v, want signal quota", rejected)
	}
	if rejected.RetryAfterMS <= 0 {
		t.Errorf("quota reject retry_after_ms = %d, want > 0", rejected.RetryAfterMS)
	}
	if completed == nil || completed.Type != "result" {
		t.Fatalf("first eval = %+v", completed)
	}
	// The slot frees once the slow eval answers.
	if f := c.eval(t, "result again", 0); f.Type != "result" {
		t.Fatalf("after in-flight release: %+v", f)
	}
}

func TestTenantDeadlineCeiling(t *testing.T) {
	srv := newTestServer(t, Config{
		Tenants: map[string]TenantQuota{"t": {DeadlineCeiling: 50 * time.Millisecond}},
	})
	c := dial(t, srv.cfg.Socket)
	if f := c.hello(t, "t", 1); f.Type != "hello" {
		t.Fatalf("hello: %+v", f)
	}
	// No deadline requested at all: the ceiling still applies.
	start := time.Now()
	f := c.eval(t, "while {} {}", 0)
	if f.Type != "error" || strings.Join(f.Exception, " ") != "signal deadline" {
		t.Fatalf("ceiling reply = %+v", f)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("ceiling took %v", el)
	}
	// A deadline over the ceiling is clamped down to it.
	start = time.Now()
	if f = c.eval(t, "while {} {}", 60_000); f.Type != "error" {
		t.Fatalf("clamped reply = %+v", f)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("clamp took %v, ceiling not applied", el)
	}
}

// TestAdmitEvalShed exercises the p99 side of admission in the session
// loop: a shed eval is answered `signal overload` with a retry hint,
// costs no evaluation, and the session keeps working once admission
// reopens.  The shed flag is set by hand, and the config leaves
// P99Ceiling zero so Serve starts no sampler that could reset it.
func TestAdmitEvalShed(t *testing.T) {
	srv := newTestServer(t, Config{RetryAfterMS: 7}, func(s *Server) {
		s.ctrl.p99Ceiling = time.Hour
		s.ctrl.shedding.Store(true)
	})
	c := dial(t, srv.cfg.Socket)
	f := c.eval(t, "result never-runs", 0)
	if f.Type != "error" || len(f.Exception) < 2 || f.Exception[1] != "overload" {
		t.Fatalf("shed reply = %+v, want signal overload", f)
	}
	if f.RetryAfterMS != 7 {
		t.Errorf("retry_after_ms = %d, want 7", f.RetryAfterMS)
	}
	m := srv.Metrics()
	if got := m.Sheds.Load(); got != 1 {
		t.Errorf("sheds = %d, want 1", got)
	}
	if got := m.Evals.Load(); got != 0 {
		t.Errorf("shed eval was evaluated: evals = %d", got)
	}
	srv.ctrl.shedding.Store(false)
	if f := c.eval(t, "result ok", 0); f.Type != "result" {
		t.Fatalf("session unusable after shed: %+v", f)
	}
}

// TestOversizedFrame pins the satellite fix: a frame over maxFrameBytes
// must be answered with an error frame and a bye, not a silent death.
func TestOversizedFrame(t *testing.T) {
	srv := newTestServer(t, Config{})
	c := dial(t, srv.cfg.Socket)
	go func() {
		// The server stops reading mid-line, so this write may fail once
		// it closes the connection; that is the point.
		huge := make([]byte, maxFrameBytes+4096)
		for k := range huge {
			huge[k] = 'a'
		}
		c.Conn.Write(huge)
	}()
	f, err := c.Read()
	if err != nil {
		t.Fatalf("no error frame for oversized line: %v", err)
	}
	if f.Type != "error" || !strings.Contains(strings.Join(f.Exception, " "), "frame exceeds") {
		t.Fatalf("oversized reply = %+v", f)
	}
	if f, err = c.Read(); err != nil || f.Type != "bye" || f.Reason != "frame too large" {
		t.Fatalf("no bye after oversized frame: %+v, %v", f, err)
	}
	waitClosed(t, srv)
}

// TestListenTakeoverRace pins the satellite fix for the check-then-remove
// race: with a stale socket on disk, two daemons starting simultaneously
// must resolve to exactly one owner (the loser errors instead of silently
// unlinking the winner's freshly bound socket).
func TestListenTakeoverRace(t *testing.T) {
	template, err := es.New(es.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Socket:     t.TempDir() + "/esd.sock",
		NewSession: func() (*core.Interp, error) { return template.Interp().Spawn(), nil },
	}
	// Manufacture a stale socket file: bound, never served, left on disk.
	ln, err := net.Listen("unix", cfg.Socket)
	if err != nil {
		t.Fatal(err)
	}
	ln.(*net.UnixListener).SetUnlinkOnClose(false)
	ln.Close()

	mk := func() *Server {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := mk(), mk()
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for _, s := range []*Server{s1, s2} {
		wg.Add(1)
		go func(s *Server) {
			defer wg.Done()
			errs <- s.Listen()
		}(s)
	}
	wg.Wait()
	close(errs)
	var ok, failed int
	for err := range errs {
		if err == nil {
			ok++
		} else {
			failed++
		}
	}
	if ok != 1 || failed != 1 {
		t.Fatalf("takeover race: %d winners, %d losers; want exactly 1 each", ok, failed)
	}
	// The winner's socket is alive and serving.
	for _, s := range []*Server{s1, s2} {
		if s.ln != nil {
			go s.Serve()
			c := dial(t, cfg.Socket)
			if f, err := c.RoundTrip(&Frame{Type: "eval", ID: 1, Src: "result alive"}); err != nil || f.Type != "result" {
				t.Fatalf("winner eval: %+v, %v", f, err)
			}
			c.Conn.Close()
			s.Drain(5 * time.Second)
		}
	}
}

// TestStartSessionPoolError covers the error-frame-then-close branch: a
// session constructor failure must answer the client before hanging up.
func TestStartSessionPoolError(t *testing.T) {
	cfg := Config{
		Socket:     t.TempDir() + "/esd.sock",
		NewSession: func() (*core.Interp, error) { return nil, fmt.Errorf("spawn exhausted") },
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Drain(5 * time.Second)
	c := dial(t, cfg.Socket)
	f, err := c.Read()
	if err != nil {
		t.Fatalf("no error frame on a failed NewSession: %v", err)
	}
	if f.Type != "error" || !strings.Contains(strings.Join(f.Exception, " "), "spawn exhausted") {
		t.Fatalf("failed-NewSession reply = %+v", f)
	}
	if _, err := c.Read(); err == nil {
		t.Fatal("connection left open after a failed NewSession")
	}
	if got := srv.Metrics().SessionsOpened.Load(); got != 0 {
		t.Errorf("refused session counted as opened: %d", got)
	}
}

// TestStartSessionDrainRace covers the bye-on-drain branch: a connection
// that reaches startSession after draining begins gets a drain goodbye,
// not a half-registered session.
func TestStartSessionDrainRace(t *testing.T) {
	template, err := es.New(es.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Socket:     t.TempDir() + "/esd.sock",
		NewSession: func() (*core.Interp, error) { return template.Interp().Spawn(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drain before the "accepted" connection is handed over — the race
	// window between Accept and the registration under s.mu.
	if err := srv.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	client, serverEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.startSession(serverEnd, nil)
	}()
	fr := NewFrameReader(client)
	f, err := fr.Read()
	if err != nil || f.Type != "bye" || f.Reason != "drain" {
		t.Fatalf("drain-race reply = %+v, %v", f, err)
	}
	if _, err := fr.Read(); err == nil {
		t.Fatal("connection left open after drain refusal")
	}
	client.Close()
	<-done
	if srv.openSessions() != 0 {
		t.Errorf("drain-raced session registered: %d open", srv.openSessions())
	}
}

// TestStatsIncludeListenersAndTenants: the new counter surfaces land in
// the stats words next to the old ones.
func TestStatsIncludeListenersAndTenants(t *testing.T) {
	srv := newTestServer(t, Config{})
	c := dial(t, srv.cfg.Socket)
	if f := c.hello(t, "acme", 2); f.Type != "hello" {
		t.Fatalf("hello: %+v", f)
	}
	c.eval(t, "result 1", 0)
	joined := strings.Join(srv.Stats(), " ")
	for _, want := range []string{
		"lst_unix_sessions:1", "lst_unix_bytes_in:", "lst_unix_bytes_out:",
		"tenant_acme_sessions:1", "tenant_acme_inflight:0",
		"queued:0", "sheds:0", "quota_rejects:0",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("stats missing %q:\n%s", want, joined)
		}
	}
}

// TestQuotaRefusalRetryHint: tenant in-flight refusals carry the
// configured retry hint, like sheds do.
func TestQuotaRefusalRetryHint(t *testing.T) {
	srv := newTestServer(t, Config{
		RetryAfterMS: 25,
		Tenants:      map[string]TenantQuota{"t": {MaxInFlight: 1}},
	})
	c := dial(t, srv.cfg.Socket)
	if f := c.hello(t, "t", 2); f.Type != "hello" {
		t.Fatalf("hello: %+v", f)
	}
	c.Write(&Frame{Type: "eval", ID: 1, Src: "sleep 0.3"})
	f := c.roundTrip(t, &Frame{Type: "eval", ID: 2, Src: "result refused"})
	if f.ID != 2 || f.Type != "error" || len(f.Exception) < 2 || f.Exception[1] != "quota" {
		t.Fatalf("second eval = %+v, want signal quota", f)
	}
	if f.RetryAfterMS != 25 {
		t.Errorf("quota refusal retry_after_ms = %d, want 25", f.RetryAfterMS)
	}
}
