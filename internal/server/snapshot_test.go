package server

// The snapshot/restore/migrate acceptance tests from the issue: a
// session with user-defined vars, functions, and a spoofed %pathsearch
// survives snap -> daemon restart -> restore with identical behavior,
// and migrate moves a live session between two daemons.

import (
	"encoding/base64"
	"strings"
	"testing"
	"time"

	"es"
	"es/internal/core"
	"es/internal/image"
)

// decorate gives a session the state the acceptance criterion names:
// variables, a function with a capture, and a spoofed %pathsearch.
func decorate(t *testing.T, c *client) {
	t.Helper()
	for _, src := range []string{
		"project = es-image",
		"secret = hunter2; noexport secret",
		"let (salt = xyz) fn seasoned {result $salt $project}",
		"fn %pathsearch name {result /spoofed/$name}",
	} {
		if f := c.eval(t, src, 0); f.Type != "result" {
			t.Fatalf("setup %q: %+v", src, f)
		}
	}
}

// checkDecorated verifies the decorated behavior, bit for bit.
func checkDecorated(t *testing.T, c *client, label string) {
	t.Helper()
	if f := c.eval(t, "seasoned", 0); strings.Join(f.Value, " ") != "xyz es-image" {
		t.Errorf("%s: seasoned = %+v", label, f)
	}
	if f := c.eval(t, "result <>{%pathsearch vi}", 0); strings.Join(f.Value, " ") != "/spoofed/vi" {
		t.Errorf("%s: spoofed %%pathsearch = %+v", label, f)
	}
	if f := c.eval(t, "result $secret", 0); strings.Join(f.Value, " ") != "hunter2" {
		t.Errorf("%s: secret = %+v", label, f)
	}
}

func TestSnapRestoreFrames(t *testing.T) {
	srv := newTestServer(t, Config{})
	c := dial(t, srv.cfg.Socket)
	decorate(t, c)

	snap := c.roundTrip(t, &Frame{Type: "snap", ID: 2})
	if snap.Type != "snap" || snap.Image == "" {
		t.Fatalf("snap reply = %+v", snap)
	}
	// The wire image is a well-formed internal/image artifact.
	raw, err := base64.StdEncoding.DecodeString(snap.Image)
	if err != nil {
		t.Fatalf("image not base64: %v", err)
	}
	if _, err := image.Decode(raw); err != nil {
		t.Fatalf("image does not decode: %v", err)
	}

	// A FRESH session restored from the image behaves identically.
	c2 := dial(t, srv.cfg.Socket)
	if f := c2.roundTrip(t, &Frame{Type: "restore", ID: 3, Image: snap.Image}); f.Type != "restore" || !f.True {
		t.Fatalf("restore reply = %+v", f)
	}
	checkDecorated(t, c2, "restored session")

	// snap -> restore -> snap is byte-identical: the differential
	// round-trip battery, through the daemon.
	snap2 := c2.roundTrip(t, &Frame{Type: "snap", ID: 4})
	if snap2.Image != snap.Image {
		t.Errorf("re-snapshot differs from snapshot")
	}

	// Corrupted images are refused and the session stays usable.
	if f := c2.roundTrip(t, &Frame{Type: "restore", ID: 5, Image: "bm90IGFuIGltYWdl"}); f.Type != "error" {
		t.Errorf("corrupt restore accepted: %+v", f)
	}
	checkDecorated(t, c2, "session after refused restore")

	if got := srv.Metrics().Snapshots.Load(); got != 2 {
		t.Errorf("snapshots counter = %d, want 2", got)
	}
	if got := srv.Metrics().Restores.Load(); got != 1 {
		t.Errorf("restores counter = %d, want 1", got)
	}
}

// The issue's restart acceptance: snap, drain the daemon completely,
// start a NEW daemon process-equivalent on a fresh socket, restore.
func TestSnapSurvivesDaemonRestart(t *testing.T) {
	srv1 := newTestServer(t, Config{})
	c1 := dial(t, srv1.cfg.Socket)
	decorate(t, c1)
	snap := c1.roundTrip(t, &Frame{Type: "snap", ID: 2})
	if snap.Type != "snap" {
		t.Fatalf("snap reply = %+v", snap)
	}
	if err := srv1.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	srv2 := newTestServer(t, Config{})
	c2 := dial(t, srv2.cfg.Socket)
	if f := c2.roundTrip(t, &Frame{Type: "restore", ID: 1, Image: snap.Image}); f.Type != "restore" || !f.True {
		t.Fatalf("restore on restarted daemon = %+v", f)
	}
	checkDecorated(t, c2, "session across restart")
}

// The migrate acceptance: a live session moves between two daemons; the
// client keeps its connection and its state, with evals now answered by
// the target.
func TestMigrateBetweenDaemons(t *testing.T) {
	origin := newTestServer(t, Config{})
	target := newTestServer(t, Config{})
	c := dial(t, origin.cfg.Socket)
	decorate(t, c)

	f := c.roundTrip(t, &Frame{Type: "migrate", ID: 7, Socket: target.cfg.Socket})
	if f.Type != "migrate" || !f.True || f.Socket != target.cfg.Socket {
		t.Fatalf("migrate reply = %+v", f)
	}
	// Same connection, same state — running on the target now.
	checkDecorated(t, c, "migrated session")
	if got := target.Metrics().Evals.Load(); got == 0 {
		t.Errorf("target served no evals; session did not actually move")
	}
	if got := origin.Metrics().Migrations.Load(); got != 1 {
		t.Errorf("origin migrations counter = %d, want 1", got)
	}
	if got := target.Metrics().Restores.Load(); got != 1 {
		t.Errorf("target restores counter = %d, want 1", got)
	}
	// Stats frames relay too, and come from the target.
	sf := c.roundTrip(t, &Frame{Type: "stats", ID: 8})
	if sf.Type != "stats" || !strings.Contains(strings.Join(sf.Stats, " "), "restores:1") {
		t.Errorf("relayed stats = %+v", sf)
	}
	// A clean goodbye travels the relay and both sessions wind down.
	bye := c.roundTrip(t, &Frame{Type: "bye"})
	if bye.Type != "bye" {
		t.Errorf("relayed bye = %+v", bye)
	}
}

func TestMigrateFailureLeavesSession(t *testing.T) {
	origin := newTestServer(t, Config{})
	c := dial(t, origin.cfg.Socket)
	decorate(t, c)
	if f := c.roundTrip(t, &Frame{Type: "migrate", ID: 1, Socket: "/nonexistent/esd.sock"}); f.Type != "error" {
		t.Fatalf("migrate to nowhere = %+v", f)
	}
	if f := c.roundTrip(t, &Frame{Type: "migrate", ID: 2, Socket: origin.cfg.Socket}); f.Type != "error" {
		t.Fatalf("migrate to self = %+v", f)
	}
	checkDecorated(t, c, "session after failed migrate")
	if got := origin.Metrics().Migrations.Load(); got != 0 {
		t.Errorf("migrations counter = %d after failures", got)
	}
}

// Pre-baked templates: sessions spawned via NewSessionFromImage start with
// the image's state already installed.
func TestNewSessionFromImage(t *testing.T) {
	template, err := es.New(es.Options{})
	if err != nil {
		t.Fatal(err)
	}
	baked, err := es.New(es.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := baked.Run("prebaked = yes; fn stamp {result image-$prebaked}"); err != nil {
		t.Fatal(err)
	}
	img := image.Capture(baked.Interp(), nil)

	cfg := Config{NewSession: NewSessionFromImage(template.Interp(), img)}
	sess, err := cfg.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunString(&core.Ctx{IO: core.NewIOTable(strings.NewReader(""), nil, nil)}, "stamp")
	if err != nil {
		t.Fatalf("stamp on pre-baked session: %v", err)
	}
	if got := strings.Join(res.Strings(), " "); got != "image-yes" {
		t.Errorf("stamp = %q", got)
	}
	// Sessions are isolated: mutating one does not leak into the next.
	if _, err := sess.RunString(&core.Ctx{IO: core.NewIOTable(strings.NewReader(""), nil, nil)}, "prebaked = mutated"); err != nil {
		t.Fatal(err)
	}
	sess2, _ := cfg.NewSession()
	res, err = sess2.RunString(&core.Ctx{IO: core.NewIOTable(strings.NewReader(""), nil, nil)}, "result $prebaked")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.Strings(), " "); got != "yes" {
		t.Errorf("template leaked mutation: %q", got)
	}
}

// TestMigrateOverTCP: a session on a unix-only daemon migrates to a
// daemon reachable only over TCP and keeps running there; a daemon
// refuses a migration to its own TCP address.
func TestMigrateOverTCP(t *testing.T) {
	origin := newTestServer(t, Config{})
	target := newTestServer(t, Config{TCP: "127.0.0.1:0"})
	addr := "tcp://" + target.TCPAddr()
	c := dial(t, origin.cfg.Socket)
	decorate(t, c)
	if f := c.roundTrip(t, &Frame{Type: "migrate", ID: 1, Socket: addr}); f.Type != "migrate" || !f.True {
		t.Fatalf("migrate over tcp = %+v", f)
	}
	before := target.Metrics().Evals.Load()
	checkDecorated(t, c, "session migrated over tcp")
	if got := target.Metrics().Evals.Load(); got <= before {
		t.Errorf("target evals %d -> %d: the eval did not run on the target", before, got)
	}
	if stats := strings.Join(origin.Stats(), " "); !strings.Contains(stats, "migrations:1") {
		t.Errorf("origin stats lack migrations:1: %s", stats)
	}

	d := dial(t, addr)
	f := d.roundTrip(t, &Frame{Type: "migrate", ID: 2, Socket: addr})
	if f.Type != "error" || !strings.Contains(strings.Join(f.Exception, " "), "target is this daemon") {
		t.Fatalf("migrate to own tcp address = %+v", f)
	}
}

// TestRelayKeepsLinesWhole: after a migrate the origin still answers a
// line that does not decode itself, while it relays the target's replies.
// Its error frames must land between relayed lines, never inside one, so
// every line the client reads decodes.
func TestRelayKeepsLinesWhole(t *testing.T) {
	origin := newTestServer(t, Config{})
	target := newTestServer(t, Config{})
	c := dial(t, origin.cfg.Socket)
	if f := c.roundTrip(t, &Frame{Type: "migrate", ID: 1, Socket: target.cfg.Socket}); f.Type != "migrate" || !f.True {
		t.Fatalf("migrate reply = %+v", f)
	}
	// 16 bytes doubled 14 times: each reply carries 256 KiB of stdout,
	// far more than one read of the relay.
	if f := c.eval(t, "big = 0123456789abcdef; for (i = 1 2 3 4 5 6 7 8 9 10 11 12 13 14) big = $big^$big", 0); f.Type != "result" {
		t.Fatalf("setup = %+v", f)
	}
	const rounds, garbage = 40, 50
	go func() {
		for k := 0; k < rounds; k++ {
			if c.Write(&Frame{Type: "eval", ID: int64(k + 2), Src: "echo $big"}) != nil {
				return
			}
			if _, err := c.Conn.Write([]byte(strings.Repeat("garbage\n", garbage))); err != nil {
				return
			}
		}
	}()
	c.Conn.SetReadDeadline(time.Now().Add(time.Minute))
	evals := 0
	for n := 1; n <= rounds*(1+garbage); n++ {
		f, err := c.Read()
		if err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if f.Type == "result" {
			if len(f.Stdout) != 256<<10+1 {
				t.Fatalf("eval %d: %d bytes of stdout, want %d", f.ID, len(f.Stdout), 256<<10+1)
			}
			evals++
		}
	}
	if evals != rounds {
		t.Errorf("%d eval replies, want %d", evals, rounds)
	}
}
