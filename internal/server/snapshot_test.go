package server

// The snapshot/restore/migrate acceptance tests from the issue: a
// session with user-defined vars, functions, and a spoofed %pathsearch
// survives snap -> daemon restart -> restore with identical behavior,
// and migrate moves a live session between two daemons.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
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

	// An image that is not base64, or not an image, is refused with an
	// error frame that keeps its id, and the session stays as it was.
	for _, bad := range []struct{ image, msg string }{
		{"bm90IGFuIGltYWdl", "image: truncated (no newline at byte 0)"},
		{"not base64!", "illegal base64 data at input byte 3"},
		{snap.Image[:len(snap.Image)-4] + "!" + snap.Image[len(snap.Image)-3:], "illegal base64 data at input byte " + strconv.Itoa(len(snap.Image)-4)},
	} {
		f := c2.roundTrip(t, &Frame{Type: "restore", ID: 5, Image: bad.image})
		if f.Type != "error" || f.ID != 5 || strings.Join(f.Exception, " ") != "error esd "+bad.msg {
			t.Errorf("restore of %.20q... = %+v, want error esd %s", bad.image, f, bad.msg)
		}
		checkDecorated(t, c2, "session after refused restore")
	}

	if got := srv.Metrics().Snapshots.Load(); got != 2 {
		t.Errorf("snapshots counter = %d, want 2", got)
	}
	if got := srv.Metrics().Restores.Load(); got != 1 {
		t.Errorf("restores counter = %d, want 1", got)
	}
}

// TestSnapOverFrameBound: a snap whose reply line would be over
// maxFrameBytes, which no FrameReader accepts, is refused with an error
// frame naming the image's size and the bound, and the session stays
// usable.
func TestSnapOverFrameBound(t *testing.T) {
	srv := newTestServer(t, Config{})
	c := dial(t, srv.cfg.Socket)
	// 7 MiB of value is 9.3 MiB of base64.
	if f := c.eval(t, "big = "+strings.Repeat("x", 7<<20)+"; result 0", 0); f.Type != "result" {
		t.Fatalf("eval = %+v", f)
	}
	f, err := c.RoundTrip(&Frame{Type: "snap", ID: 2})
	if err != nil {
		t.Fatalf("snap round trip: %v", err)
	}
	msg := strings.Join(f.Exception, " ")
	if f.Type != "error" || f.ID != 2 || !strings.HasPrefix(msg, "error esd snap: ") ||
		!strings.Contains(msg, strconv.Itoa(maxFrameBytes)) {
		t.Fatalf("oversized snap reply = %+v", f)
	}
	if f := c.eval(t, "big = small; result $big", 0); f.Type != "result" || strings.Join(f.Value, " ") != "small" {
		t.Fatalf("eval after the refused snap = %+v", f)
	}
	if f := c.roundTrip(t, &Frame{Type: "snap", ID: 3}); f.Type != "snap" || f.Image == "" {
		t.Fatalf("snap after the refused one = %+v", f)
	}
	if got := srv.Metrics().Snapshots.Load(); got != 1 {
		t.Errorf("snapshots counter = %d, want 1", got)
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

// TestMigrateOverFrameBound: a session whose image makes a restore frame
// over maxFrameBytes, which the target would drop, is not migrated.  The
// bound is checked before anything is dialed, the client gets an error
// frame naming both sizes, and the session stays where it was.
func TestMigrateOverFrameBound(t *testing.T) {
	origin := newTestServer(t, Config{})
	target := newTestServer(t, Config{})
	c := dial(t, origin.cfg.Socket)
	decorate(t, c)
	// 7 MiB of value is 9.3 MiB of base64.
	if f := c.eval(t, "big = "+strings.Repeat("x", 7<<20)+"; result 0", 0); f.Type != "result" {
		t.Fatalf("eval = %+v", f)
	}
	f := c.roundTrip(t, &Frame{Type: "migrate", ID: 4, Socket: target.cfg.Socket})
	msg := strings.Join(f.Exception, " ")
	if f.Type != "error" || f.ID != 4 || !strings.HasPrefix(msg, "error esd migrate: an image of ") ||
		!strings.HasSuffix(msg, "-byte frame, over the "+strconv.Itoa(maxFrameBytes)+"-byte bound") {
		t.Fatalf("oversized migrate reply = %+v", f)
	}
	if f := c.eval(t, "big = small; result $big", 0); f.Type != "result" || strings.Join(f.Value, " ") != "small" {
		t.Fatalf("eval after the refused migrate = %+v", f)
	}
	checkDecorated(t, c, "session after the refused migrate")
	if got := origin.Metrics().Migrations.Load(); got != 0 {
		t.Errorf("migrations counter = %d after the refusal", got)
	}
	if got := target.Metrics().SessionsOpened.Load(); got != 0 {
		t.Errorf("the target opened %d sessions: the origin dialed it", got)
	}
	if f := c.roundTrip(t, &Frame{Type: "migrate", ID: 5, Socket: target.cfg.Socket}); f.Type != "migrate" || !f.True {
		t.Fatalf("migrate once the image fits = %+v", f)
	}
	checkDecorated(t, c, "session migrated once its image fits")
}

// TestRelayRequestOverFrameBound: a request that fits the bound as the
// client wrote it but not once the relay encodes it again (each raw <
// becomes \u003c) is answered by the relay with an error frame with its
// id, and the relay goes on forwarding.
func TestRelayRequestOverFrameBound(t *testing.T) {
	origin := newTestServer(t, Config{})
	target := newTestServer(t, Config{})
	c := dial(t, origin.cfg.Socket)
	decorate(t, c)
	if f := c.roundTrip(t, &Frame{Type: "migrate", ID: 1, Socket: target.cfg.Socket}); f.Type != "migrate" || !f.True {
		t.Fatalf("migrate reply = %+v", f)
	}
	line := `{"type":"eval","id":2,"src":"` + strings.Repeat("<", 2<<20) + `"}` + "\n"
	if _, err := c.Conn.Write([]byte(line)); err != nil {
		t.Fatal(err)
	}
	f, err := c.Read()
	if err != nil {
		t.Fatalf("reply to the oversized relayed request: %v", err)
	}
	msg := strings.Join(f.Exception, " ")
	if f.Type != "error" || f.ID != 2 || !strings.HasPrefix(msg, "error esd request of ") ||
		!strings.HasSuffix(msg, " bytes is over the "+strconv.Itoa(maxFrameBytes)+"-byte frame bound") {
		t.Fatalf("oversized relayed request = %+v", f)
	}
	checkDecorated(t, c, "migrated session after the refused request")
}

// TestImageLineLen: the length a snap or a migrate checks against the
// frame bound is the length of the line the frame's encoder writes.
func TestImageLineLen(t *testing.T) {
	for _, typ := range []string{"snap", "restore"} {
		for _, id := range []int64{0, 1, -1, 12345, math.MaxInt64, math.MinInt64} {
			for _, n := range []int{1, 2, 3, 4, 100, 4096} {
				data := bytes.Repeat([]byte{0xfe}, n)
				line, err := appendFrame(nil, &Frame{Type: typ, ID: id, rawImage: data})
				if err != nil {
					t.Fatal(err)
				}
				if got := imageLineLen(typ, id, n); got != len(line)+1 {
					t.Errorf("imageLineLen(%s, %d, %d) = %d, the line is %d with its newline", typ, id, n, got, len(line)+1)
				}
				want, _ := json.Marshal(&Frame{Type: typ, ID: id, Image: base64.StdEncoding.EncodeToString(data)})
				if !bytes.Equal(line, want) {
					t.Errorf("frame with a raw image:\n%s\njson.Marshal of its base64:\n%s", line, want)
				}
			}
		}
	}
}

// TestDecodeBase64MatchesStdlib: restore's chunked decoder accepts,
// decodes and rejects what base64.StdEncoding.DecodeString does, with its
// error texts, around its chunk boundaries too.
func TestDecodeBase64MatchesStdlib(t *testing.T) {
	var inputs []string
	for _, n := range []int{0, 1, 2, 3, 766, 767, 768, 769, 770, 1535, 1536, 1537, 5000} {
		data := make([]byte, n)
		for k := range data {
			data[k] = byte(k*7 + n)
		}
		enc := base64.StdEncoding.EncodeToString(data)
		inputs = append(inputs, enc, enc+"=", enc+"\n", "\r\n"+enc)
		for _, at := range []int{0, 1, 1023, 1024, 1025, len(enc) / 2, len(enc) - 1} {
			if at < 0 || at > len(enc) {
				continue
			}
			inputs = append(inputs,
				enc[:at]+"\n"+enc[at:],
				enc[:at]+"\r\n\n\n"+enc[at:],
				enc[:at]+"!"+enc[min(at+1, len(enc)):],
				enc[:at]+"==="+enc[at:],
				enc[:at]+"QQ=="+enc[at:],
				enc[:at])
		}
	}
	for _, in := range inputs {
		got, err := decodeBase64(in)
		want, wantErr := base64.StdEncoding.DecodeString(in)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || err == nil && got != string(want) {
			t.Errorf("decodeBase64 of %d bytes (%.40q...) = %d bytes, %v; DecodeString %d bytes, %v",
				len(in), in, len(got), err, len(want), wantErr)
		}
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
