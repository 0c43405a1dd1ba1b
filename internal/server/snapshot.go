package server

// Session checkpointing and live migration.  A session's definable state
// serializes to an internal/image session image, which makes three
// daemon-level capabilities nearly free:
//
//   - snap/restore frames: a client checkpoints its session, the daemon
//     restarts, and the client restores into a fresh session — restart
//     without session loss.
//
//   - migrate frames: the origin daemon captures the session, replays it
//     into a new session on the target daemon, then degrades itself to a
//     transparent frame relay.  The client keeps its one connection; its
//     evals now run on the target.  Stateless load-balancing for a
//     connection-oriented protocol.
//
//   - pre-baked templates: a Config.NewSession built by NewSessionFromImage
//     restores an image once onto a template and stamps sessions out of
//     it with Spawn, which shares the template's variables instead of
//     copying them, so per-session cost does not grow with how much
//     state the image carries.

import (
	"encoding/base64"
	"fmt"

	"es/internal/core"
	"es/internal/image"
)

// NewSessionFromImage returns a Config.NewSession that spawns sessions
// pre-baked from a session image.  The image is restored once, onto a
// private template spawned from base (which supplies the primitives and
// builtins — images carry state, not code); each session is then a cheap
// Spawn of the template.
func NewSessionFromImage(base *core.Interp, img *image.Image) func() (*core.Interp, error) {
	template := base.Spawn()
	img.Restore(template)
	return func() (*core.Interp, error) {
		return template.Spawn(), nil
	}
}

// snap answers with the session's state as a base64 session image.  It
// runs on the session goroutine, so the interpreter is quiescent; no
// meta is stamped, keeping snap → restore → snap byte-identical.  An
// image whose reply line would be over maxFrameBytes, which no
// FrameReader accepts, is refused with an error frame instead, and the
// session reads on.
func (s *session) snap(f *Frame) {
	data := image.Capture(s.interp, nil).Encode()
	reply := &Frame{Type: "snap", ID: f.ID}
	// The line is the frame without its image, the image's field (base64
	// text, which JSON does not escape) and the newline.  appendFrame
	// fails only on a frame's ms, which reply does not set.
	bare, _ := appendFrame(nil, reply)
	line := len(bare) + len(`,"image":""`) + base64.StdEncoding.EncodedLen(len(data)) + 1
	if line > maxFrameBytes {
		s.fw.Write(&Frame{Type: "error", ID: f.ID, Exception: []string{"error", "esd",
			fmt.Sprintf("snap: an image of %d bytes makes a %d-byte frame, over the %d-byte bound", len(data), line, maxFrameBytes)}})
		return
	}
	s.srv.metrics.Snapshots.Add(1)
	reply.Image = base64.StdEncoding.EncodeToString(data)
	s.fw.Write(reply)
}

// restore replaces the session's definable state with the frame's image.
func (s *session) restore(f *Frame) {
	img, err := decodeImageFrame(f)
	if err != nil {
		s.fw.Write(&Frame{Type: "error", ID: f.ID,
			Exception: []string{"error", "esd", err.Error()}})
		return
	}
	img.Restore(s.interp)
	s.srv.metrics.Restores.Add(1)
	s.fw.Write(&Frame{Type: "restore", ID: f.ID, True: true})
}

func decodeImageFrame(f *Frame) (*image.Image, error) {
	data, err := base64.StdEncoding.DecodeString(f.Image)
	if err != nil {
		return nil, err
	}
	return image.Decode(data)
}

// migrate moves the session to the daemon at f.Socket — a Dial target:
// unix path, tcp:// or tls:// — and turns this session into a relay.  The
// returned bool is dispatch's "close the session" flag: true once the
// relay ends.  A failed migration replies with an error frame and leaves
// the session here, untouched.
func (s *session) migrate(f *Frame) bool {
	fail := func(msg string) bool {
		s.fw.Write(&Frame{Type: "error", ID: f.ID,
			Exception: []string{"error", "esd", "migrate: " + msg}})
		return false
	}
	if f.Socket == "" {
		return fail("no target socket")
	}
	if s.srv.isSelf(f.Socket) {
		return fail("target is this daemon")
	}
	target, err := Dial(f.Socket, nil, 1)
	if err != nil {
		return fail(err.Error())
	}
	img := image.Capture(s.interp, nil)
	ack, err := target.RoundTrip(&Frame{Type: "restore", ID: f.ID,
		Image: base64.StdEncoding.EncodeToString(img.Encode())})
	if err != nil {
		target.Conn.Close()
		return fail(err.Error())
	}
	if ack.Type != "restore" || !ack.True {
		target.Conn.Close()
		msg := "target refused the session"
		if len(ack.Exception) > 0 {
			msg = ack.Exception[len(ack.Exception)-1]
		}
		return fail(msg)
	}
	s.srv.metrics.Migrations.Add(1)
	s.srv.cfg.Logf("esd: session %d migrated to %s", s.id, f.Socket)
	s.fw.Write(&Frame{Type: "migrate", ID: f.ID, Socket: f.Socket, True: true})
	s.relay(target)
	return true
}

// isSelf reports whether a migrate target names one of this daemon's own
// listeners.
func (s *Server) isSelf(target string) bool {
	return target == s.cfg.Socket ||
		s.tcp != nil && target == "tcp://"+s.TCPAddr() ||
		s.tlsL != nil && target == "tls://"+s.TLSAddr()
}

// relay forwards the rest of the session through the target connection:
// client frames out of the mailbox are re-framed to the target, and
// target lines are copied back verbatim through the session's frame
// writer, a whole line per hold of its lock, so the frames the read loop
// still answers itself (bad lines, hellos, admission refusals) land
// between relayed lines.  The relay ends when either side hangs up or
// this daemon drains — a drain closes the target connection, and the
// client sees EOF exactly as if its daemon had restarted, which is what
// the snap/restore path is for.
func (s *session) relay(target *Client) {
	tconn := target.Conn
	defer tconn.Close()
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		s.fw.CopyLines(tconn)
	}()
	for {
		select {
		case f, ok := <-s.mail:
			if !ok {
				tconn.Close()
				<-copied
				return
			}
			// The target answers this frame; an eval's local accounting
			// is released here.
			s.release(f)
			if err := target.Write(f); err != nil {
				<-copied
				return
			}
		case <-s.srv.drainCh:
			tconn.Close()
			<-copied
			return
		case <-copied:
			return
		}
	}
}
