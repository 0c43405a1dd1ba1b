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
	"strconv"
	"strings"

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
// image whose reply line would be over maxFrameBytes is refused with an
// error frame instead (see imageFrame), and the session reads on.
func (s *session) snap(f *Frame) {
	reply, buf, err := s.imageFrame("snap", f.ID)
	if err != nil {
		s.fw.Write(&Frame{Type: "error", ID: f.ID,
			Exception: []string{"error", "esd", "snap: " + err.Error()}})
		return
	}
	s.srv.metrics.Snapshots.Add(1)
	s.fw.Write(reply)
	putFrameBuf(buf)
}

// imageFrame captures the session's state into a frame of type typ that
// carries it as its image.  The image is encoded into a buffer from
// framePool, which the caller gives back once the frame is written, and
// the frame's encoder writes its base64 straight into the line.  A frame
// whose line would be over maxFrameBytes, which no FrameReader accepts,
// is refused with an error naming both sizes.
func (s *session) imageFrame(typ string, id int64) (*Frame, *[]byte, error) {
	buf := framePool.Get().(*[]byte)
	*buf = image.AppendCapture((*buf)[:0], s.interp)
	n := len(*buf)
	if line := imageLineLen(typ, id, n); line > maxFrameBytes {
		putFrameBuf(buf)
		return nil, nil, fmt.Errorf("an image of %d bytes makes a %d-byte frame, over the %d-byte bound", n, line, maxFrameBytes)
	}
	return &Frame{Type: typ, ID: id, rawImage: *buf}, buf, nil
}

// imageLineLen is the length of the line, newline included, of a frame
// of type typ (which JSON does not escape) and id that carries an image
// of n bytes and nothing else: {"type":typ,"id":id,"image":"<base64>"}.
func imageLineLen(typ string, id int64, n int) int {
	line := len(`{"type":"","image":""}`+"\n") + len(typ) + base64.StdEncoding.EncodedLen(n)
	if id != 0 {
		var digits [20]byte
		line += len(`,"id":`) + len(strconv.AppendInt(digits[:0], id, 10))
	}
	return line
}

// restore replaces the session's definable state with the frame's image.
// The base64 is decoded into the one string that the image's names and
// values, and so the restored state, are cut from.  An image that is not
// base64, or not an image, is refused with an error frame and leaves the
// session as it was.
func (s *session) restore(f *Frame) {
	data, err := decodeBase64(f.Image)
	if err == nil {
		err = image.RestoreString(s.interp, data)
	}
	if err != nil {
		s.fw.Write(&Frame{Type: "error", ID: f.ID,
			Exception: []string{"error", "esd", err.Error()}})
		return
	}
	s.srv.metrics.Restores.Add(1)
	s.fw.Write(&Frame{Type: "restore", ID: f.ID, True: true})
}

// decodeBase64 decodes standard base64 into a string sized once and
// filled a chunk at a time, so the decoded bytes are copied into it from
// the stack and nowhere else.  It accepts, decodes and rejects what
// base64.StdEncoding.DecodeString does, with its errors: a chunk that
// fails, or that ends short before the end of s (padding or a line break
// inside), hands the whole of s to DecodeString.
func decodeBase64(s string) (string, error) {
	const chunk = 1 << 10 // base64 bytes per step, whole quanta
	var b strings.Builder
	b.Grow(base64.StdEncoding.DecodedLen(len(s)))
	var out [chunk / 4 * 3]byte
	for rest := s; rest != ""; {
		in := rest[:min(chunk, len(rest))]
		n, err := base64.StdEncoding.Decode(out[:], []byte(in))
		if err != nil || len(in) < len(rest) && n < len(out) {
			data, err := base64.StdEncoding.DecodeString(s)
			if err != nil {
				return "", err
			}
			return string(data), nil
		}
		b.Write(out[:n])
		rest = rest[len(in):]
	}
	return b.String(), nil
}

// migrate moves the session to the daemon at f.Socket — a Dial target:
// unix path, tcp:// or tls:// — and turns this session into a relay.  The
// returned bool is dispatch's "close the session" flag: true once the
// relay ends.  A failed migration replies with an error frame and leaves
// the session here, untouched; so does an image too large for the
// restore frame, found before anything is dialed.
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
	req, buf, err := s.imageFrame("restore", f.ID)
	if err != nil {
		return fail(err.Error())
	}
	target, err := Dial(f.Socket, nil, 1)
	if err != nil {
		putFrameBuf(buf)
		return fail(err.Error())
	}
	ack, err := target.RoundTrip(req)
	putFrameBuf(buf)
	if err != nil {
		target.Close()
		return fail(err.Error())
	}
	if ack.Type != "restore" || !ack.True {
		target.Close()
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
	defer target.Close()
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
