// Package server is the esd serving layer: a concurrent evaluation
// service that drives es interpreters over a unix-domain socket and,
// when configured, TCP and TLS listeners next to it.
//
// The paper frames es as an embeddable command language — "a library
// version of es which could be used stand-alone as a shell or linked into
// other programs" — and this package is that library version put behind a
// wire: one accept loop per listener hands each connection to a
// goroutine of its own, which spawns the session's interpreter from a
// warm template and alone runs it (core.Interp is not safe for
// concurrent use), fed through a mailbox.  A semaphore caps concurrent
// evaluations, and per-request deadlines surface in-script as the
// catchable exception `signal deadline` via the interpreter's
// cooperative-cancellation boundary checks.  Admission
// control (tenant quotas, queue-depth and p99 ceilings) refuses evals at
// the read loop, before they queue.
//
// The protocol is newline-delimited JSON, one Frame per line, the same on
// every transport.  Clients send eval, stats and bye frames; the server
// answers with result, error, stats and bye frames.  A session that never
// says hello is served serially; a hello frame may negotiate a pipeline
// window (several evals in flight, replies matched by id, ordering
// guaranteed only per id) and name a tenant for quota accounting.
// Cross-session concurrency comes from sessions.  Dial is the client
// side.
//
// Frames are encoded and decoded by a codec written for the Frame struct
// alone (codec.go), without reflection: it writes each frame byte for
// byte as encoding/json would and reads a line by encoding/json's rules.
// A line that does not decode is answered with an error frame and the
// session reads on, since the newline framing is intact; a client that
// hangs up has the evals it left queued dropped, not run.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Frame is one protocol message.  Type selects which fields are
// meaningful:
//
//	eval    (client) — Src, optional ID and DeadlineMS
//	result  (server) — ID, Value, True, Stdout, Stderr, MS
//	error   (server) — ID, Exception (the uncaught es exception, one word
//	                   per list term), Stdout, Stderr, MS
//	stats   (client) — ID; (server) — ID, Stats
//	snap    (client) — ID; (server) — ID, Image (the session's state as a
//	                   base64 session image, internal/image format)
//	restore (client) — ID, Image; (server) — ID, True (state replaced)
//	migrate (client) — ID, Socket (another esd as a Dial target: a unix
//	                   socket path, tcp://host:port or tls://host:port);
//	                   (server) — ID, Socket, True once the session's state lives on
//	                   the target and this daemon has become a relay: the
//	                   target answers later frames on the same connection,
//	                   bar the few the read loop answers itself (see relay)
//	check   (client) — ID, Src; (server) — ID, Diags (one word per
//	                   diagnostic), Effects (capability categories the
//	                   script reaches), True when the script carries no
//	                   static errors.  Nothing is evaluated.
//	hello   (client) — optional ID, Tenant (name for quota accounting),
//	                   Window (requested pipeline window); (server) — ID,
//	                   Tenant, Window (the granted window, clamped to the
//	                   server's ceiling), True.  The server never sends a
//	                   hello unsolicited, so clients that predate it see
//	                   only the frame types they always saw.
//	bye     (either) — Reason on the server side ("bye", "drain",
//	                   "quota", "frame too large")
//
// A shed eval — admission control refusing work under overload, or a
// tenant over its in-flight quota — is answered with an error frame whose
// Exception begins `signal overload` (or `signal quota`) and whose
// RetryAfterMS tells the client when a retry is worth attempting.
type Frame struct {
	Type       string   `json:"type"`
	ID         int64    `json:"id,omitempty"`
	Src        string   `json:"src,omitempty"`
	DeadlineMS int64    `json:"deadline_ms,omitempty"`
	Value      []string `json:"value,omitempty"`
	True       bool     `json:"true,omitempty"`
	Exception  []string `json:"exception,omitempty"`
	Stdout     string   `json:"stdout,omitempty"`
	Stderr     string   `json:"stderr,omitempty"`
	MS         float64  `json:"ms,omitempty"`
	Stats      []string `json:"stats,omitempty"`
	Reason     string   `json:"reason,omitempty"`
	Image      string   `json:"image,omitempty"`   // base64 session image
	Socket     string   `json:"socket,omitempty"`  // migrate target
	Diags      []string `json:"diags,omitempty"`   // check: one word per diagnostic
	Effects    []string `json:"effects,omitempty"` // check: capability categories

	Tenant       string `json:"tenant,omitempty"`         // hello: tenant name for quotas
	Window       int    `json:"window,omitempty"`         // hello: requested/granted pipeline window
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"` // error(overload/quota): retry hint
}

// maxFrameBytes bounds one frame line; a client shipping a larger script
// gets an error frame (see ErrFrameTooLarge and the session read loop)
// rather than an unbounded buffer.
const maxFrameBytes = 8 << 20

// ErrFrameTooLarge reports a frame line over maxFrameBytes.  The
// underlying bufio.Scanner cannot resynchronize past the oversized line,
// so the stream is unusable after this error; the session answers with an
// error frame and a bye rather than dying silently.
var ErrFrameTooLarge = fmt.Errorf("frame exceeds %d bytes: %w", maxFrameBytes, bufio.ErrTooLong)

// ErrBadFrame reports a line that is not a valid frame.  The newline
// framing survives it, so unlike ErrFrameTooLarge the stream is still
// usable: the session answers with an error frame and reads on.
var ErrBadFrame = errors.New("bad frame")

// FrameReader decodes newline-delimited frames, counting wire bytes into
// the given metrics counters (nil counters are skipped; sessions count
// into both the server-wide and the per-listener counter).
type FrameReader struct {
	s  *bufio.Scanner
	in []*atomic.Int64
}

// NewFrameReader reads frames from r.  Its line buffer starts at
// bufio's default size and grows only as far as the longest line, up to
// maxFrameBytes.
func NewFrameReader(r io.Reader, in ...*atomic.Int64) *FrameReader {
	s := bufio.NewScanner(r)
	s.Buffer(nil, maxFrameBytes)
	return &FrameReader{s: s, in: in}
}

// Read returns the next frame; io.EOF at end of stream, ErrFrameTooLarge
// for a line over the frame-size bound, and an error wrapping ErrBadFrame
// for a line that does not decode.
func (fr *FrameReader) Read() (*Frame, error) {
	if !fr.s.Scan() {
		if err := fr.s.Err(); err != nil {
			if errors.Is(err, bufio.ErrTooLong) {
				return nil, ErrFrameTooLarge
			}
			return nil, err
		}
		return nil, io.EOF
	}
	line := fr.s.Bytes()
	for _, c := range fr.in {
		if c != nil {
			c.Add(int64(len(line) + 1))
		}
	}
	return decodeFrame(line)
}

// FrameWriter encodes frames one per line.  It serializes writers: the
// session goroutine, the read loop's admission path, the server's drain
// path and a migrated session's relay may all speak on one connection.
// The first failed write stops it, since a torn line would corrupt the
// stream: every later Write returns that error without writing.
type FrameWriter struct {
	mu  sync.Mutex
	w   io.Writer
	out []*atomic.Int64
	buf []byte // the last frame encoded, reused for the next
	err error  // the first write error
}

// maxKeptFrame bounds the encoding buffer a FrameWriter keeps between
// writes, so one large reply (a snap image, a long stdout) does not stay
// pinned to an idle connection.
const maxKeptFrame = 64 << 10

func NewFrameWriter(w io.Writer, out ...*atomic.Int64) *FrameWriter {
	return &FrameWriter{w: w, out: out}
}

func (fw *FrameWriter) Write(f *Frame) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	b, err := appendFrame(fw.buf[:0], f)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if cap(b) <= maxKeptFrame {
		fw.buf = b
	}
	return fw.put(b)
}

// CopyLines copies r to the connection one whole line at a time, holding
// the lock for each line, so a frame from Write lands between two copied
// lines, never inside one.  A line longer than the read buffer is written
// in pieces, all under one hold of the lock, so Write waits while r is
// slow to finish a long line.  It stops at the writer's first error,
// which it returns, or at r's end (nil) or error.
func (fw *FrameWriter) CopyLines(r io.Reader) error {
	br := bufio.NewReaderSize(r, 32<<10)
	for {
		line, err := br.ReadSlice('\n')
		fw.mu.Lock()
		for len(line) > 0 && fw.put(line) == nil && err == bufio.ErrBufferFull {
			// The line runs past the buffer: copy the rest of it
			// before another frame can take the lock.
			line, err = br.ReadSlice('\n')
		}
		werr := fw.err
		fw.mu.Unlock()
		switch {
		case werr != nil:
			return werr
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		}
	}
}

// put writes b, counting the bytes written; fw.mu is held.  The first
// failed write is kept and stops every later one.
func (fw *FrameWriter) put(b []byte) error {
	if fw.err != nil {
		return fw.err
	}
	n, err := fw.w.Write(b)
	for _, c := range fw.out {
		if c != nil {
			c.Add(int64(n))
		}
	}
	fw.err = err
	return err
}

// Err returns the write error that stopped the writer, or nil.
func (fw *FrameWriter) Err() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.err
}
