package server

// One session = one connection = one interpreter = one goroutine.  The
// read loop turns wire frames into mailbox messages; the session
// goroutine — the interpreter's only driver, since core.Interp is not
// safe for concurrent use — drains the mailbox in order.  Asynchronous
// aborts (per-request deadlines) do not need a second driver: they ride
// the interpreter's cooperative cancellation, armed before RunString and
// fired from a timer goroutine that never touches the interpreter.
//
// Pipelining: the mailbox doubles as the per-session dispatch queue.  A
// hello frame grants a window W (clamped to Config.MaxWindow); the read
// loop then admits up to W unanswered evals before it stops reading —
// TCP backpressure is the flow control.  Evals still execute one at a
// time on the interpreter, in arrival order, so per-id ordering is free;
// the win is that frame decode, the wire round trip, and the next
// request's network time overlap with evaluation.  Admission control
// also lives on the read loop: a shed eval (overload or tenant quota) is
// answered immediately with a retryable error frame without ever
// touching the queue, which is exactly what load shedding is for —
// refusing work at the front door while the interpreter digs out.

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"es/internal/analysis"
	"es/internal/core"
)

// session is one client connection and the interpreter it owns.
type session struct {
	id     uint64
	srv    *Server
	conn   net.Conn
	interp *core.Interp
	fr     *FrameReader
	fw     *FrameWriter
	mail   chan *Frame   // read loop -> session goroutine (the dispatch queue)
	closed chan struct{} // closed when the session goroutine exits
	sm     sessionMetrics

	// evalDone carries one token per answered (or forwarded, or dropped)
	// eval back to the read loop's window accounting.  Capacity MaxWindow
	// ≥ any granted window, so sends never block even after the read loop
	// has given up.
	evalDone chan struct{}

	// tenant is set by the read loop on the first hello naming one; the
	// session goroutine reads it for deadline clamping and accounting.
	tenant atomic.Pointer[tenantState]
}

func newSession(id uint64, srv *Server, conn net.Conn, interp *core.Interp, ls *ListenerStats) *session {
	var inLst, outLst *atomic.Int64
	if ls != nil {
		inLst, outLst = &ls.BytesIn, &ls.BytesOut
	}
	return &session{
		id:       id,
		srv:      srv,
		conn:     conn,
		interp:   interp,
		fr:       NewFrameReader(conn, &srv.metrics.BytesIn, inLst),
		fw:       NewFrameWriter(conn, &srv.metrics.BytesOut, outLst),
		mail:     make(chan *Frame, srv.cfg.MaxWindow),
		closed:   make(chan struct{}),
		evalDone: make(chan struct{}, srv.cfg.MaxWindow),
	}
}

// run drives the session to completion.  It returns when the client says
// bye, the connection drops, or the server drains — in the drain case
// only after every request already in the mailbox has been answered.
func (s *session) run() {
	defer func() {
		close(s.closed)
		s.conn.Close()
		// Evals admitted but never dispatched (a force-close or a dead
		// client dropped the session mid-queue) still hold queue-depth and
		// tenant-in-flight accounting; release them.  The read loop is
		// guaranteed to close the mailbox: its reads fail once the
		// connection is closed, and its window waits select on s.closed.
		for f := range s.mail {
			s.release(f)
		}
		// The read loop has ended, the last writer but this goroutine;
		// a write after Release would get a buffer of its own.
		s.fw.Release()
		s.srv.metrics.SessionsClosed.Add(1)
		s.srv.dropSession(s.id)
	}()
	go s.readLoop()
	for {
		select {
		case f, ok := <-s.mail:
			if !ok {
				return // client hung up
			}
			if s.dispatch(f) {
				return
			}
		case <-s.srv.drainCh:
			// Finish the work already accepted, then say goodbye.
			for {
				select {
				case f, ok := <-s.mail:
					if !ok {
						return
					}
					if s.dispatch(f) {
						return
					}
					continue
				default:
				}
				break
			}
			s.fw.Write(&Frame{Type: "bye", Reason: "drain"})
			return
		}
	}
}

// finishEval returns one admitted eval's window token and tenant
// in-flight slot.  Exactly one call per admitted eval, on whichever path
// retired it: answered, forwarded by a relay, or dropped at close.
func (s *session) finishEval() {
	if t := s.tenant.Load(); t != nil {
		t.inflight.Add(-1)
	}
	s.evalDone <- struct{}{}
}

// release retires a frame taken off the mailbox that this session will
// not dispatch: an eval gives back the queue-depth slot its admission
// took, then its window token and tenant slot.
func (s *session) release(f *Frame) {
	if f.Type == "eval" {
		s.srv.metrics.Queued.Add(-1)
		s.finishEval()
	}
}

// readLoop feeds the mailbox until the stream ends.  It never touches the
// interpreter; hello handshakes and eval admission (window backpressure,
// overload shedding, tenant quotas) are handled here so a shed request is
// answered even while the interpreter is busy.
func (s *session) readLoop() {
	window := 1
	pending := 0
	defer func() {
		s.fr.Release()
		close(s.mail)
		if t := s.tenant.Load(); t != nil {
			t.sessions.Add(-1)
		}
	}()
	for {
		f, err := s.fr.Read()
		if errors.Is(err, ErrBadFrame) {
			// The newline framing survives a line that does not decode,
			// so say what was wrong with it and read on.
			s.fw.Write(&Frame{Type: "error",
				Exception: []string{"error", "esd", err.Error()}})
			continue
		}
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				// The doc on maxFrameBytes promises an error frame, and
				// the scanner cannot resync past the oversized line, so
				// answer and hang up instead of dying silently.
				s.fw.Write(&Frame{Type: "error",
					Exception: []string{"error", "esd", err.Error()}})
				s.fw.Write(&Frame{Type: "bye", Reason: "frame too large"})
			}
			return
		}
		switch f.Type {
		case "hello":
			w, ok := s.hello(f, window)
			if !ok {
				return
			}
			window = w
			continue
		case "eval":
			if ov := s.srv.admitEval(s.tenant.Load()); ov != nil {
				s.fw.Write(&Frame{Type: "error", ID: f.ID,
					Exception:    []string{"signal", ov.Signal, ov.Reason},
					RetryAfterMS: ov.RetryAfterMS})
				continue
			}
			for pending >= window {
				select {
				case <-s.evalDone:
					pending--
				case <-s.closed:
					return
				}
			}
			pending++
			s.srv.metrics.Queued.Add(1)
			if t := s.tenant.Load(); t != nil {
				t.inflight.Add(1)
			}
		}
		select {
		case s.mail <- f:
		case <-s.closed:
			return
		}
	}
}

// hello negotiates the session's pipeline window and tenant.  It runs on
// the read loop before any frame it precedes is admitted, so the session
// goroutine observes the tenant through the mailbox's happens-before.
// The bool result is false when the session must close (tenant over its
// session quota).
func (s *session) hello(f *Frame, window int) (int, bool) {
	w := f.Window
	if w < 1 {
		w = 1
	}
	if w > s.srv.cfg.MaxWindow {
		w = s.srv.cfg.MaxWindow
	}
	if f.Tenant != "" {
		switch cur := s.tenant.Load(); {
		case cur == nil:
			t, ok := s.srv.tenants.acquireSession(f.Tenant)
			if !ok {
				s.srv.metrics.QuotaRejects.Add(1)
				s.fw.Write(&Frame{Type: "error", ID: f.ID,
					Exception: []string{"signal", "quota", "tenant " + f.Tenant + " session quota exhausted"}})
				s.fw.Write(&Frame{Type: "bye", Reason: "quota"})
				return window, false
			}
			s.tenant.Store(t)
		case cur.name != f.Tenant:
			// Tenancy is fixed for the life of a session; a different name
			// is an error, but not a fatal one — the window still applies.
			s.fw.Write(&Frame{Type: "error", ID: f.ID,
				Exception: []string{"error", "esd", "tenant already set: " + cur.name}})
			return window, true
		}
	}
	reply := &Frame{Type: "hello", ID: f.ID, Window: w, True: true}
	if t := s.tenant.Load(); t != nil {
		reply.Tenant = t.name
	}
	s.reply(reply)
	return w, true
}

// dispatch handles one frame; the returned bool means "close the
// session".  Once a reply has failed to go out nobody hears this session,
// so it runs nothing more: the frame in hand is released, and run's
// deferred drain releases the rest of the queue.
func (s *session) dispatch(f *Frame) bool {
	if s.fw.Err() != nil {
		s.release(f)
		return true
	}
	return s.handle(f) || s.fw.Err() != nil
}

// handle answers one frame; the returned bool means "close the session".
func (s *session) handle(f *Frame) bool {
	switch f.Type {
	case "eval":
		// The eval's accounting is released before its reply goes out, so
		// a client that has its answer sees balanced counters.
		reply := s.eval(f)
		s.finishEval()
		s.reply(reply)
		return false
	case "stats":
		words := append(s.srv.Stats(), s.sm.words(s.id)...)
		s.reply(&Frame{Type: "stats", ID: f.ID, Stats: words})
		return false
	case "snap":
		s.snap(f)
		return false
	case "restore":
		s.restore(f)
		return false
	case "migrate":
		return s.migrate(f)
	case "check":
		s.check(f)
		return false
	case "bye":
		s.fw.Write(&Frame{Type: "bye", Reason: "bye"})
		return true
	default:
		s.reply(&Frame{Type: "error", ID: f.ID,
			Exception: []string{"error", "esd", "unknown frame type: " + f.Type}})
		return false
	}
}

// reply writes f, the answer to a request.  A reply whose line would be
// over the frame bound is not written; an error frame with the
// request's id says so instead, and the session reads on.
func (s *session) reply(f *Frame) {
	s.tooLong(s.fw.Write(f), f.ID, "reply")
}

// tooLong answers the request id with an error frame naming what was
// over the frame bound, when err is a frame the writer refused for its
// size, and reports whether it was.  FrameWriter.Write returns an
// errTooLong bare, so a type assertion finds it; errors.As would move
// its target to the heap on every reply.
func (s *session) tooLong(err error, id int64, what string) bool {
	big, ok := err.(errTooLong)
	if !ok {
		return false
	}
	s.fw.Write(&Frame{Type: "error", ID: id, Exception: []string{"error", "esd",
		fmt.Sprintf("%s of %d bytes is over the %d-byte frame bound", what, big.n, maxFrameBytes)}})
	return true
}

// analyze runs the static analyzer over one script, resolving hooks,
// primitives and variables against this session's interpreter, so a
// script that spoofed a hook earlier in the session checks against its
// own definitions.
func (s *session) analyze(src string) analysis.Result {
	return analysis.Analyze(src, analysis.Options{Env: analysis.EnvFromInterp(s.interp)})
}

// check answers a check frame: static diagnostics and the effect summary
// for the script, without evaluating any of it.
func (s *session) check(f *Frame) {
	s.srv.metrics.Checks.Add(1)
	res := s.analyze(f.Src)
	reply := &Frame{Type: "check", ID: f.ID, True: res.Errors() == 0,
		Effects: res.Effects.Categories}
	for _, d := range res.Diags {
		reply.Diags = append(reply.Diags, d.String())
	}
	if res.Errors() > 0 {
		s.srv.metrics.CheckRejects.Add(1)
	}
	s.reply(reply)
}

// eval runs one request on the session's interpreter, under the server's
// eval semaphore and, when a deadline applies, under a cancel token that
// surfaces in-script as the catchable exception `signal deadline`.  It
// returns the reply frame.
func (s *session) eval(f *Frame) *Frame {
	s.srv.sem <- struct{}{}
	s.srv.metrics.Queued.Add(-1) // dispatched: no longer queue depth
	defer func() { <-s.srv.sem }()
	m := &s.srv.metrics
	m.InFlight.Add(1)
	defer m.InFlight.Add(-1)
	m.Evals.Add(1)
	s.sm.evals.Add(1)

	// Pre-admission vetting: with -vet, a script with static errors (a
	// parse failure or a reference to an unregistered $&primitive) is
	// rejected here, before any of it runs.
	if s.srv.cfg.Vet {
		if res := s.analyze(f.Src); res.Errors() > 0 {
			m.Checks.Add(1)
			m.CheckRejects.Add(1)
			exc := []string{"error", "esd", "vet: script rejected by static analysis"}
			for _, d := range res.Filter(analysis.SevError) {
				exc = append(exc, d.String())
			}
			return &Frame{Type: "error", ID: f.ID, Exception: exc}
		}
	}

	deadline := s.srv.cfg.DefaultDeadline
	if f.DeadlineMS > 0 {
		deadline = time.Duration(f.DeadlineMS) * time.Millisecond
	}
	// The tenant's deadline ceiling clamps both longer requests and
	// requests asking for no deadline at all.
	if t := s.tenant.Load(); t != nil && t.quota.DeadlineCeiling > 0 {
		if deadline <= 0 || deadline > t.quota.DeadlineCeiling {
			deadline = t.quota.DeadlineCeiling
		}
	}
	// Pipeline elements and background jobs write from their own
	// goroutines.  A background job that outlives its request writes into
	// a buffer nobody will read again, which is safe and intentionally
	// lossy (the C shell drops output of disowned jobs on a closed
	// terminal the same way).
	var out, errb core.Buffer
	ctx := core.NewIOTable(strings.NewReader(""), &out, &errb).Ctx()
	if deadline > 0 {
		done := make(chan struct{})
		timer := time.AfterFunc(deadline, func() { close(done) })
		s.interp.SetCancel(done, "deadline")
		defer func() {
			// A background job the request left running keeps the
			// token, so the timer must still fire to end it.
			if !s.interp.ClearCancel() {
				timer.Stop()
			}
		}()
	}
	start := time.Now()
	res, err := s.interp.RunString(ctx, f.Src)
	elapsed := time.Since(start)
	// The next request must start clean even if this one left an
	// interrupt pending mid-eval; the deadline token is cleared above.
	s.interp.ClearInterrupt()
	m.Observe(elapsed)

	reply := &Frame{
		ID:     f.ID,
		Stdout: out.String(),
		Stderr: errb.String(),
		MS:     float64(elapsed.Microseconds()) / 1000,
	}
	if err != nil {
		m.Errors.Add(1)
		s.sm.errors.Add(1)
		reply.Type = "error"
		if exc := core.AsException(err); exc != nil {
			reply.Exception = exc.Args.Strings()
			if exc.Name() == "signal" && len(exc.Args) > 1 && exc.Args[1].String() == "deadline" {
				m.Timeouts.Add(1)
				s.sm.timeouts.Add(1)
			}
		} else {
			reply.Exception = []string{"error", "esd", err.Error()}
		}
	} else {
		reply.Type = "result"
		reply.Value = res.Strings()
		reply.True = res.True()
	}
	return reply
}
