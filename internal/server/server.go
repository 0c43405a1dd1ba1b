package server

import (
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"es/internal/core"
)

// Config configures a Server.
type Config struct {
	// Socket is the unix-domain socket path to serve on.
	Socket string

	// TCP, when non-empty, is a host:port to also serve plaintext TCP on
	// (":0" picks a free port; see TCPAddr).
	TCP string

	// TLS, when non-empty, is a host:port to also serve TLS on; CertFile
	// and KeyFile must name a PEM certificate/key pair.
	TLS      string
	CertFile string
	KeyFile  string

	// MaxConcurrent caps simultaneously running evaluations across all
	// sessions (default GOMAXPROCS); sessions beyond the cap queue on the
	// semaphore in arrival order.
	MaxConcurrent int

	// MaxWindow is the largest per-session pipeline window a hello frame
	// can be granted (default 32).  Sessions that never say hello run
	// with a window of 1 — the pre-pipelining serial behavior.
	MaxWindow int

	// DefaultDeadline applies to eval frames that do not carry their own
	// deadline_ms; zero means no server-imposed deadline.
	DefaultDeadline time.Duration

	// Vet makes every eval frame pass static analysis before admission:
	// a script with static errors (parse failure, unregistered $&primitive)
	// is answered with an error frame and never evaluated.
	Vet bool

	// Tenants maps tenant names (from the hello frame) to their quotas.
	// Tenants absent from the map are unlimited but still accounted.
	Tenants map[string]TenantQuota

	// P99Ceiling, when positive, turns on p99-aware shedding: while the
	// p99 of evals completed in the last sample period exceeds it, new
	// evals are answered `signal overload` instead of queueing.
	P99Ceiling time.Duration

	// QueueCeiling, when positive, sheds evals arriving while the
	// dispatch-queue depth (admitted evals not yet running) is at or
	// over it.
	QueueCeiling int

	// RetryAfterMS is the retry hint stamped on every refused eval, shed
	// or over its tenant's in-flight quota (default 100).
	RetryAfterMS int64

	// NewSession builds one detached session interpreter; it runs on the
	// new connection's own goroutine.  The usual implementation spawns
	// from a warm template:
	//
	//	sh, _ := es.New(es.Options{...})         // once
	//	cfg.NewSession = func() (*core.Interp, error) {
	//		return sh.Interp().Spawn(), nil       // per session
	//	}
	NewSession func() (*core.Interp, error)

	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// overload is the admission verdict when an eval is refused: the client
// sees an error frame `signal <Signal> <Reason>` carrying RetryAfterMS as
// a retry hint.
type overload struct {
	Signal       string // "overload" (shed) or "quota" (tenant ceiling)
	Reason       string
	RetryAfterMS int64
}

// Server is a concurrent es evaluation daemon.
type Server struct {
	cfg     Config
	ln      net.Listener // the unix socket
	tcp     net.Listener
	tlsL    net.Listener
	lock    *os.File // flock-held sentinel next to the unix socket
	sem     chan struct{}
	metrics Metrics
	ctrl    controller
	tenants *tenantSet

	drainCh      chan struct{} // closed when draining starts
	draining     atomic.Bool
	drainOnce    sync.Once
	teardownOnce sync.Once // lock release, after the drain

	mu       sync.Mutex
	sessions map[uint64]*session
	nextID   atomic.Uint64
	wg       sync.WaitGroup // accept loops, the controller, one per connection
}

// New builds a Server.  Nothing is bound until Listen.
func New(cfg Config) (*Server, error) {
	if cfg.NewSession == nil {
		return nil, errors.New("server: Config.NewSession is required")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxWindow <= 0 {
		cfg.MaxWindow = 32
	}
	if cfg.RetryAfterMS <= 0 {
		cfg.RetryAfterMS = 100
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		tenants:  newTenantSet(cfg.Tenants),
		drainCh:  make(chan struct{}),
		sessions: make(map[uint64]*session),
	}
	s.ctrl = newController(&s.metrics, cfg)
	return s, nil
}

// admitEval decides one arriving eval's fate before it is queued: nil
// admits it; a non-nil overload sheds it with a retryable error frame.
// Tenant in-flight quotas are checked first (they are the tighter,
// attributable signal), then the admission controller.
func (s *Server) admitEval(t *tenantState) *overload {
	if t != nil && t.quota.MaxInFlight > 0 && t.inflight.Load() >= int64(t.quota.MaxInFlight) {
		s.metrics.QuotaRejects.Add(1)
		return &overload{Signal: "quota",
			Reason:       "tenant " + t.name + " in-flight quota exhausted",
			RetryAfterMS: s.cfg.RetryAfterMS}
	}
	if ov := s.ctrl.admit(); ov != nil {
		s.metrics.Sheds.Add(1)
		return ov
	}
	return nil
}

// Listen binds every configured surface: the unix socket, then TCP, then
// TLS.  If any step fails, everything already bound is closed and the
// socket lock released before the error returns, so the same path can be
// listened on again at once.
//
// The unix socket replaces a stale socket file left by a dead daemon.
// Takeover is guarded by an exclusive flock on a sentinel file next to
// the socket: two daemons racing for the same stale socket would
// otherwise both pass the liveness dial check and the loser's Listen
// would silently unlink the winner's freshly bound socket.  The kernel
// drops the lock when the owner dies, so a crashed daemon never wedges
// the path.
func (s *Server) Listen() (err error) {
	defer func() {
		if err != nil {
			s.closeListeners()
			s.ln, s.tcp, s.tlsL = nil, nil, nil
			s.releaseLock()
		}
	}()
	lock, err := os.OpenFile(s.cfg.Socket+".lock", os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return fmt.Errorf("server: %s: daemon already running (lock held)", s.cfg.Socket)
	}
	s.lock = lock
	if fi, err := os.Stat(s.cfg.Socket); err == nil && fi.Mode()&os.ModeSocket != 0 {
		if c, err := net.Dial("unix", s.cfg.Socket); err == nil {
			c.Close()
			return fmt.Errorf("server: %s: daemon already running", s.cfg.Socket)
		}
		os.Remove(s.cfg.Socket)
	}
	if s.ln, err = net.Listen("unix", s.cfg.Socket); err != nil {
		return err
	}
	if s.cfg.TCP != "" {
		if s.tcp, err = net.Listen("tcp", s.cfg.TCP); err != nil {
			return err
		}
	}
	if s.cfg.TLS != "" {
		if s.cfg.CertFile == "" || s.cfg.KeyFile == "" {
			return errors.New("server: TLS listener needs CertFile and KeyFile")
		}
		cert, err := tls.LoadX509KeyPair(s.cfg.CertFile, s.cfg.KeyFile)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", s.cfg.TLS)
		if err != nil {
			return err
		}
		s.tlsL = tls.NewListener(ln, &tls.Config{
			Certificates: []tls.Certificate{cert},
			MinVersion:   tls.VersionTLS12,
		})
	}
	return nil
}

// TCPAddr is the bound TCP address after Listen ("" without a TCP
// listener) — the way scripts and tests discover a ":0" port.
func (s *Server) TCPAddr() string {
	if s.tcp == nil {
		return ""
	}
	return s.tcp.Addr().String()
}

// TLSAddr is the bound TLS address after Listen ("" without TLS).
func (s *Server) TLSAddr() string {
	if s.tlsL == nil {
		return ""
	}
	return s.tlsL.Addr().String()
}

// Serve runs one accept loop per bound listener — unix, then TCP, then
// TLS, each counted under lst_<name>_* — and the p99 controller.  It
// returns nil once the server starts draining.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("server: Serve before Listen")
	}
	// Under s.mu, so a concurrent Drain either sees these goroutines in
	// wg or stops them from starting.
	s.mu.Lock()
	if !s.draining.Load() {
		for _, l := range []struct {
			name string
			ln   net.Listener
		}{{"unix", s.ln}, {"tcp", s.tcp}, {"tls", s.tlsL}} {
			if l.ln != nil {
				s.wg.Add(1)
				go s.accept(l.ln, s.metrics.registerListener(l.name))
			}
		}
		if s.ctrl.p99Ceiling > 0 {
			s.ctrl.prev = s.metrics.buckets()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.ctrl.run(s.drainCh)
			}()
		}
	}
	s.mu.Unlock()
	<-s.drainCh
	return nil
}

// accept serves one listener until Drain closes it.  Each connection
// gets a goroutine of its own, so a slow NewSession never holds up the
// next Accept: a runner (core.Go), which starts the session on a stack
// an earlier session already grew.  The loop adds it to wg while itself
// counted there, which orders the Add before Drain's Wait.  Any error
// but a closed listener (EMFILE, ECONNABORTED, ...) is logged and
// retried after a backoff, as net/http does, so a transient one cannot
// end serving.
func (s *Server) accept(ln net.Listener, ls *ListenerStats) {
	defer s.wg.Done()
	s.cfg.Logf("esd: listening on %s %s", ls.Name, ln.Addr())
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			s.cfg.Logf("esd: accept on %s: %v; retrying in %v", ls.Name, err, backoff)
			select {
			case <-time.After(backoff):
			case <-s.drainCh:
			}
			continue
		}
		backoff = 0
		s.wg.Add(1)
		core.Go(func() {
			defer s.wg.Done()
			s.startSession(conn, ls)
		})
	}
}

// startSession spawns the connection's interpreter and runs its session
// to the end.  If NewSession fails the client gets an error frame, and if
// draining began meanwhile a drain goodbye; either way the connection
// then closes.
func (s *Server) startSession(conn net.Conn, ls *ListenerStats) {
	interp, err := s.cfg.NewSession()
	if err != nil {
		fw := NewFrameWriter(conn, &s.metrics.BytesOut)
		fw.Write(&Frame{Type: "error", Exception: []string{"error", "esd", err.Error()}})
		fw.Release()
		conn.Close()
		return
	}
	interp.ServerStats = s.Stats
	id := s.nextID.Add(1)
	sess := newSession(id, s, conn, interp, ls)
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		sess.fw.Write(&Frame{Type: "bye", Reason: "drain"})
		sess.fw.Release()
		conn.Close()
		return
	}
	s.sessions[id] = sess
	s.mu.Unlock()
	s.metrics.SessionsOpened.Add(1)
	if ls != nil {
		ls.Sessions.Add(1)
	}
	sess.run()
}

// dropSession forgets a finished session.
func (s *Server) dropSession(id uint64) {
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
}

// Drain performs a graceful shutdown: stop accepting, let every session
// answer the requests it has already read, then say bye and close.  It
// returns nil once all sessions have exited.  If timeout is positive and
// sessions are still busy when it expires — an eval with no deadline
// stuck in a loop, say — their interpreters are cooperatively cancelled
// (`signal shutdown`), their connections closed, and Drain reports an
// error.  Drain is idempotent; concurrent callers all wait.
func (s *Server) Drain(timeout time.Duration) error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh) // stops the controller and every session loop
		// Taking s.mu orders this after a Serve that saw draining unset,
		// so its wg.Add calls precede the Wait below.
		s.mu.Lock()
		s.closeListeners()
		s.mu.Unlock()
		s.cfg.Logf("esd: draining (%d sessions open)", s.openSessions())
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var timeoutCh <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeoutCh = t.C
	}
	select {
	case <-done:
		s.teardown()
		s.cfg.Logf("esd: drain complete")
		return nil
	case <-timeoutCh:
		s.forceClose()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
		}
		s.teardown()
		return fmt.Errorf("server: drain timed out after %v; sessions force-closed", timeout)
	}
}

// teardown releases the socket lock exactly once, however many Drain
// callers get there; a late caller waits in Do until the first has
// finished, so every caller returns after the teardown.
func (s *Server) teardown() {
	s.teardownOnce.Do(s.releaseLock)
}

// closeListeners closes every bound listener; the unix listener unlinks
// its socket file as it closes.
func (s *Server) closeListeners() {
	for _, ln := range []net.Listener{s.ln, s.tcp, s.tlsL} {
		if ln != nil {
			ln.Close()
		}
	}
}

// releaseLock lets go of the socket-takeover sentinel; the kernel would
// drop the flock at process exit anyway, this just tidies the in-process
// (tests, embedders) lifecycle.
func (s *Server) releaseLock() {
	if s.lock != nil {
		s.lock.Close()
		s.lock = nil
	}
}

// forceClose aborts the sessions that outlived the drain timeout: their
// in-flight evals are cancelled at the next command boundary and their
// connections closed under them.
func (s *Server) forceClose() {
	closed := make(chan struct{})
	close(closed)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sess := range s.sessions {
		sess.interp.SetCancel(closed, "shutdown")
		sess.conn.Close()
	}
}

func (s *Server) openSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Stats snapshots the server-wide counters as name:value words: the
// global counter set, per-listener transport counters, then per-tenant
// gauges.
func (s *Server) Stats() []string {
	return append(s.metrics.Words(), s.tenants.words()...)
}

// Metrics exposes the raw counter set (tests and embedders).
func (s *Server) Metrics() *Metrics { return &s.metrics }
