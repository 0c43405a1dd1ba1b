package server

// Tests for the network surfaces next to the unix socket — TCP and TLS
// listeners, Listen's cleanup after a partial failure, the accept loop
// every listener shares — and for the admission controller:
// queue-ceiling shedding and the sliding-window p99 logic.

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"fmt"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"es"
	"es/internal/core"
)

func TestTCPServing(t *testing.T) {
	srv := newTestServer(t, Config{TCP: "127.0.0.1:0"})
	addr := srv.TCPAddr()
	if addr == "" {
		t.Fatal("no bound TCP address")
	}
	c := dial(t, "tcp://"+addr)
	if f := c.eval(t, "echo over tcp", 0); f.Type != "result" || f.Stdout != "over tcp\n" {
		t.Fatalf("tcp eval = %+v", f)
	}
	// The unix socket serves alongside.
	u := dial(t, srv.cfg.Socket)
	if f := u.eval(t, "result unix-too", 0); f.Type != "result" || f.Value[0] != "unix-too" {
		t.Fatalf("unix eval = %+v", f)
	}
}

// TestTCPManySessions: a burst of concurrent TCP sessions all served,
// counted under the tcp listener's stats.
func TestTCPManySessions(t *testing.T) {
	srv := newTestServer(t, Config{TCP: "127.0.0.1:0"})
	addr := srv.TCPAddr()
	const sessions = 32
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for k := 0; k < sessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := Dial("tcp://"+addr, nil, 1)
			if err != nil {
				errs <- err
				return
			}
			defer c.Conn.Close()
			want := fmt.Sprintf("s%d", k)
			f, err := c.RoundTrip(&Frame{Type: "eval", ID: 1, Src: "echo " + want})
			if err != nil || f.Type != "result" || f.Stdout != want+"\n" {
				errs <- fmt.Errorf("session %d: %+v, %v", k, f, err)
				return
			}
			c.Write(&Frame{Type: "bye"})
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	joined := strings.Join(srv.Stats(), " ")
	if !strings.Contains(joined, fmt.Sprintf("lst_tcp_sessions:%d", sessions)) {
		t.Errorf("per-listener session count missing: %s", joined)
	}
}

// flakyListener fails its first `fails` calls to Accept with EMFILE, as
// a daemon out of file descriptors sees them, then accepts normally.
type flakyListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "unix",
			Err: os.NewSyscallError("accept4", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestTransientAcceptError: an accept error other than a closed listener
// is logged and retried, not fatal.  After three EMFILEs the next client
// is served, and Serve returns nil once the server drains.
func TestTransientAcceptError(t *testing.T) {
	template, err := es.New(es.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []string
	srv, err := New(Config{
		Socket:     filepath.Join(t.TempDir(), "esd.sock"),
		NewSession: func() (*core.Interp, error) { return template.Interp().Spawn(), nil },
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: srv.ln}
	fl.fails.Store(3)
	srv.ln = fl
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	c := dial(t, srv.cfg.Socket)
	c.Conn.SetDeadline(time.Now().Add(5 * time.Second))
	f, err := c.RoundTrip(&Frame{Type: "eval", ID: 1, Src: "result served"})
	if err != nil || f.Type != "result" || strings.Join(f.Value, " ") != "served" {
		t.Errorf("eval after transient accept errors = %+v, %v", f, err)
	}
	if err := srv.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve = %v, want nil after Drain", err)
	}
	mu.Lock()
	defer mu.Unlock()
	var retried int
	for _, l := range logs {
		if strings.Contains(l, "too many open files") {
			retried++
		}
	}
	if retried != 3 {
		t.Errorf("%d accept errors logged, want 3:\n%s", retried, strings.Join(logs, "\n"))
	}
}

// TestSlowSessionStartDoesNotBlockAccept: NewSession runs on each
// connection's own goroutine, so a slow one never holds up the next
// Accept.  Here NewSession returns only once four calls are in flight
// together, and gives up with an error after 3s.
func TestSlowSessionStartDoesNotBlockAccept(t *testing.T) {
	template, err := es.New(es.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	var inFlight atomic.Int32
	var once sync.Once
	together := make(chan struct{})
	srv := newTestServer(t, Config{NewSession: func() (*core.Interp, error) {
		defer inFlight.Add(-1)
		if inFlight.Add(1) == clients {
			once.Do(func() { close(together) })
		}
		select {
		case <-together:
			return template.Interp().Spawn(), nil
		case <-time.After(3 * time.Second):
			return nil, fmt.Errorf("session start serialized")
		}
	}})
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := Dial(srv.cfg.Socket, nil, 1)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Conn.Close()
			want := fmt.Sprintf("c%d", k)
			f, err := c.RoundTrip(&Frame{Type: "eval", ID: 1, Src: "result " + want})
			if err != nil || f.Type != "result" || strings.Join(f.Value, " ") != want {
				t.Errorf("client %d: %+v, %v", k, f, err)
			}
		}(k)
	}
	wg.Wait()
}

// selfSignedCert writes a PEM cert/key pair for 127.0.0.1 into dir.
func selfSignedCert(t *testing.T, dir string) (certFile, keyFile string) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "esd-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	certFile = filepath.Join(dir, "cert.pem")
	keyFile = filepath.Join(dir, "key.pem")
	if err := os.WriteFile(certFile,
		pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der}), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile,
		pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER}), 0o600); err != nil {
		t.Fatal(err)
	}
	return certFile, keyFile
}

// trusting is a client TLS config that trusts only the cert in certFile.
func trusting(t *testing.T, certFile string) *tls.Config {
	t.Helper()
	pemBytes, err := os.ReadFile(certFile)
	if err != nil {
		t.Fatal(err)
	}
	roots := x509.NewCertPool()
	if !roots.AppendCertsFromPEM(pemBytes) {
		t.Fatal("bad test cert")
	}
	return &tls.Config{RootCAs: roots}
}

func TestTLSServing(t *testing.T) {
	dir := t.TempDir()
	certFile, keyFile := selfSignedCert(t, dir)
	srv := newTestServer(t, Config{TLS: "127.0.0.1:0", CertFile: certFile, KeyFile: keyFile})
	addr := srv.TLSAddr()
	if addr == "" {
		t.Fatal("no bound TLS address")
	}
	cl, err := Dial("tls://"+addr, trusting(t, certFile), 1)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cl.Conn.Close() })
	c := &client{cl}
	if f := c.eval(t, "result secure", 0); f.Type != "result" || f.Value[0] != "secure" {
		t.Fatalf("tls eval = %+v", f)
	}
	joined := strings.Join(srv.Stats(), " ")
	if !strings.Contains(joined, "lst_tls_sessions:1") {
		t.Errorf("tls listener stats missing: %s", joined)
	}
}

// TestQueueCeilingShed is the load-shedding acceptance path: with one
// eval running and the dispatch queue at its ceiling, further evals are
// answered `signal overload` with a retry hint while admitted work
// completes normally.  A shed eval is never evaluated, and the session
// that saw sheds keeps serving.
func TestQueueCeilingShed(t *testing.T) {
	srv := newTestServer(t, Config{
		MaxConcurrent: 1,
		QueueCeiling:  1,
		RetryAfterMS:  25,
		P99Ceiling:    time.Hour, // never trips; runs the sampling controller until Drain
	})
	a := dial(t, srv.cfg.Socket)
	if err := a.Write(&Frame{Type: "eval", ID: 1, Src: "sleep 0.4; result slow"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let it occupy the semaphore

	b := dial(t, srv.cfg.Socket)
	if f := b.hello(t, "", 4); f.Type != "hello" {
		t.Fatalf("hello: %+v", f)
	}
	// First eval queues (depth 1 = ceiling); the next two arrive over the
	// ceiling and must shed.
	for id := int64(1); id <= 3; id++ {
		if err := b.Write(&Frame{Type: "eval", ID: id, Src: "result ok"}); err != nil {
			t.Fatal(err)
		}
	}
	var shed, served int
	for k := 0; k < 3; k++ {
		f, err := b.Read()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case f.Type == "error" && len(f.Exception) > 1 && f.Exception[1] == "overload":
			if f.RetryAfterMS != 25 {
				t.Errorf("retry_after_ms = %d, want 25", f.RetryAfterMS)
			}
			shed++
		case f.Type == "result":
			served++
		default:
			t.Fatalf("unexpected reply %+v", f)
		}
	}
	if shed != 2 || served != 1 {
		t.Fatalf("shed=%d served=%d, want 2/1", shed, served)
	}
	if f, err := a.Read(); err != nil || f.Type != "result" || f.Value[0] != "slow" {
		t.Fatalf("admitted slow eval = %+v, %v", f, err)
	}
	if got := srv.Metrics().Sheds.Load(); got != 2 {
		t.Errorf("sheds counter = %d, want 2", got)
	}
	// Only the admitted evals ran: a's slow one and b's served one.
	if got := srv.Metrics().Evals.Load(); got != int64(served)+1 {
		t.Errorf("shed evals were evaluated: evals = %d, want %d", got, served+1)
	}
	if f := b.eval(t, "result ok", 0); f.Type != "result" {
		t.Fatalf("session unusable after shed: %+v", f)
	}
}

// TestControllerP99Window unit-tests the sliding-window p99 logic: a
// burst of slow evals flips shedding on; a quiet interval flips it off.
func TestControllerP99Window(t *testing.T) {
	var m Metrics
	// Never started: the test samples by hand.
	c := newController(&m, Config{
		P99Ceiling:   time.Millisecond,
		RetryAfterMS: 50,
	})
	c.prev = m.buckets()
	for k := 0; k < 20; k++ {
		m.Observe(10 * time.Millisecond)
	}
	c.sample()
	if !c.shedding.Load() {
		t.Fatal("p99 over ceiling did not start shedding")
	}
	if ov := c.admit(); ov == nil || ov.Signal != "overload" || ov.RetryAfterMS != 50 {
		t.Fatalf("admit under shed = %+v", ov)
	}
	// An interval in which nothing completed: admission reopens.
	c.sample()
	if c.shedding.Load() {
		t.Fatal("idle interval did not stop shedding")
	}
	if ov := c.admit(); ov != nil {
		t.Fatalf("admit after recovery = %+v", ov)
	}
	// Fast evals keep admission open.
	for k := 0; k < 20; k++ {
		m.Observe(10 * time.Microsecond)
	}
	c.sample()
	if c.shedding.Load() {
		t.Fatal("fast interval started shedding")
	}
}

// TestListenFailureReleasesEverything: a Listen that fails after binding
// the unix socket and a TCP listener — here on a missing TLS certificate
// — closes both and drops the socket lock, so a fresh server can take the
// same socket path at once.
func TestListenFailureReleasesEverything(t *testing.T) {
	template, err := es.New(es.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{
		Socket:     filepath.Join(dir, "esd.sock"),
		TCP:        "127.0.0.1:0",
		TLS:        "127.0.0.1:0",
		CertFile:   filepath.Join(dir, "missing-cert.pem"),
		KeyFile:    filepath.Join(dir, "missing-key.pem"),
		NewSession: func() (*core.Interp, error) { return template.Interp().Spawn(), nil },
	}
	bad, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Listen(); err == nil {
		t.Fatal("Listen with a missing certificate succeeded")
	}
	if _, err := os.Stat(cfg.Socket); err == nil {
		t.Error("failed Listen left its socket file on disk")
	}
	cfg.TCP, cfg.TLS = "", ""
	good, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Listen(); err != nil {
		t.Fatalf("Listen after a failed Listen: %v", err)
	}
	if err := good.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
}
