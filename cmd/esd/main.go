// Command esd is the es evaluation daemon: it serves concurrent es
// sessions over a unix-domain socket, and optionally over TCP and TLS
// next to it, with a newline-delimited JSON protocol (see
// internal/server).
//
// Usage:
//
//	esd [-socket path] [-tcp addr] [-tls addr -tls-cert f -tls-key f]
//	    [-window n] [-max-p99 ms] [-max-queue n] [-retry-after ms]
//	    [-quota tenant=sessions:inflight:deadline_ms]...
//	    [-template image] [-max n] [-deadline ms] [-vet]
//	    [-addr-file path] [-drain-timeout s] [-quiet]
//
// -socket defaults to $ESD_SOCKET, then $XDG_RUNTIME_DIR/esd.sock, then
// /tmp/esd-$UID.sock, the same path esc and esload dial.  Each
// connection spawns its own interpreter from a warm template (shell
// state, including function definitions, arrives through esd's own
// environment, exactly as for es itself).  With -template, the template
// is instead pre-baked from a session image (written by `snapshot` or an
// esc snap frame): every session starts with that image's variables,
// functions, and spoofed hooks already installed.  A per-request deadline —
// the frame's deadline_ms, or -deadline as the default — surfaces inside
// the script as the catchable exception `signal deadline`.  With -vet,
// every eval frame passes static analysis before admission: a script with
// static errors is answered with an error frame and never evaluated.
//
// -tcp and -tls add listeners next to the unix socket (":0" picks a free
// port; -addr-file writes the bound addresses as `tcp=addr` / `tls=addr`
// lines for scripts to pick up).  -window caps the per-session pipeline
// window a hello frame can be granted.  -max-p99 and -max-queue arm the
// admission controller: evals arriving while the sliding-window p99 or
// the dispatch-queue depth is over its ceiling are answered with a
// retryable `signal overload` error frame carrying retry_after_ms
// (-retry-after, also stamped on tenant quota refusals).  -quota sets
// one tenant's ceilings (0 means unlimited), e.g. `-quota
// acme=100:16:5000` — 100 sessions, 16 in-flight evals, 5s deadline
// ceiling.
//
// SIGTERM or SIGINT triggers a graceful drain: stop accepting on every
// listener, answer every request already accepted, say bye, exit 0.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"es"
	"es/internal/core"
	"es/internal/image"
	"es/internal/server"
)

func main() {
	os.Exit(run())
}

// quotaFlag accumulates repeated -quota tenant=sessions:inflight:deadline_ms.
type quotaFlag map[string]server.TenantQuota

func (q quotaFlag) String() string { return fmt.Sprintf("%v", map[string]server.TenantQuota(q)) }

func (q quotaFlag) Set(s string) error {
	name, spec, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want tenant=sessions:inflight:deadline_ms, got %q", s)
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return fmt.Errorf("want tenant=sessions:inflight:deadline_ms, got %q", s)
	}
	var n [3]int
	for k, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 {
			return fmt.Errorf("bad quota field %q in %q", p, s)
		}
		n[k] = v
	}
	q[name] = server.TenantQuota{
		MaxSessions:     n[0],
		MaxInFlight:     n[1],
		DeadlineCeiling: time.Duration(n[2]) * time.Millisecond,
	}
	return nil
}

func run() int {
	quotas := quotaFlag{}
	var (
		socket       = flag.String("socket", server.DefaultSocket(), "unix socket `path` to serve on (or $ESD_SOCKET)")
		tcpAddr      = flag.String("tcp", "", "also serve plaintext TCP on `addr` (\":0\" picks a port)")
		tlsAddr      = flag.String("tls", "", "also serve TLS on `addr`")
		tlsCert      = flag.String("tls-cert", "", "PEM certificate `file` for -tls")
		tlsKey       = flag.String("tls-key", "", "PEM private key `file` for -tls")
		maxWindow    = flag.Int("window", 32, "max per-session pipeline window grantable by hello")
		maxP99       = flag.Int("max-p99", 0, "shed evals while the sliding-window p99 exceeds this many `ms` (0 = off)")
		maxQueue     = flag.Int("max-queue", 0, "shed evals while this many are queued but not running (0 = off)")
		retryAfter   = flag.Int64("retry-after", 100, "retry_after_ms hint stamped on shed and quota-refused evals")
		addrFile     = flag.String("addr-file", "", "write bound tcp=/tls= addresses to `path` (for \":0\" ports)")
		templateImg  = flag.String("template", "", "session `image` to pre-bake the session template from")
		maxConc      = flag.Int("max", runtime.GOMAXPROCS(0), "max concurrent evaluations")
		deadlineMS   = flag.Int("deadline", 0, "default per-request deadline in `ms` (0 = none)")
		vet          = flag.Bool("vet", false, "statically analyze every eval and reject scripts with errors before running them")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a graceful drain may take")
		quiet        = flag.Bool("quiet", false, "suppress lifecycle logging")
	)
	flag.Var(quotas, "quota", "tenant quota as `tenant=sessions:inflight:deadline_ms` (repeatable, 0 = unlimited)")
	flag.Parse()

	// The template interpreter: primitives, coreutils, initial.es and the
	// process environment, initialized once; sessions are stamped out of
	// it with Spawn, so none of that work repeats per connection.
	template, err := es.New(es.Options{
		Stdout:  io.Discard,
		Stderr:  io.Discard,
		Environ: os.Environ(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "esd: startup:", err)
		return 1
	}

	newSession := func() (*core.Interp, error) {
		return template.Interp().Spawn(), nil
	}
	if *templateImg != "" {
		img, err := image.ReadFile(*templateImg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "esd: template:", err)
			return 1
		}
		newSession = server.NewSessionFromImage(template.Interp(), img)
	}

	logf := func(string, ...any) {}
	if !*quiet {
		logger := log.New(os.Stderr, "", log.LstdFlags)
		logf = logger.Printf
	}
	srv, err := server.New(server.Config{
		Socket:          *socket,
		TCP:             *tcpAddr,
		TLS:             *tlsAddr,
		CertFile:        *tlsCert,
		KeyFile:         *tlsKey,
		MaxConcurrent:   *maxConc,
		MaxWindow:       *maxWindow,
		DefaultDeadline: time.Duration(*deadlineMS) * time.Millisecond,
		Vet:             *vet,
		Tenants:         quotas,
		P99Ceiling:      time.Duration(*maxP99) * time.Millisecond,
		QueueCeiling:    *maxQueue,
		RetryAfterMS:    *retryAfter,
		NewSession:      newSession,
		Logf:            logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "esd:", err)
		return 1
	}
	if err := srv.Listen(); err != nil {
		fmt.Fprintln(os.Stderr, "esd:", err)
		return 1
	}
	defer os.Remove(*socket)
	if *addrFile != "" {
		var lines string
		if a := srv.TCPAddr(); a != "" {
			lines += "tcp=" + a + "\n"
		}
		if a := srv.TLSAddr(); a != "" {
			lines += "tls=" + a + "\n"
		}
		if err := os.WriteFile(*addrFile, []byte(lines), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "esd:", err)
			return 1
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	drainErr := make(chan error, 1)
	go func() {
		<-sig
		drainErr <- srv.Drain(*drainTimeout)
	}()

	if err := srv.Serve(); err != nil {
		fmt.Fprintln(os.Stderr, "esd: serve:", err)
		return 1
	}
	// Serve returns nil only when draining; wait for the drain verdict.
	if err := <-drainErr; err != nil {
		fmt.Fprintln(os.Stderr, "esd:", err)
		return 1
	}
	return 0
}
