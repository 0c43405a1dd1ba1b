// Command esc is the esd client: it submits one command to a running es
// evaluation daemon and relays the result.
//
// Usage:
//
//	esc [-socket path | -addr host:port] [-deadline ms] 'command ...'
//	esc -stats
//	esc -check 'command ...'
//	esc [-restore file] [-migrate target] [-snap file] ['command ...']
//
// -addr dials the daemon over TCP instead of the unix socket; -tls wraps
// that connection in TLS (-tls-ca pins a PEM CA bundle, -tls-skip-verify
// disables verification for lab setups).  -tenant names the session's
// quota bucket via a hello handshake before any other frame.  -retry
// bounds connect attempts with exponential backoff (50ms doubling to
// 1s), so scripted runs don't flake on daemon startup.
//
// The command's captured stdout and stderr are replayed to esc's own
// streams; the exit status follows the es convention (0 for a true
// result, the numeric value for a small-integer result, 1 otherwise).
// An uncaught exception — including `signal deadline` when the request
// overran -deadline — is reported on stderr with exit status 1.
//
// The session-image flags compose in a fixed order on one connection,
// regardless of where they appear on the command line: -restore loads a
// saved image into the fresh session first, -migrate then moves the
// session to another daemon (a unix socket path, tcp://host:port or
// tls://host:port), the command (if any) runs next, and -snap
// checkpoints the final state to a file last.  So `esc
// -restore s.esimg 'work'` resumes a checkpoint, `esc -snap s.esimg
// 'setup'` runs setup and then saves the result, and `esc -restore
// s.esimg -migrate /run/esd2.sock -snap s.esimg 'work'` does all three
// across two daemons.
//
// With -check the command is statically analyzed by the daemon (against
// the session's own hook and primitive registries) instead of being run:
// diagnostics print one per line, the effect categories follow, and the
// exit status is 1 if the script carries static errors.
package main

import (
	"encoding/base64"
	"flag"
	"fmt"
	"os"
	"strings"

	"es/internal/core"
	"es/internal/prim"
	"es/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		socket      = flag.String("socket", server.DefaultSocket(), "esd unix socket `path` (or $ESD_SOCKET)")
		addr        = flag.String("addr", "", "dial the daemon over TCP at `host:port` instead of the unix socket")
		useTLS      = flag.Bool("tls", false, "wrap the -addr connection in TLS")
		tlsCA       = flag.String("tls-ca", "", "PEM CA bundle `file` to verify the daemon against")
		tlsSkip     = flag.Bool("tls-skip-verify", false, "skip TLS certificate verification")
		tenant      = flag.String("tenant", "", "declare this session's quota `tenant` via a hello handshake")
		retry       = flag.Int("retry", 3, "connect `attempts` with exponential backoff")
		deadlineMS  = flag.Int64("deadline", 0, "per-request deadline in `ms` (0 = server default)")
		stats       = flag.Bool("stats", false, "print server statistics and exit")
		checkOnly   = flag.Bool("check", false, "statically analyze the command on the daemon instead of running it")
		snapFile    = flag.String("snap", "", "checkpoint the session image to `file` after the command")
		restoreFile = flag.String("restore", "", "load the session image from `file` before the command")
		migrateSock = flag.String("migrate", "", "move the session to the daemon at `target` (socket path, tcp://host:port or tls://host:port) before the command")
	)
	flag.Parse()
	if !*stats && flag.NArg() == 0 && *snapFile == "" && *restoreFile == "" && *migrateSock == "" {
		fmt.Fprintln(os.Stderr, "usage: esc [-socket path | -addr host:port] [-deadline ms] [-restore file] [-migrate target] [-snap file] ['command ...'] | esc -stats")
		return 2
	}

	c, err := dialDaemon(*socket, *addr, *useTLS, *tlsCA, *tlsSkip, *retry)
	if err != nil {
		fmt.Fprintln(os.Stderr, "esc:", err)
		return 1
	}
	defer c.Conn.Close()

	// roundTrip submits one frame and returns the daemon's answer.
	id := int64(0)
	roundTrip := func(req *server.Frame) (*server.Frame, error) {
		id++
		req.ID = id
		f, err := c.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		if f.Type == "bye" {
			return nil, fmt.Errorf("server closed the session: %s", f.Reason)
		}
		if f.Type == "error" && req.Type != "eval" {
			return nil, fmt.Errorf("%s: %s", req.Type, strings.Join(f.Exception, " "))
		}
		return f, nil
	}

	// Tenancy is declared before anything else runs, so every frame on
	// this connection is accounted (and quota-checked) under the tenant.
	if *tenant != "" {
		if _, err := roundTrip(&server.Frame{Type: "hello", Tenant: *tenant}); err != nil {
			fmt.Fprintln(os.Stderr, "esc:", err)
			return 1
		}
	}

	if *stats {
		f, err := roundTrip(&server.Frame{Type: "stats"})
		if err != nil {
			fmt.Fprintln(os.Stderr, "esc:", err)
			return 1
		}
		for _, w := range f.Stats {
			fmt.Println(w)
		}
		return 0
	}

	// The image operations compose in a fixed order: restore the saved
	// state first, migrate the (possibly restored) session next, run the
	// command on whichever daemon now owns it, snap the final state last.
	if *restoreFile != "" {
		data, err := os.ReadFile(*restoreFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "esc:", err)
			return 1
		}
		if _, err := roundTrip(&server.Frame{Type: "restore",
			Image: base64.StdEncoding.EncodeToString(data)}); err != nil {
			fmt.Fprintln(os.Stderr, "esc:", err)
			return 1
		}
	}
	if *migrateSock != "" {
		if _, err := roundTrip(&server.Frame{Type: "migrate", Socket: *migrateSock}); err != nil {
			fmt.Fprintln(os.Stderr, "esc:", err)
			return 1
		}
	}
	status := 0
	if *checkOnly {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "esc: -check needs a command")
			return 2
		}
		f, err := roundTrip(&server.Frame{Type: "check",
			Src: strings.Join(flag.Args(), " ")})
		if err != nil {
			fmt.Fprintln(os.Stderr, "esc:", err)
			return 1
		}
		for _, d := range f.Diags {
			fmt.Println(d)
		}
		if len(f.Effects) > 0 {
			fmt.Println("effects:", strings.Join(f.Effects, " "))
		}
		if !f.True {
			return 1
		}
		return 0
	}
	if flag.NArg() > 0 {
		f, err := roundTrip(&server.Frame{Type: "eval",
			Src: strings.Join(flag.Args(), " "), DeadlineMS: *deadlineMS})
		if err != nil {
			fmt.Fprintln(os.Stderr, "esc:", err)
			return 1
		}
		os.Stdout.WriteString(f.Stdout)
		os.Stderr.WriteString(f.Stderr)
		if f.Type == "error" {
			fmt.Fprintln(os.Stderr, "esc: uncaught exception:", strings.Join(f.Exception, " "))
			status = 1
		} else {
			status = prim.ExitStatus(core.StrList(f.Value...))
		}
	}
	if *snapFile != "" {
		f, err := roundTrip(&server.Frame{Type: "snap"})
		if err != nil {
			fmt.Fprintln(os.Stderr, "esc:", err)
			return 1
		}
		data, err := base64.StdEncoding.DecodeString(f.Image)
		if err != nil {
			fmt.Fprintln(os.Stderr, "esc: snap:", err)
			return 1
		}
		if err := os.WriteFile(*snapFile, data, 0o600); err != nil {
			fmt.Fprintln(os.Stderr, "esc:", err)
			return 1
		}
	}
	return status
}

// dialDaemon turns esc's transport flags into a server.Dial target: the
// unix socket, or tcp://addr (tls://addr with -tls) when -addr is set.
func dialDaemon(socket, addr string, useTLS bool, caFile string, skipVerify bool, attempts int) (*server.Client, error) {
	if addr == "" {
		if useTLS {
			return nil, fmt.Errorf("-tls needs -addr")
		}
		return server.Dial(socket, nil, attempts)
	}
	if !useTLS {
		return server.Dial("tcp://"+addr, nil, attempts)
	}
	tlsCfg, err := server.ClientTLS(caFile, skipVerify)
	if err != nil {
		return nil, err
	}
	return server.Dial("tls://"+addr, tlsCfg, attempts)
}
