package server

// The client side of the protocol: one dial path for every caller — esc,
// esload, the benchmarks, the tests, and a migrating session dialing its
// target daemon.

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"os"
	"strings"
	"time"
)

// DefaultSocket is the unix socket esd serves on and its clients dial
// when none is given: $ESD_SOCKET, else esd.sock in the user's runtime
// dir when the platform provides one, else /tmp/esd-$UID.sock.
func DefaultSocket() string {
	if s := os.Getenv("ESD_SOCKET"); s != "" {
		return s
	}
	if dir := os.Getenv("XDG_RUNTIME_DIR"); dir != "" {
		return dir + "/esd.sock"
	}
	return fmt.Sprintf("/tmp/esd-%d.sock", os.Getuid())
}

// Client is one connection to an esd with its frame codecs: Read returns
// the next frame, Write sends one.
type Client struct {
	Conn net.Conn
	*FrameReader
	*FrameWriter
}

// Dial connects to the esd at target: a bare unix socket path,
// tcp://host:port, or tls://host:port.  tlsCfg applies to tls:// targets
// only; nil verifies the daemon against the system roots.  A failed
// connect is retried until attempts are used up, sleeping 50ms before the
// first retry and doubling up to 1s, so scripted runs don't flake on
// daemon startup.
func Dial(target string, tlsCfg *tls.Config, attempts int) (*Client, error) {
	network, addr := "unix", target
	if rest, ok := strings.CutPrefix(target, "tcp://"); ok {
		network, addr = "tcp", rest
	} else if rest, ok := strings.CutPrefix(target, "tls://"); ok {
		network, addr = "tls", rest
	}
	backoff := 50 * time.Millisecond
	var err error
	for k := 0; k < max(attempts, 1); k++ {
		if k > 0 {
			time.Sleep(backoff)
			backoff = min(2*backoff, time.Second)
		}
		var conn net.Conn
		if network == "tls" {
			conn, err = tls.Dial("tcp", addr, tlsCfg)
		} else {
			conn, err = net.Dial(network, addr)
		}
		if err == nil {
			return &Client{Conn: conn, FrameReader: NewFrameReader(conn), FrameWriter: NewFrameWriter(conn)}, nil
		}
	}
	return nil, err
}

// ClientTLS is the client TLS configuration behind esc's and esload's
// -tls-ca and -tls-skip-verify flags: verify against the PEM CA bundle in
// caFile (the system roots when caFile is empty), or not at all.
func ClientTLS(caFile string, skipVerify bool) (*tls.Config, error) {
	cfg := &tls.Config{InsecureSkipVerify: skipVerify, MinVersion: tls.VersionTLS12}
	if caFile == "" {
		return cfg, nil
	}
	pem, err := os.ReadFile(caFile)
	if err != nil {
		return nil, err
	}
	cfg.RootCAs = x509.NewCertPool()
	if !cfg.RootCAs.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("%s: no certificates found", caFile)
	}
	return cfg, nil
}

// Close closes the connection and gives the client's frame buffers back
// to the pools every connection shares.  It must not run beside a Read.
func (c *Client) Close() error {
	err := c.Conn.Close()
	c.FrameReader.Release()
	c.FrameWriter.Release()
	return err
}

// RoundTrip writes one frame and reads the next one back.  It matches no
// ids: a pipelining caller writes and reads on its own.
func (c *Client) RoundTrip(f *Frame) (*Frame, error) {
	if err := c.Write(f); err != nil {
		return nil, err
	}
	return c.Read()
}

// Hello opens the session with a hello handshake asking for a pipeline
// window and naming a quota tenant ("" for none).  The reply is the
// server's hello with the granted window, or the error frame of a refused
// tenant.
func (c *Client) Hello(window int, tenant string) (*Frame, error) {
	return c.RoundTrip(&Frame{Type: "hello", Window: window, Tenant: tenant})
}
