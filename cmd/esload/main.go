// Command esload is the esd load harness: it drives a running daemon
// with thousands of sessions of mixed workloads over unix, TCP, or TLS,
// and reports throughput and client-observed latency quantiles.
//
// Usage:
//
//	esload [-socket path | -addr host:port [-tls ...]] [-sessions n]
//	       [-evals n] [-window w] [-tenant t] [-mix micro|deadline|snap|mixed]
//	       [-deadline ms] [-name label] [-quiet]
//
// Each session is one connection worker.  With -window > 1 (or -tenant)
// the worker opens with a hello handshake and keeps up to the granted
// window of evals in flight — the in-session pipelining path; replies are
// matched by frame id.  Mixes:
//
//	micro     cheap evals (`result 1`), the round-trip floor
//	deadline  deadline-bound spins: `while {} {}` under -deadline ms,
//	          each request costing exactly its deadline — the knob for
//	          driving a daemon into overload
//	snap      snapshot/restore churn: snap, then restore the same image
//	mixed     4 micro : 1 deadline : 1 snap
//
// Shed requests (`signal overload` / `signal quota` error frames) are
// counted separately from failures and excluded from the latency
// quantiles, so the reported p99 is that of admitted requests — the
// number an admission ceiling is supposed to protect.
//
// The one-line machine summary on stdout is shaped like a `go test`
// benchmark line (`esload/<name> <requests> <ns_per_op> ns/op ...`) so
// scripts/bench_server.sh can fold runs into BENCH_server.json next to
// the in-process benchmarks; the human summary goes to stderr.
package main

import (
	"crypto/tls"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"es/internal/server"
)

func main() {
	os.Exit(run())
}

// tally is one worker's outcome, merged after the run.
type tally struct {
	lat      []time.Duration // admitted, answered requests
	requests int
	errors   int // transport failures and unexpected error frames
	sheds    int // signal overload / signal quota refusals
	timeouts int // signal deadline (expected under the deadline mix)
}

type loadCfg struct {
	target     string // a server.Dial target
	tlsCfg     *tls.Config
	evals      int
	window     int
	tenant     string
	mix        string
	deadlineMS int64
}

func run() int {
	var (
		socket     = flag.String("socket", server.DefaultSocket(), "esd unix socket `path` (or $ESD_SOCKET)")
		addr       = flag.String("addr", "", "dial over TCP at `host:port` instead of the unix socket")
		useTLS     = flag.Bool("tls", false, "wrap the -addr connection in TLS")
		tlsCA      = flag.String("tls-ca", "", "PEM CA bundle `file` to verify the daemon against")
		tlsSkip    = flag.Bool("tls-skip-verify", false, "skip TLS certificate verification")
		sessions   = flag.Int("sessions", 50, "concurrent sessions")
		evals      = flag.Int("evals", 20, "requests per session")
		window     = flag.Int("window", 1, "pipeline window per session (>1 sends a hello)")
		tenant     = flag.String("tenant", "", "declare sessions under this quota `tenant`")
		mix        = flag.String("mix", "micro", "workload `mix`: micro, deadline, snap, or mixed")
		deadlineMS = flag.Int64("deadline", 20, "deadline in `ms` for deadline-bound requests")
		name       = flag.String("name", "", "label for the summary line (default transport_mix_wN)")
		quiet      = flag.Bool("quiet", false, "suppress the human summary on stderr")
	)
	flag.Parse()

	cfg := loadCfg{
		target: *socket, evals: *evals, window: *window, tenant: *tenant,
		mix: *mix, deadlineMS: *deadlineMS,
	}
	transport := "unix"
	if *addr != "" {
		cfg.target, transport = "tcp://"+*addr, "tcp"
	}
	if *useTLS {
		if *addr == "" {
			fmt.Fprintln(os.Stderr, "esload: -tls needs -addr")
			return 2
		}
		tlsCfg, err := server.ClientTLS(*tlsCA, *tlsSkip)
		if err != nil {
			fmt.Fprintln(os.Stderr, "esload:", err)
			return 1
		}
		cfg.target, cfg.tlsCfg, transport = "tls://"+*addr, tlsCfg, "tls"
	}
	if cfg.window < 1 {
		cfg.window = 1
	}
	switch cfg.mix {
	case "micro", "deadline", "snap", "mixed":
	default:
		fmt.Fprintf(os.Stderr, "esload: unknown mix %q\n", cfg.mix)
		return 2
	}
	label := *name
	if label == "" {
		label = fmt.Sprintf("%s_%s_w%d", transport, cfg.mix, cfg.window)
	}

	tallies := make([]tally, *sessions)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < *sessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			tallies[k] = worker(cfg)
		}(k)
	}
	wg.Wait()
	wall := time.Since(start)

	var all tally
	for _, t := range tallies {
		all.lat = append(all.lat, t.lat...)
		all.requests += t.requests
		all.errors += t.errors
		all.sheds += t.sheds
		all.timeouts += t.timeouts
	}
	if all.requests == 0 {
		fmt.Fprintln(os.Stderr, "esload: no requests completed")
		return 1
	}
	sort.Slice(all.lat, func(i, j int) bool { return all.lat[i] < all.lat[j] })
	q := func(p float64) time.Duration {
		if len(all.lat) == 0 {
			return 0
		}
		k := int(p*float64(len(all.lat))) - 1
		if k < 0 {
			k = 0
		}
		return all.lat[k]
	}
	nsPerOp := wall.Nanoseconds() / int64(all.requests)
	// The machine line: go-bench shaped so bench_server.sh's scraper can
	// fold it into BENCH_server.json next to the in-process benchmarks.
	fmt.Printf("esload/%s \t%8d\t%12d ns/op\t%12.1f req/s\t%d p99_us\n",
		label, all.requests, nsPerOp,
		float64(all.requests)/wall.Seconds(), q(0.99).Microseconds())
	if !*quiet {
		fmt.Fprintf(os.Stderr,
			"esload %s: %d sessions x %d requests over %s in %v\n"+
				"  throughput %.1f req/s   admitted p50 %v  p95 %v  p99 %v  max %v\n"+
				"  sheds %d  deadline-hits %d  errors %d\n",
			label, *sessions, *evals, transport, wall.Round(time.Millisecond),
			float64(all.requests)/wall.Seconds(),
			q(0.50), q(0.95), q(0.99), q(1),
			all.sheds, all.timeouts, all.errors)
	}
	if all.errors > 0 {
		return 1
	}
	return 0
}

// worker drives one session to completion: hello if pipelining or
// tenancy is wanted, then cfg.evals requests with up to `window` in
// flight, replies matched by id.
func worker(cfg loadCfg) (t tally) {
	// A short retry keeps a mass of workers starting before the daemon's
	// listener settles from skewing the run with connect failures.
	c, err := server.Dial(cfg.target, cfg.tlsCfg, 3)
	if err != nil {
		t.errors++
		return t
	}
	defer c.Close()

	window := cfg.window
	if window > 1 || cfg.tenant != "" {
		f, err := c.Hello(window, cfg.tenant)
		if err != nil || f.Type != "hello" {
			// A quota-refused tenant gets an error frame and a bye; count
			// the session as shed, not failed.
			if err == nil && f.Type == "error" && isShed(f) {
				t.sheds++
			} else {
				t.errors++
			}
			return t
		}
		if f.Window > 0 && f.Window < window {
			window = f.Window
		}
	}

	// Snapshot churn needs the previous reply's image, so it runs its
	// request pairs serially regardless of window.
	if cfg.mix == "snap" {
		for n := 0; n < cfg.evals; n++ {
			if !snapRestore(c, &t) {
				return t
			}
		}
		c.Write(&server.Frame{Type: "bye"})
		return t
	}

	inflight := make(map[int64]time.Time, window)
	sent, recvd := 0, 0
	var image string // last snap image, for the mixed mix's snap element
	for recvd < cfg.evals {
		for sent < cfg.evals && len(inflight) < window {
			id := int64(sent + 1)
			f := requestFor(cfg, sent, image)
			f.ID = id
			if err := c.Write(f); err != nil {
				t.errors++
				return t
			}
			inflight[id] = time.Now()
			sent++
		}
		f, err := c.Read()
		if err != nil {
			t.errors++
			return t
		}
		if f.Type == "bye" {
			return t
		}
		start, tracked := inflight[f.ID]
		if tracked {
			delete(inflight, f.ID)
		}
		recvd++
		t.requests++
		switch {
		case f.Type == "result" || f.Type == "snap" || f.Type == "restore":
			if f.Type == "snap" {
				image = f.Image
			}
			if tracked {
				t.lat = append(t.lat, time.Since(start))
			}
		case f.Type == "error" && isShed(f):
			t.sheds++
		case f.Type == "error" && isDeadline(f):
			t.timeouts++
			if tracked {
				t.lat = append(t.lat, time.Since(start))
			}
		default:
			t.errors++
		}
	}
	c.Write(&server.Frame{Type: "bye"})
	return t
}

// requestFor builds the n-th request of a session under the given mix.
func requestFor(cfg loadCfg, n int, image string) *server.Frame {
	kind := cfg.mix
	if kind == "mixed" {
		switch n % 6 {
		case 3:
			kind = "deadline"
		case 5:
			if image != "" {
				return &server.Frame{Type: "restore", Image: image}
			}
			return &server.Frame{Type: "snap"}
		default:
			kind = "micro"
		}
	}
	switch kind {
	case "deadline":
		return &server.Frame{Type: "eval", Src: "while {} {}", DeadlineMS: cfg.deadlineMS}
	default:
		return &server.Frame{Type: "eval", Src: fmt.Sprintf("result %d", n)}
	}
}

// snapRestore runs one serial snap+restore pair, timing each round trip.
func snapRestore(c *server.Client, t *tally) bool {
	roundTrip := func(req *server.Frame) *server.Frame {
		start := time.Now()
		f, err := c.RoundTrip(req)
		if err != nil || f.Type == "error" || f.Type == "bye" {
			t.errors++
			return nil
		}
		t.requests++
		t.lat = append(t.lat, time.Since(start))
		return f
	}
	snap := roundTrip(&server.Frame{Type: "snap"})
	if snap == nil {
		return false
	}
	return roundTrip(&server.Frame{Type: "restore", Image: snap.Image}) != nil
}

func isShed(f *server.Frame) bool {
	return len(f.Exception) >= 2 && f.Exception[0] == "signal" &&
		(f.Exception[1] == "overload" || f.Exception[1] == "quota")
}

func isDeadline(f *server.Frame) bool {
	return strings.Join(f.Exception, " ") == "signal deadline"
}
