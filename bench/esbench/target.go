package main

// The programs under test and the workers that load them: esd driven over
// its unix socket (rpc_tiny, rpc_script, session_state) and es run as one
// `es -c` child per request (shell_exec).

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// frame is the part of esd's newline-delimited JSON protocol the benchmark
// speaks.  It is declared here, not imported, so the harness measures the
// wire format rather than whatever codec the server package uses today.
type frame struct {
	Type      string   `json:"type"`
	ID        int64    `json:"id,omitempty"`
	Src       string   `json:"src,omitempty"`
	Value     []string `json:"value,omitempty"`
	True      bool     `json:"true,omitempty"`
	Exception []string `json:"exception,omitempty"`
	Stdout    string   `json:"stdout,omitempty"`
	Stderr    string   `json:"stderr,omitempty"`
	MS        float64  `json:"ms,omitempty"`
	Stats     []string `json:"stats,omitempty"`
	Reason    string   `json:"reason,omitempty"`
	Image     string   `json:"image,omitempty"`
	Window    int      `json:"window,omitempty"`
}

// wire is one client connection to esd.
type wire struct {
	c   net.Conn
	r   *bufio.Reader
	buf []byte // the eval frame being sent
}

// replyBuffer holds a typical reply line, a snap image included; longer
// lines are read in pieces.
const replyBuffer = 16 << 10

func dialWire(sock string) (*wire, error) {
	c, err := net.Dial("unix", sock)
	if err != nil {
		return nil, err
	}
	return &wire{c: c, r: bufio.NewReaderSize(c, replyBuffer)}, nil
}

func (w *wire) send(f *frame) error {
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	_, err = w.c.Write(append(b, '\n'))
	return err
}

// evalTails encodes what follows the id in each case's eval frame, so the
// load loop sends a frame without running the JSON encoder.
func evalTails(cases []evalCase) ([][]byte, error) {
	tails := make([][]byte, len(cases))
	for k, c := range cases {
		src, err := json.Marshal(c.Src)
		if err != nil {
			return nil, err
		}
		tails[k] = append(append([]byte(`,"src":`), src...), "}\n"...)
	}
	return tails, nil
}

// sendEval sends the eval frame {"type":"eval","id":id,"src":...}.
func (w *wire) sendEval(id int64, tail []byte) error {
	w.buf = append(w.buf[:0], `{"type":"eval","id":`...)
	w.buf = strconv.AppendInt(w.buf, id, 10)
	w.buf = append(w.buf, tail...)
	_, err := w.c.Write(w.buf)
	return err
}

// readLine returns the next reply line; it is valid until the next read.
func (w *wire) readLine() ([]byte, error) {
	line, err := w.r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	long := append([]byte(nil), line...)
	for err == bufio.ErrBufferFull {
		line, err = w.r.ReadSlice('\n')
		long = append(long, line...)
	}
	return long, err
}

func decodeFrame(line []byte) (*frame, error) {
	var f frame
	if err := json.Unmarshal(line, &f); err != nil {
		return nil, fmt.Errorf("bad reply frame: %w", err)
	}
	return &f, nil
}

// call sends f and returns the reply.
func (w *wire) call(f *frame) (*frame, error) {
	if err := w.send(f); err != nil {
		return nil, err
	}
	line, err := w.readLine()
	if err != nil {
		return nil, err
	}
	return decodeFrame(line)
}

// bye ends the session politely and closes the connection.
func (w *wire) bye() error {
	defer w.c.Close()
	f, err := w.call(&frame{Type: "bye"})
	if err != nil {
		return err
	}
	if f.Type != "bye" {
		return fmt.Errorf("bye answered with a %s frame", f.Type)
	}
	return nil
}

// checkEval compares an eval reply with the oracle; "" means correct.
func checkEval(f *frame, want []string, stdout string) string {
	if f.Type != "result" {
		return fmt.Sprintf("%s frame %q", f.Type, f.Exception)
	}
	if !slices.Equal(f.Value, want) {
		return fmt.Sprintf("value %q, want %q", f.Value, want)
	}
	if f.Stdout != stdout {
		return fmt.Sprintf("stdout %q, want %q", f.Stdout, stdout)
	}
	return ""
}

// esdSUT runs esd on a unix socket in the run directory.  The socket path
// is relative so it fits the kernel's 108-byte limit wherever the
// checkout lives.
type esdSUT struct {
	bin  string
	dir  string // esd's working directory, holding its socket
	sock string // the socket as the benchmark dials it
	env  []string
	in   *inputs

	cmd    *exec.Cmd
	exited chan struct{}
	stderr bytes.Buffer

	streams []*rand.Rand
	tails   [][]byte // evalTails of the cases
	chains  []*chain // session_state: one state chain per worker
}

func newEsdSUT(bin, dir, sock string, env []string, in *inputs) (*esdSUT, error) {
	tails, err := evalTails(in.cases)
	if err != nil {
		return nil, err
	}
	return &esdSUT{bin: bin, dir: dir, sock: sock, env: env, in: in, tails: tails,
		streams: []*rand.Rand{in.stream(0), in.stream(1)}}, nil
}

func (s *esdSUT) launch() (time.Duration, error) {
	s.stop()
	s.stderr.Reset()
	cmd := exec.Command(s.bin, "-socket", "esd.sock", "-quiet")
	cmd.Dir, cmd.Env, cmd.Stderr = s.dir, s.env, &s.stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	s.cmd, s.exited = cmd, make(chan struct{})
	go func() {
		defer close(s.exited)
		cmd.Wait()
	}()
	// Poll for the socket without sleeping: a sleep would round the set-up
	// time up to the timer quantum.
	var w *wire
	for {
		var err error
		if w, err = dialWire(s.sock); err == nil {
			break
		}
		select {
		case <-s.exited:
			return 0, fmt.Errorf("esd exited during start-up: %s", s.stderr.String())
		default:
		}
		if time.Since(start) > 10*time.Second {
			return 0, fmt.Errorf("esd did not listen within 10s: %w", err)
		}
	}
	f, err := w.call(&frame{Type: "eval", ID: 1, Src: "result 0"})
	setup := time.Since(start)
	if err != nil {
		w.c.Close()
		return 0, err
	}
	if msg := checkEval(f, []string{"0"}, ""); msg != "" {
		w.c.Close()
		return 0, fmt.Errorf("first eval: %s", msg)
	}
	return setup, w.bye()
}

// stop drains the running esd, if any, and waits for it to exit.
func (s *esdSUT) stop() {
	if s.cmd == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	s.cmd = nil
}

func (s *esdSUT) close() { s.stop() }

// cpu reads esd's CPU time: the sum of its threads' run time in
// /proc/<pid>/task/*/schedstat, counted in nanoseconds.  /proc/<pid>/stat
// counts 10 ms ticks, too coarse for one block.  esd's Go runtime keeps
// its threads, so no time is lost with an exited thread.
func (s *esdSUT) cpu() (time.Duration, error) {
	task := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	threads, err := os.ReadDir(task)
	if err != nil {
		return 0, err
	}
	var cpu time.Duration
	for _, t := range threads {
		stat, err := os.ReadFile(filepath.Join(task, t.Name(), "schedstat"))
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread exited after the directory was read
		}
		if err != nil {
			return 0, err
		}
		// The first field is the time spent running.
		f, _, _ := strings.Cut(string(stat), " ")
		ns, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", task, t.Name(), err)
		}
		cpu += time.Duration(ns)
	}
	return cpu, nil
}

// peakRSS reads esd's VmHWM.
func (s *esdSUT) peakRSS() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return vmHWM(string(status))
}

// vmHWM is the VmHWM line of a /proc/<pid>/status text, in MB.
func vmHWM(status string) (float64, error) {
	for _, ln := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/<pid>/status")
}

// counters reads esd's stats words and its cache hits and misses over a
// connection of their own, taken between load phases.
func (s *esdSUT) counters() (stats map[string]float64, caches map[string][2]float64, err error) {
	w, err := dialWire(s.sock)
	if err != nil {
		return nil, nil, err
	}
	defer w.bye()
	f, err := w.call(&frame{Type: "stats", ID: 1})
	if err != nil {
		return nil, nil, err
	}
	stats = make(map[string]float64)
	for _, word := range f.Stats {
		if name, v, ok := strings.Cut(word, ":"); ok {
			if n, err := strconv.ParseFloat(v, 64); err == nil {
				stats[name] = n
			}
		}
	}
	f, err = w.call(&frame{Type: "eval", ID: 2, Src: "result <>{cachestats}"})
	if err != nil {
		return nil, nil, err
	}
	if f.Type != "result" {
		return nil, nil, fmt.Errorf("cachestats: %s frame %q", f.Type, f.Exception)
	}
	// Each word is name:hits:misses:invalidations:entries.
	caches = make(map[string][2]float64)
	for _, word := range f.Value {
		parts := strings.Split(word, ":")
		if len(parts) != 5 {
			return nil, nil, fmt.Errorf("cachestats word %q", word)
		}
		h, err1 := strconv.ParseFloat(parts[1], 64)
		m, err2 := strconv.ParseFloat(parts[2], 64)
		if err := errors.Join(err1, err2); err != nil {
			return nil, nil, err
		}
		caches[parts[0]] = [2]float64{h, m}
	}
	return stats, caches, nil
}

func (s *esdSUT) worker(k, window int, tb *traceBuf) (worker, error) {
	if s.in.workload == "session_state" {
		if err := s.prime(); err != nil {
			return nil, err
		}
		return &sessWorker{s: s, ch: s.chains[k], r: s.streams[k], tb: tb}, nil
	}
	w, err := dialWire(s.sock)
	if err != nil {
		return nil, err
	}
	if window > 1 {
		f, err := w.call(&frame{Type: "hello", ID: 1, Window: window})
		if err != nil {
			w.c.Close()
			return nil, err
		}
		if f.Type != "hello" || f.Window != window {
			w.c.Close()
			return nil, fmt.Errorf("hello: asked for window %d, got a %s frame with %d", window, f.Type, f.Window)
		}
	}
	return &rpcWorker{w: w, in: s.in, tails: s.tails, r: s.streams[k], window: window, tb: tb, req: int64(k) << 40}, nil
}

// rpcWorker sends eval frames on one connection, keeping up to window of
// them outstanding.
type rpcWorker struct {
	w      *wire
	in     *inputs
	tails  [][]byte
	r      *rand.Rand
	window int
	tb     *traceBuf
	id     int64 // last frame id sent on this connection
	req    int64 // request id for spans, unique across workers
}

// pending is one eval awaiting its reply.
type pending struct {
	c      int // case index
	t0, t1 time.Time
}

func (w *rpcWorker) run(until time.Time, t *tally) {
	out := make([]pending, w.window) // indexed by frame id modulo window
	inflight := 0
	for {
		for inflight < w.window {
			t0 := time.Now()
			if !t0.Before(until) {
				break
			}
			c := w.in.pick(w.r)
			w.id++
			t.attempted++
			if err := w.w.sendEval(w.id, w.tails[c]); err != nil {
				t.fail("send: %v", err)
				t.failed += inflight
				return
			}
			p := pending{c: c, t0: t0}
			if w.tb != nil {
				p.t1 = time.Now()
			}
			out[w.id%int64(w.window)] = p
			inflight++
		}
		if inflight == 0 {
			return
		}
		line, err := w.w.readLine()
		t2 := time.Now()
		if err != nil {
			t.fail("read: %v", err)
			t.failed += inflight - 1
			return
		}
		f, err := decodeFrame(line)
		t3 := time.Now()
		if err != nil {
			t.fail("%v", err)
			t.failed += inflight - 1
			return
		}
		if f.ID <= w.id-int64(inflight) || f.ID > w.id {
			t.fail("reply for unknown id %d", f.ID)
			t.failed += inflight - 1
			return
		}
		inflight--
		t.end = t3
		p := out[f.ID%int64(w.window)]
		c := w.in.cases[p.c]
		if msg := checkEval(f, c.Value, c.Stdout); msg != "" {
			t.fail("%s", msg)
			continue
		}
		t.lat = append(t.lat, us(t3.Sub(p.t0)))
		if w.tb != nil {
			w.req++
			w.tb.request(w.req, "rpc", p.t0, t3,
				step{"client.write", p.t0, p.t1}, step{"client.wait", p.t1, t2}, step{"client.decode", t2, t3})
			w.tb.observe("server.exec", f.MS*1e3)
		}
	}
}

func (w *rpcWorker) close() { w.w.bye() }

// chain is one worker's line of sessions: each restores the image the
// previous one snapped, so session state survives only through images.
type chain struct {
	worker int
	img    string // base64 image from the last snap
	n      int    // sessions completed
}

// prime creates each worker's chain once: a session that builds the
// state and snaps its first image.
func (s *esdSUT) prime() error {
	if s.chains != nil {
		return nil
	}
	for k := 0; k < 2; k++ {
		w, err := dialWire(s.sock)
		if err != nil {
			return err
		}
		src := s.in.initSrc + "gen = " + genName(k, 0) + "; result 0"
		f, err := w.call(&frame{Type: "eval", ID: 1, Src: src})
		if err == nil {
			if msg := checkEval(f, []string{"0"}, ""); msg != "" {
				err = fmt.Errorf("building session state: %s", msg)
			}
		}
		if err == nil {
			f, err = w.call(&frame{Type: "snap", ID: 2})
		}
		if err != nil {
			w.c.Close()
			return err
		}
		if err := w.bye(); err != nil {
			return err
		}
		s.chains = append(s.chains, &chain{worker: k, img: f.Image})
	}
	return nil
}

// sessWorker runs whole sessions: dial, restore, eval, snap, bye.
type sessWorker struct {
	s  *esdSUT
	ch *chain
	r  *rand.Rand
	tb *traceBuf
}

func (w *sessWorker) run(until time.Time, t *tally) {
	for {
		t0 := time.Now()
		if !t0.Before(until) {
			return
		}
		t.attempted++
		c := w.s.in.cases[w.s.in.pick(w.r)]
		steps, img, err := w.session(c)
		t1 := time.Now()
		t.end = t1
		if err != nil {
			t.fail("%v", err)
			var te transportError
			if errors.As(err, &te) {
				return
			}
			continue
		}
		w.ch.img = img
		w.ch.n++
		t.lat = append(t.lat, us(t1.Sub(t0)))
		if w.tb != nil {
			w.tb.request(int64(w.ch.worker)<<40|int64(w.ch.n), "sess", t0, t1, steps...)
			if data, err := base64.StdEncoding.DecodeString(img); err == nil {
				w.tb.observe("sess.image_bytes", float64(len(data)))
			}
		}
	}
}

// transportError marks a failure of the connection rather than of a reply.
type transportError struct{ error }

// session runs one session and returns its steps and the image it snapped.
func (w *sessWorker) session(c evalCase) ([]step, string, error) {
	steps := make([]step, 0, 5)
	mark := func(name string, start time.Time) {
		steps = append(steps, step{name, start, time.Now()})
	}
	t := time.Now()
	conn, err := dialWire(w.s.sock)
	if err != nil {
		return nil, "", transportError{err}
	}
	defer conn.c.Close()
	mark("sess.dial", t)

	t = time.Now()
	f, err := conn.call(&frame{Type: "restore", ID: 1, Image: w.ch.img})
	if err != nil {
		return nil, "", transportError{err}
	}
	if f.Type != "restore" || !f.True {
		return nil, "", fmt.Errorf("restore: %s frame %q", f.Type, f.Exception)
	}
	mark("sess.restore", t)

	// The step helper returns the gen the previous session wrote, then the
	// closure's result on the variable's word.
	t = time.Now()
	prev, next := genName(w.ch.worker, w.ch.n), genName(w.ch.worker, w.ch.n+1)
	f, err = conn.call(&frame{Type: "eval", ID: 2, Src: "step " + next + " " + c.Src})
	if err != nil {
		return nil, "", transportError{err}
	}
	if msg := checkEval(f, []string{prev, c.Value[0]}, ""); msg != "" {
		return nil, "", fmt.Errorf("eval: %s", msg)
	}
	mark("sess.eval", t)
	if w.tb != nil {
		w.tb.observe("server.exec", f.MS*1e3)
	}

	t = time.Now()
	f, err = conn.call(&frame{Type: "snap", ID: 3})
	if err != nil {
		return nil, "", transportError{err}
	}
	if f.Type != "snap" || f.Image == "" {
		return nil, "", fmt.Errorf("snap: %s frame %q", f.Type, f.Exception)
	}
	img := f.Image
	mark("sess.snap", t)

	t = time.Now()
	if err := conn.bye(); err != nil {
		return nil, "", transportError{err}
	}
	mark("sess.bye", t)
	return steps, img, nil
}

func (w *sessWorker) close() {}

// shellSUT runs es as a shell: one `es -c` child per request.
type shellSUT struct {
	bin     string
	dir     string
	env     []string
	in      *inputs
	streams []*rand.Rand

	mu      sync.Mutex
	cpuTime time.Duration // children's user+system time
}

func newShellSUT(bin, dir string, env []string, in *inputs) *shellSUT {
	return &shellSUT{bin: bin, dir: dir, env: env, in: in,
		streams: []*rand.Rand{in.stream(0), in.stream(1)}}
}

// child is one finished es process.
type child struct {
	stdout, stderr string
	ru             *syscall.Rusage
	start, started time.Time // before fork and after exec
}

// runChild runs one es child to completion.
func (s *shellSUT) runChild(args ...string) (child, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(s.bin, args...)
	cmd.Dir, cmd.Env, cmd.Stdout, cmd.Stderr = s.dir, s.env, &out, &errb
	c := child{start: time.Now()}
	if err := cmd.Start(); err != nil {
		return c, err
	}
	c.started = time.Now()
	err := cmd.Wait()
	c.stdout, c.stderr = out.String(), errb.String()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.ru = ru
		s.mu.Lock()
		s.cpuTime += rusageCPU(ru)
		s.mu.Unlock()
	}
	if err != nil {
		return c, fmt.Errorf("%w: %s", err, c.stderr)
	}
	return c, nil
}

// launch runs `es -c 'result 0'`.
func (s *shellSUT) launch() (time.Duration, error) {
	c, err := s.runChild("-c", "result 0")
	return time.Since(c.start), err
}

func (s *shellSUT) cpu() (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cpuTime, nil
}

// peakRSS runs the first request's script followed by the builtin `cat
// /proc/self/status`, so the child reports its own VmHWM as its script
// ends.  The children's rusage cannot say: Go starts a child in its
// parent's address space, and the kernel counts the parent's peak into
// the child's Maxrss at exec.
func (s *shellSUT) peakRSS() (float64, error) {
	c := s.in.cases[0]
	ch, err := s.runChild("-c", c.Src+"; cat /proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: es -c: %w", err)
	}
	status, ok := strings.CutPrefix(ch.stdout, c.Stdout)
	if !ok {
		return 0, fmt.Errorf("peak RSS: stdout %q, want it to start with %q", ch.stdout, c.Stdout)
	}
	if !strings.HasPrefix(status, "Name:\tes\n") {
		return 0, fmt.Errorf("peak RSS: cat ran outside es: %.40q", status)
	}
	return vmHWM(status)
}

func (s *shellSUT) close() {}

func (s *shellSUT) worker(k, window int, tb *traceBuf) (worker, error) {
	return &shellWorker{s: s, r: s.streams[k], tb: tb, req: int64(k) << 40}, nil
}

type shellWorker struct {
	s   *shellSUT
	r   *rand.Rand
	tb  *traceBuf
	req int64
}

func (w *shellWorker) run(until time.Time, t *tally) {
	for {
		if !time.Now().Before(until) {
			return
		}
		c := w.s.in.cases[w.s.in.pick(w.r)]
		args := []string{"-c", c.Src}
		if w.tb != nil {
			args = append([]string{"-cachestats"}, args...)
		}
		t.attempted++
		ch, err := w.s.runChild(args...)
		end := time.Now()
		t.end = end
		if err != nil {
			t.fail("es -c: %v", err)
			continue
		}
		if ch.stdout != c.Stdout {
			t.fail("stdout %q, want %q", ch.stdout, c.Stdout)
			continue
		}
		t.lat = append(t.lat, us(end.Sub(ch.start)))
		if w.tb != nil {
			w.req++
			w.tb.request(w.req, "proc", ch.start, end,
				step{"proc.start", ch.start, ch.started}, step{"proc.wait", ch.started, end})
			w.tb.observe("proc.wall", us(end.Sub(ch.start)))
			w.tb.observe("proc.user", us(time.Duration(ch.ru.Utime.Nano())))
			w.tb.observe("proc.sys", us(time.Duration(ch.ru.Stime.Nano())))
			observeCacheStats(w.tb, ch.stderr)
		}
	}
}

func (w *shellWorker) close() {}

// observeCacheStats folds the lines es -cachestats prints on exit, such as
// "  parse: 3 entries, 0 hits, 3 misses, 0 invalidated (0.0% hit rate)",
// into cache.<name>.hits and .misses observations.
func observeCacheStats(tb *traceBuf, stderr string) {
	for _, ln := range strings.Split(stderr, "\n") {
		name, rest, ok := strings.Cut(strings.TrimSpace(ln), ": ")
		if !ok || strings.Contains(name, " ") {
			continue
		}
		var entries, hits, misses int
		if _, err := fmt.Sscanf(rest, "%d entries, %d hits, %d misses", &entries, &hits, &misses); err == nil {
			tb.observe("cache."+name+".hits", float64(hits))
			tb.observe("cache."+name+".misses", float64(misses))
		}
	}
}

// runDirEnv is the environment every program under test starts with: the
// benchmark's own environment does not leak into the measurement.
func runDirEnv(dir string) []string {
	return []string{"PATH=/usr/bin:/bin", "HOME=" + dir, "TMPDIR=" + dir}
}

// relSock is the socket path relative to the benchmark's working directory.
func relSock(dir string) (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(wd, filepath.Join(dir, "esd.sock"))
	if err != nil {
		return "", err
	}
	if len(rel) > 100 {
		return "", fmt.Errorf("socket path %s is too long for a unix socket", rel)
	}
	return rel, nil
}
