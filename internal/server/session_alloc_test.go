package server

// What a whole esd session costs the server: a restore, an eval, a snap
// and a bye, over a connection of its own, as the session_state
// benchmark drives it.

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// sessionState is the state every session of these tests restores,
// changes and snaps: sixteen closures with captured bindings, sixteen
// variables of six words, and a step function that swaps in a new
// generation and calls one of the closures.
func sessionState() string {
	var b strings.Builder
	for k := 0; k < 16; k++ {
		p, q := fmt.Sprintf("p%02dxyz", k), fmt.Sprintf("q%02dxyz", k)
		if k%2 == 0 {
			fmt.Fprintf(&b, "let (p = %s) fn f%d x {result $p^$x}\n", p, k)
		} else {
			fmt.Fprintf(&b, "let (p = %s; q = %s) fn f%d x {result $p^$x^$q}\n", p, q, k)
		}
	}
	for k := 0; k < 16; k++ {
		fmt.Fprintf(&b, "v%d =", k)
		for j := 0; j < 6; j++ {
			fmt.Fprintf(&b, " w%02d%dabc", k, j)
		}
		b.WriteByte('\n')
	}
	b.WriteString("fn step new f a {let (old = $gen) {gen = $new; result $old <={$f $a}}}\n")
	return b.String()
}

// rawClient runs whole sessions over fresh unix-socket connections with
// buffers it reuses, so what a run of sessions allocates in the process
// is, but for the dial, the server's.
type rawClient struct {
	sock string
	out  []byte // the request line being sent
	in   []byte // the reply line being read
	want []byte // the reply an eval must begin with
	img  []byte // the base64 image of the last snap
	gen  string // the prefix of the generations this client writes
	n    int    // sessions run
}

// newRawClient builds the session state, at generation gen0, on a
// session of its own and keeps its image.
func newRawClient(t *testing.T, sock, gen string) *rawClient {
	c := dial(t, sock)
	if f := c.eval(t, sessionState()+"gen = "+gen+"0; result 0", 0); f.Type != "result" {
		t.Fatalf("building the session state: %+v", f)
	}
	f := c.roundTrip(t, &Frame{Type: "snap", ID: 2})
	if f.Type != "snap" {
		t.Fatalf("snap of the session state: %+v", f)
	}
	return &rawClient{sock: sock, out: make([]byte, 0, 8<<10), in: make([]byte, 0, 16<<10),
		want: make([]byte, 0, 64), img: []byte(f.Image), gen: gen}
}

// session restores the last image, steps the state, snaps the result for
// the next session and says bye.
func (c *rawClient) session() error {
	conn, err := net.Dial("unix", c.sock)
	if err != nil {
		return err
	}
	defer conn.Close()
	c.out = append(append(append(c.out[:0], `{"type":"restore","id":1,"image":"`...), c.img...), "\"}\n"...)
	if err := c.call(conn, restoreReply); err != nil {
		return err
	}
	k := c.n % 16
	c.n++
	c.out = append(append(c.out[:0], `{"type":"eval","id":2,"src":"step `...), c.gen...)
	c.out = strconv.AppendInt(c.out, int64(c.n), 10)
	c.out = append(c.out, " f"...)
	c.out = strconv.AppendInt(c.out, int64(k), 10)
	c.out = append(c.out, " $v"...)
	c.out = strconv.AppendInt(c.out, int64(15-k), 10)
	c.out = append(c.out, "(2)\"}\n"...)
	// step answers the generation the session before wrote first.
	c.want = append(append(c.want[:0], `{"type":"result","id":2,"value":["`...), c.gen...)
	c.want = append(strconv.AppendInt(c.want, int64(c.n-1), 10), '"')
	if err := c.call(conn, c.want); err != nil {
		return err
	}
	c.out = append(c.out[:0], `{"type":"snap","id":3}`+"\n"...)
	if err := c.call(conn, snapReply); err != nil {
		return err
	}
	img := c.in[len(snapReply):]
	c.img = append(c.img[:0], img[:bytes.IndexByte(img, '"')]...)
	c.out = append(c.out[:0], `{"type":"bye"}`+"\n"...)
	return c.call(conn, byeReply)
}

// The replies a session expects, or the part of them it checks.
var (
	restoreReply = []byte(`{"type":"restore","id":1,"true":true}`)
	snapReply    = []byte(`{"type":"snap","id":3,"image":"`)
	byeReply     = []byte(`{"type":"bye","reason":"bye"}`)
)

// call writes c.out and reads one reply line into c.in, which must begin
// with want.
func (c *rawClient) call(conn net.Conn, want []byte) error {
	if _, err := conn.Write(c.out); err != nil {
		return err
	}
	c.in = c.in[:0]
	for bytes.IndexByte(c.in, '\n') < 0 {
		if len(c.in) == cap(c.in) {
			c.in = append(c.in, 0)[:len(c.in)]
		}
		n, err := conn.Read(c.in[len(c.in):cap(c.in)])
		c.in = c.in[:len(c.in)+n]
		if err != nil {
			return err
		}
	}
	if !bytes.HasPrefix(c.in, want) {
		return fmt.Errorf("reply %.200q, want one that begins %q", c.in, want)
	}
	return nil
}

// sessionAllocBudget bounds what one whole session may allocate in the
// process: half of the 73.5 KB it allocated when every connection grew
// its own frame buffers and an image was copied three times on its way
// in and twice on its way out.
const sessionAllocBudget = 73500 / 2

// raceEnabled is set under the race detector, which makes sync.Pool drop
// a random quarter of what is put back.
var raceEnabled bool

// TestSessionAllocBudget runs 1,000 whole sessions after 300 of warm-up
// and holds the bytes the process allocates per session, nearly all of
// them the server's, to sessionAllocBudget.  It logs objects and
// collections beside the bytes.
func TestSessionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a quarter of what is put in a sync.Pool")
	}
	if testing.Short() {
		t.Skip("runs 1,300 sessions")
	}
	srv := newTestServer(t, Config{})
	c := newRawClient(t, srv.cfg.Socket, "g")
	const warm, sessions = 300, 1000
	for k := 0; k < warm; k++ {
		if err := c.session(); err != nil {
			t.Fatalf("warm-up session %d: %v", k, err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < sessions; k++ {
		if err := c.session(); err != nil {
			t.Fatalf("session %d: %v", k, err)
		}
	}
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / sessions
	objects := float64(after.Mallocs-before.Mallocs) / sessions
	gcs := float64(after.NumGC-before.NumGC) * 1000 / sessions
	t.Logf("per session: %.0f bytes, %.1f objects; %.1f collections per 1,000 sessions", bytesPer, objects, gcs)
	if bytesPer > sessionAllocBudget {
		t.Errorf("a session allocates %.0f bytes, over the budget of %d", bytesPer, sessionAllocBudget)
	}
}

// TestConcurrentSessionsSharePools runs sessions that restore, step and
// snap at once, over the frame buffers and image scratch that all
// sessions share: every session must get back the state the one before
// it in its chain left, byte for byte.
func TestConcurrentSessionsSharePools(t *testing.T) {
	srv := newTestServer(t, Config{})
	const chains, rounds = 4, 40
	clients := make([]*rawClient, chains)
	for k := range clients {
		clients[k] = newRawClient(t, srv.cfg.Socket, "c"+strconv.Itoa(k)+"g")
	}
	var wg sync.WaitGroup
	errs := make(chan error, chains)
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				if err := c.session(); err != nil {
					errs <- fmt.Errorf("session %d: %w", c.n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The step helper returns the generation the session before it
	// wrote, so a chain whose state got mixed up with another's fails
	// above; here each chain's last image must restore to its own.
	for k, c := range clients {
		d := dial(t, srv.cfg.Socket)
		if f := d.roundTrip(t, &Frame{Type: "restore", ID: 1, Image: string(c.img)}); f.Type != "restore" || !f.True {
			t.Fatalf("chain %d: restore = %+v", k, f)
		}
		want := c.gen + strconv.Itoa(c.n)
		if f := d.eval(t, "result $gen", 0); f.Type != "result" || strings.Join(f.Value, " ") != want {
			t.Errorf("chain %d: gen = %+v, want %s", k, f, want)
		}
		if f := d.roundTrip(t, &Frame{Type: "snap", ID: 2}); f.Image != string(c.img) {
			t.Errorf("chain %d: snap after restore differs from the image restored", k)
		}
	}
}
