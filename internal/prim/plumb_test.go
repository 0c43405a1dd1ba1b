package prim

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
	"weak"

	"es/internal/core"
	"es/internal/coreutils"
)

// newPipeInterp is newInterp with the coreutils builtins, which the
// pipelines below run, writing to buffers that several externals'
// copiers may write at once.
func newPipeInterp(t *testing.T) (*core.Interp, *core.Ctx, *core.Buffer, *core.Buffer) {
	t.Helper()
	i, _, _, _ := newInterp(t)
	coreutils.Register(i)
	var out, errw core.Buffer
	ctx := &core.Ctx{IO: core.NewIOTable(strings.NewReader(""), &out, &errw)}
	return i, ctx, &out, &errw
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(ents)
}

func needExternals(t *testing.T, paths ...string) {
	t.Helper()
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Skipf("%s: %v", p, err)
		}
	}
}

// A pipeline of builtins runs over in-process pipes: its middle stage
// sees no more descriptors open than a command outside any pipeline.
func TestPipeBuiltinsHoldNoDescriptors(t *testing.T) {
	i, ctx, out, _ := newPipeInterp(t)
	openFDs(t) // skips where /proc/self/fd cannot be read
	i.RegisterBuiltin("fdcount", func(_ *core.Interp, ctx *core.Ctx, _ []string) int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return 1
		}
		fmt.Fprintln(ctx.Stdout(), len(ents))
		return 0
	})
	count := func(src string) int {
		out.Reset()
		mustRun(t, i, ctx, src)
		n, err := strconv.Atoi(strings.TrimSpace(out.String()))
		if err != nil {
			t.Fatalf("%s printed %q", src, out.String())
		}
		return n
	}
	outside := count("fdcount")
	if inside := count("echo x | cat | fdcount | cat | cat"); inside > outside {
		t.Errorf("middle stage sees %d descriptors, %d outside the pipeline", inside, outside)
	}
}

// An early reader ends its writer: once sed or head has printed its
// lines it stops reading and returns, and the writer's next write fails
// with EPIPE, long before it has written everything it would.  A filter
// in between stops reading at its own first failed write and passes the
// EPIPE on, quietly.
func TestPipeEarlyReaderStopsWriter(t *testing.T) {
	i, ctx, out, errw := newPipeInterp(t)
	var written int
	var werr error
	i.RegisterBuiltin("spew", func(_ *core.Interp, ctx *core.Ctx, _ []string) int {
		w := bufio.NewWriter(ctx.Stdout())
		for written = 0; written < 1<<22; written++ {
			line := "y\n"
			if written%2 == 1 {
				line = "x\n"
			}
			if _, werr = w.WriteString(line); werr != nil {
				return 1
			}
		}
		werr = w.Flush()
		return 0
	})
	for _, tt := range []struct{ reader, want string }{
		{"sed 2q", "y\nx\n"},
		{"head -n 2", "y\nx\n"},
		{"cat | sed 2q", "y\nx\n"},
		{"tr y n | sed 2q", "n\nx\n"},
		{"grep y | sed 2q", "y\ny\n"},
		{"cut -f 1 | sed 2q", "y\nx\n"},
		{"uniq | sed 2q", "y\nx\n"},
		{"rev | sed 2q", "y\nx\n"},
		{"nl | sed 2q", "     1\ty\n     2\tx\n"},
		{"sed s/x/z/ | sed 2q", "y\nz\n"},
	} {
		out.Reset()
		mustRun(t, i, ctx, "spew | "+tt.reader)
		if out.String() != tt.want {
			t.Errorf("spew | %s printed %q, want %q", tt.reader, out.String(), tt.want)
		}
		if written >= 1<<17 || !errors.Is(werr, syscall.EPIPE) {
			t.Errorf("spew | %s: the writer wrote %d lines and saw %v, want EPIPE", tt.reader, written, werr)
		}
	}
	if errw.String() != "" {
		t.Errorf("stderr = %q", errw.String())
	}
}

// An external ends the same way when its reader stops early: the kernel
// stops it with SIGPIPE, which its status names as C es does.
func TestPipeEarlyReaderStopsExternal(t *testing.T) {
	needExternals(t, "/usr/bin/seq")
	i, ctx, out, errw := newPipeInterp(t)
	mustRun(t, i, ctx, "{st = <={/usr/bin/seq 1 1000000}; echo seq $st >[1=2]} | sed 3q")
	if out.String() != "1\n2\n3\n" {
		t.Errorf("seq | sed 3q printed %q", out.String())
	}
	if errw.String() != "seq sigpipe\n" {
		t.Errorf("seq ended with %q, want sigpipe", errw.String())
	}
}

// An es loop that echoes into an early reader stops too: echo's failed
// write throws signal sigpipe, which ends the element quietly with the
// status sigpipe.  Without it the loop would spin until the deadline.
// vars and whatis stop the same way.  A capture that has ended is such a
// reader for a job that outlives it.
func TestPipeEarlyReaderStopsLoop(t *testing.T) {
	i, ctx, out, errw := newPipeInterp(t)
	for _, tt := range []struct{ src, want string }{
		{"{while {} {echo y}} | sed 1q", "y\n"},
		{"{while {} {vars}} | sed 1q | wc -l", "      1\n"},
		{"{while {} {whatis echo}} | sed 1q", "$&echo\n"},
		{"fn f {while {} {echo y}}; f | head -n 2", "y\ny\n"},
		{"x = `{{while {} {echo y}} &}; echo <={wait}", "sigpipe\n"},
	} {
		out.Reset()
		done := make(chan struct{})
		timer := time.AfterFunc(5*time.Second, func() { close(done) })
		i.SetCancel(done, "deadline")
		_, err := i.RunString(ctx, tt.src)
		i.ClearCancel()
		timer.Stop()
		if err != nil {
			t.Fatalf("%s: %v", tt.src, err)
		}
		if out.String() != tt.want {
			t.Errorf("%s printed %q, want %q", tt.src, out.String(), tt.want)
		}
	}
	if errw.String() != "" {
		t.Errorf("stderr = %q", errw.String())
	}
}

// When an external needs a descriptor, the bytes already in the pipe
// come out ahead of anything written after.
func TestPipeExternalKeepsOrder(t *testing.T) {
	needExternals(t, "/bin/echo", "/bin/cat")
	i, ctx, out, _ := newPipeInterp(t)
	for _, tt := range []struct{ src, want string }{
		{"{echo first; /bin/echo second} | cat", "first\nsecond\n"},
		{"{echo one; echo two} | {x = <={$&read}; /bin/cat; echo got $x}", "two\ngot one\n"},
	} {
		out.Reset()
		mustRun(t, i, ctx, tt.src)
		if out.String() != tt.want {
			t.Errorf("%s printed %q, want %q", tt.src, out.String(), tt.want)
		}
	}
}

// Pipes that became OS pipes close their descriptors with the pipeline.
func TestPipeDescriptorsReturnToBaseline(t *testing.T) {
	needExternals(t, "/bin/echo", "/bin/cat")
	i, ctx, out, _ := newPipeInterp(t)
	srcs := []string{
		"echo a b | /bin/cat | tr a-z A-Z | /bin/cat | sed 1q",
		"{echo first; /bin/echo second} | cat",
	}
	const want = "A B\nfirst\nsecond\n"
	// The first run opens whatever the runtime keeps for good, such as
	// the poller's descriptors.
	for _, src := range srcs {
		mustRun(t, i, ctx, src)
	}
	baseline := openFDs(t)
	for k := 0; k < 50; k++ {
		out.Reset()
		for _, src := range srcs {
			mustRun(t, i, ctx, src)
		}
		if out.String() != want {
			t.Fatalf("round %d printed %q, want %q", k, out.String(), want)
		}
	}
	if n := openFDs(t); n > baseline {
		t.Errorf("%d descriptors open after 100 pipelines, %d before", n, baseline)
	}
}

// runWithin runs src and fails the test if it has not returned within d,
// so a pipeline that deadlocks on too few runners fails instead of
// hanging the package.
func runWithin(t *testing.T, i *core.Interp, ctx *core.Ctx, src string, d time.Duration) {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := i.RunString(ctx, src)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("RunString(%q): %v", src, err)
		}
	case <-time.After(d):
		t.Fatalf("%s did not finish within %v", src, d)
	}
}

// Every element of a pipeline runs at once, however many there are: a
// fixed set of runners would deadlock on 65 elements that wait on each
// other, and on pipelines whose elements are pipelines.
func TestPipeRunnersUnbounded(t *testing.T) {
	i, ctx, out, _ := newPipeInterp(t)
	long := "echo x" + strings.Repeat(" | cat", 64)
	for _, tt := range []struct{ src, want string }{
		{long, "x\n"},
		{"{echo a | cat; echo b} | {cat | tr a-z A-Z} | {cat | cat}", "A\nB\n"},
		{"{" + long + "} | {" + long + "}", "x\n"},
	} {
		out.Reset()
		runWithin(t, i, ctx, tt.src, 10*time.Second)
		if out.String() != tt.want {
			t.Errorf("%.40s... printed %q, want %q", tt.src, out.String(), tt.want)
		}
	}
}

// A background job blocked on a read holds its runner; a pipeline run
// meanwhile still gets runners of its own.
func TestPipeRunsBesideBlockedJob(t *testing.T) {
	i, _, _, _ := newPipeInterp(t)
	in, feed := io.Pipe()
	var out core.Buffer
	ctx := core.NewIOTable(in, &out, &out).Ctx()
	mustRun(t, i, ctx, "cat &")
	runWithin(t, i, ctx, "echo y | cat", 10*time.Second)
	if out.String() != "y\n" {
		t.Errorf("pipeline beside a blocked job printed %q, want %q", out.String(), "y\n")
	}
	io.WriteString(feed, "job\n")
	feed.Close()
	mustRun(t, i, ctx, "wait")
	if out.String() != "y\njob\n" {
		t.Errorf("after the job: %q, want %q", out.String(), "y\njob\n")
	}
}

// A parked runner keeps nothing of the pipeline it ran: once the call
// ends, the output buffer only the call held is garbage.
func TestPipeRunnersComeBackClean(t *testing.T) {
	i, _, _, _ := newPipeInterp(t)
	wp := pipeIntoBuffer(t, i)
	runtime.GC()
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("the output buffer of a finished pipeline is still reachable")
	}
}

//go:noinline
func pipeIntoBuffer(t *testing.T, i *core.Interp) weak.Pointer[core.Buffer] {
	buf := new(core.Buffer)
	ctx := core.NewIOTable(strings.NewReader(""), buf, buf).Ctx()
	mustRun(t, i, ctx, "echo x | cat")
	if buf.String() != "x\n" {
		t.Fatalf("echo x | cat printed %q", buf.String())
	}
	return weak.Make(buf)
}
