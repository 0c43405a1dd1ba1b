// Package coreutils provides hermetic, in-process implementations of the
// Unix text tools the paper's examples rely on (Figure 1's word-frequency
// pipeline, test(1) in the noclobber spoof, date(1), and friends).
//
// They are registered as builtins: command dispatch finds them after fn-
// definitions and before $PATH, so the paper's transcripts reproduce
// byte-for-byte on a machine with no userland at all.  Each implements the
// commonly used subset of its flags; unsupported usage reports an error
// and a non-zero status rather than guessing.
package coreutils

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"syscall"

	"es/internal/core"
)

// Register installs the full builtin set.
func Register(i *core.Interp) {
	registerText(i)
	registerFs(i)
	registerMisc(i)
}

// ctxio bundles the common per-invocation state.
type ctxio struct {
	i    *core.Interp
	in   io.Reader
	out  *bufio.Writer
	errw io.Writer
	name string
	sink *sink // where out flushes to
}

// sink is a builtin's standard output as its buffered writer sees it:
// writes pass through, and the first failure is kept.  Once a write has
// failed the builtin reads no further, as a Unix tool whose output is
// gone dies of SIGPIPE or its write error.
type sink struct {
	w   io.Writer
	err error
}

func (s *sink) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	if err != nil && s.err == nil {
		s.err = err
	}
	return n, err
}

// stopped reports whether writing the builtin's output has failed.
func (c *ctxio) stopped() bool { return c.sink.err != nil }

// output is a builtin's output buffer and the sink it flushes to, pooled
// together.
type output struct {
	buf  *bufio.Writer
	sink sink
}

// A builtin call borrows its fixed-size scratch from these pools instead
// of allocating it, so a call costs what its lines cost.  Pipelines make
// many short calls, and allocating 36 KiB or more for each one makes Go's
// collector the largest cost of serving them.
var (
	// outPool holds output buffers.  A pooled one's sink points at
	// io.Discard, so that it never keeps a stream alive.
	outPool = sync.Pool{New: func() any {
		o := &output{sink: sink{w: io.Discard}}
		o.buf = bufio.NewWriter(&o.sink)
		return o
	}}
	// bufPool holds 32 KiB read buffers.
	bufPool = sync.Pool{New: func() any {
		b := make([]byte, 32*1024)
		return &b
	}}
)

// wrap adapts a simpler function shape to core.BuiltinFunc, handling
// output buffering and error reporting uniformly.  A builtin whose
// output fails stops reading (see stopped) and exits 1: quietly on
// EPIPE, since a reader that stops early is no error, and otherwise with
// the write error unless the builtin reported a failure of its own.
func wrap(name string, fn func(c *ctxio, args []string) int) core.BuiltinFunc {
	return func(i *core.Interp, ctx *core.Ctx, argv []string) int {
		o := outPool.Get().(*output)
		o.sink.w = ctx.Stdout()
		c := &ctxio{
			i:    i,
			in:   ctx.Stdin(),
			out:  o.buf,
			errw: ctx.Stderr(),
			name: name,
			sink: &o.sink,
		}
		status := fn(c, argv[1:])
		o.buf.Flush()
		err := o.sink.err
		o.sink = sink{w: io.Discard}
		o.buf.Reset(&o.sink)
		outPool.Put(o)
		switch {
		case err == nil:
		case errors.Is(err, syscall.EPIPE):
			status = 1
		case status == 0:
			status = c.errorf("%v", err)
		}
		return status
	}
}

// errorf reports a diagnostic and returns failure.
func (c *ctxio) errorf(format string, args ...interface{}) int {
	fmt.Fprintf(c.errw, c.name+": "+format+"\n", args...)
	return 1
}

// resolve makes a path absolute relative to the shell's working directory.
func (c *ctxio) resolve(path string) string {
	if filepath.IsAbs(path) {
		return path
	}
	return filepath.Join(c.i.Dir(), path)
}

// inputs opens the file operands (or stdin when none / "-"), calling fn
// for each reader in order.  Returns non-zero if any file fails to open.
func (c *ctxio) inputs(files []string, fn func(r io.Reader) int) int {
	if len(files) == 0 {
		return fn(c.in)
	}
	status := 0
	for _, f := range files {
		if c.stopped() {
			break
		}
		if f == "-" {
			if s := fn(c.in); s != 0 {
				status = s
			}
			continue
		}
		r, err := openFile(c, f)
		if err != nil {
			status = c.errorf("%s: %v", f, err)
			continue
		}
		if s := fn(r); s != 0 {
			status = s
		}
		r.Close()
	}
	return status
}

// eachLine feeds every input line (without newline) to fn.  It returns
// the scanner's error: a failed read, or a line over the 16 MiB cap.
func (c *ctxio) eachLine(r io.Reader, fn func(line []byte)) error {
	return c.firstLines(r, -1, fn)
}

// firstLines feeds the first n input lines to fn, or all of them if n is
// negative, and reads no further: a pipe's writer then sees its reader
// go once the builtin returns, as head(1) makes its writer see EPIPE.
// It also stops once the builtin's output has failed.
//
// A line is valid only until fn returns: it lies in the read buffer,
// which the next line overwrites, so a builtin that keeps a line copies
// it.
func (c *ctxio) firstLines(r io.Reader, n int, fn func(line []byte)) error {
	if n == 0 {
		return nil
	}
	buf := bufPool.Get().(*[]byte)
	defer bufPool.Put(buf)
	sc := bufio.NewScanner(r)
	// The borrowed buffer is only the scanner's first; a longer line
	// grows a buffer of the scanner's own.
	sc.Buffer(*buf, 16*1024*1024)
	for ; n != 0 && !c.stopped() && sc.Scan(); n-- {
		fn(sc.Bytes())
	}
	return sc.Err()
}

// copyBorrowed copies r to w through a borrowed buffer.  The wrappers
// hide ReadFrom and WriteTo, which would pick their own copy path:
// os.File's generic one allocates 32 KiB per call when the other end is
// a pipe.
func copyBorrowed(w io.Writer, r io.Reader) error {
	buf := bufPool.Get().(*[]byte)
	defer bufPool.Put(buf)
	_, err := io.CopyBuffer(struct{ io.Writer }{w}, struct{ io.Reader }{r}, *buf)
	return err
}
