package core

import (
	"bytes"
	"io"
	"os"
	"sync"
)

// IOTable maps shell file descriptors to Go streams.  Entries are
// io.Reader or io.Writer values; *os.File entries and the ends of a
// NewPipe can be handed to external processes directly, anything else
// goes through a pipe.
//
// Tables are persistent: WithFD returns a copy, so redirections scope to
// the command they wrap, exactly like the nested %create/%open calls the
// rewriter produces.
//
// A table owns the two evaluation contexts that use it, out of tail
// position and in it, so flipping a context's tail bit, or moving it to
// another table, allocates nothing.
type IOTable struct {
	m   map[int]interface{}
	ctx [2]Ctx // out of tail position, and in it
}

func newIOTable(m map[int]interface{}) *IOTable {
	t := &IOTable{m: m}
	t.ctx = [2]Ctx{{IO: t}, {IO: t, Tail: true}}
	return t
}

// NewIOTable builds a table with the standard descriptors.
func NewIOTable(stdin io.Reader, stdout, stderr io.Writer) *IOTable {
	return newIOTable(map[int]interface{}{0: stdin, 1: stdout, 2: stderr})
}

// Ctx returns the table's own context out of tail position: the context
// a top-level evaluation on the table starts in.
func (t *IOTable) Ctx() *Ctx { return t.context(false) }

// context returns the table's own context with the given tail bit.  A
// table that NewIOTable or WithFD did not make has none, and gets a new
// one.  It stays out of line: NonTail is inlined into every primitive
// that runs a thunk, and copying this body into each of them added
// 5 KB to the binary's text.
//
//go:noinline
func (t *IOTable) context(tail bool) *Ctx {
	if t != nil {
		c := &t.ctx[0]
		if tail {
			c = &t.ctx[1]
		}
		if c.IO == t {
			return c
		}
	}
	return &Ctx{IO: t, Tail: tail}
}

// Redir binds descriptor Fd to Stream, for WithFDs; a nil Stream closes
// the descriptor.
type Redir struct {
	Fd     int
	Stream interface{}
}

// WithFD returns a copy of the table with fd bound to stream (nil closes
// the descriptor).
func (t *IOTable) WithFD(fd int, stream interface{}) *IOTable {
	return t.WithFDs(Redir{fd, stream})
}

// WithFDs returns one copy of the table with each redirection applied in
// turn, so a pipeline element bound at both ends costs one table.
func (t *IOTable) WithFDs(rs ...Redir) *IOTable {
	m := make(map[int]interface{}, len(t.m)+len(rs))
	for k, v := range t.m {
		m[k] = v
	}
	for _, r := range rs {
		if r.Stream == nil {
			delete(m, r.Fd)
		} else {
			m[r.Fd] = r.Stream
		}
	}
	return newIOTable(m)
}

// Get returns the raw entry for fd.
func (t *IOTable) Get(fd int) interface{} { return t.m[fd] }

// Fds returns the bound descriptor numbers.
func (t *IOTable) Fds() []int {
	out := make([]int, 0, len(t.m))
	for fd := range t.m {
		out = append(out, fd)
	}
	return out
}

// Reader returns the input stream on fd (a reader of nothing if unbound).
func (t *IOTable) Reader(fd int) io.Reader {
	if r, ok := t.m[fd].(io.Reader); ok {
		return r
	}
	return emptyReader{}
}

// Writer returns the output stream on fd (a discarding writer if unbound).
func (t *IOTable) Writer(fd int) io.Writer {
	if w, ok := t.m[fd].(io.Writer); ok {
		return w
	}
	return io.Discard
}

// File materializes fd as an *os.File for handing to an external process.
// A file, or the end of a pipe between pipeline elements, gives its own
// descriptor with done == nil.  Otherwise a pipe is created and a copier
// goroutine bridges it; call done() after the process exits to flush and
// reap the copier.
func (t *IOTable) File(fd int, input bool) (f *os.File, done func(), err error) {
	entry := t.m[fd]
	switch e := entry.(type) {
	case *os.File:
		return e, nil, nil
	case *PipeReader:
		f, err := e.File()
		return f, nil, err
	case *PipeWriter:
		f, err := e.File()
		return f, nil, err
	}
	if entry == nil {
		// Unbound: give the process the null device.
		null, err := os.OpenFile(os.DevNull, os.O_RDWR, 0)
		if err != nil {
			return nil, nil, err
		}
		return null, func() { null.Close() }, nil
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, nil, err
	}
	ch := make(chan struct{})
	if input {
		r := entry.(io.Reader)
		go func() {
			defer close(ch)
			defer pw.Close()
			io.Copy(pw, r)
		}()
		return pr, func() { pr.Close(); <-ch }, nil
	}
	w := entry.(io.Writer)
	go func() {
		defer close(ch)
		io.Copy(w, pr)
		pr.Close()
	}()
	return pw, func() { pw.Close(); <-ch }, nil
}

// Buffer collects output that several goroutines may write at once:
// pipeline elements, background jobs, and the copier IOTable.File starts
// for an external.  `{…} captures into one, and esd collects a request's
// output in two.  A write after Close fails as a write to a pipe whose
// reader has gone does, so a job that outlives the capture stops there.
type Buffer struct {
	mu     sync.Mutex
	b      bytes.Buffer
	closed bool
}

func (b *Buffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, errBrokenPipe
	}
	return b.b.Write(p)
}

// String returns what has been written.
func (b *Buffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// Reset empties the buffer.
func (b *Buffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.b.Reset()
}

// Close makes every later write fail with EPIPE.
func (b *Buffer) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
}

type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, io.EOF }

// Ctx carries the per-command evaluation context: the descriptor table and
// the tail-position flag used by the trampoline.  A context is never
// changed once made; the ones the methods below return belong to their
// table (see IOTable).
type Ctx struct {
	IO   *IOTable
	Tail bool
}

// NonTail returns a context with tail-calling disabled; any frame that
// must regain control after a sub-evaluation (catch, loops, substitutions,
// dynamic binding) evaluates through it.
func (c *Ctx) NonTail() *Ctx {
	if !c.Tail {
		return c
	}
	return c.IO.context(false)
}

// InTail returns a context marked as tail position.
func (c *Ctx) InTail() *Ctx {
	if c.Tail {
		return c
	}
	return c.IO.context(true)
}

// WithIO returns a context using a different descriptor table.
func (c *Ctx) WithIO(t *IOTable) *Ctx {
	return t.context(c.Tail)
}

// Stdin, Stdout and Stderr are convenience accessors.
func (c *Ctx) Stdin() io.Reader  { return c.IO.Reader(0) }
func (c *Ctx) Stdout() io.Writer { return c.IO.Writer(1) }
func (c *Ctx) Stderr() io.Writer { return c.IO.Writer(2) }
