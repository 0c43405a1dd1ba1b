package core

import (
	"io"
	"os"
	"sync"
	"syscall"
)

const (
	// pipeSize is how many unread bytes a pipe holds before a writer
	// waits: the default capacity of a Linux pipe, so a writer waits no
	// sooner than it would on an os.Pipe.
	pipeSize = 64 << 10
	// pipeAtomic is PIPE_BUF: a write of up to this many bytes waits for
	// room for all of them, so writes from concurrent writers never
	// interleave.
	pipeAtomic = 4096
)

// errBrokenPipe is what a write gets once its reader has gone, as
// write(2) returns EPIPE.
var errBrokenPipe = &os.PathError{Op: "write", Path: "pipe", Err: syscall.EPIPE}

// pipe joins two pipeline elements that run in this process.  It keeps
// what has been written and not yet read in memory and holds no
// descriptor until an external process asks an end for one (IOTable.File).
// The first such request makes a real os.Pipe, moves the buffered bytes
// into it, and from then on both ends read and write the OS pipe, so an
// external gets the descriptor itself and no copier sits in between.
type pipe struct {
	mu sync.Mutex
	// cond is broadcast whenever buf, a closed flag or the OS pipe
	// changes; readers wait on it for bytes, writers for room.
	cond             sync.Cond
	buf              []byte // buf[off:] is written and unread
	off              int
	rclosed, wclosed bool

	// r and w are the OS pipe, once made; buf is empty from then on.
	r, w *os.File
	// flushed is closed once the bytes buffered when the OS pipe was
	// made are in it: a write must wait for it to keep its place behind
	// them.  nil if nothing was buffered.
	flushed  chan struct{}
	flushing bool // the flush still owns w, and closes it if wclosed

	rd PipeReader
	wr PipeWriter
}

// PipeReader is the read end of an in-process pipe.
type PipeReader struct{ p *pipe }

// PipeWriter is the write end of an in-process pipe.
type PipeWriter struct{ p *pipe }

// NewPipe returns the two ends of a new in-process pipe.  It behaves as
// an os.Pipe does: a write of up to 64 KiB into an empty pipe returns
// without waiting for a reader; a read drains what was written, then
// returns io.EOF once the write end is closed; and a write after the
// read end is closed fails with an error matching syscall.EPIPE.
func NewPipe() (*PipeReader, *PipeWriter) {
	p := &pipe{}
	p.cond.L = &p.mu
	p.rd.p, p.wr.p = p, p
	return &p.rd, &p.wr
}

// Read reads buffered bytes, or the OS pipe once there is one.
func (r *PipeReader) Read(b []byte) (int, error) {
	p := r.p
	p.mu.Lock()
	for {
		switch {
		case p.rclosed:
			p.mu.Unlock()
			return 0, os.ErrClosed
		case p.off < len(p.buf):
			n := copy(b, p.buf[p.off:])
			p.off += n
			if p.off == len(p.buf) {
				p.buf, p.off = p.buf[:0], 0
			}
			p.cond.Broadcast()
			p.mu.Unlock()
			return n, nil
		case p.r != nil:
			f := p.r
			p.mu.Unlock()
			return f.Read(b)
		case p.wclosed:
			p.mu.Unlock()
			return 0, io.EOF
		}
		p.cond.Wait()
	}
}

// Close closes the read end: unread bytes are dropped, and later writes
// fail with EPIPE.
func (r *PipeReader) Close() error {
	p := r.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rclosed {
		return os.ErrClosed
	}
	p.rclosed = true
	p.buf, p.off = nil, 0
	p.cond.Broadcast()
	if p.r != nil {
		return p.r.Close()
	}
	return nil
}

// File returns the read end's descriptor for an external process, making
// the OS pipe if there is none yet.  It does not wait for buffered bytes
// to reach the OS pipe: the process it is for has not started, and may
// be what makes room for them.
func (r *PipeReader) File() (*os.File, error) {
	p := r.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rclosed {
		return nil, os.ErrClosed
	}
	if err := p.materialize(); err != nil {
		return nil, err
	}
	return p.r, nil
}

// Write buffers b, waiting while the buffer is full, or writes the OS
// pipe once there is one.
func (w *PipeWriter) Write(b []byte) (int, error) {
	p := w.p
	p.mu.Lock()
	n := 0
	for {
		switch {
		case p.wclosed:
			p.mu.Unlock()
			return n, os.ErrClosed
		case p.rclosed:
			p.mu.Unlock()
			return n, errBrokenPipe
		case p.w != nil:
			f, flushed := p.w, p.flushed
			p.mu.Unlock()
			if flushed != nil {
				<-flushed
			}
			m, err := f.Write(b[n:])
			return n + m, err
		}
		room, rest := pipeSize-(len(p.buf)-p.off), len(b)-n
		if room >= rest || room > 0 && rest > pipeAtomic {
			m := min(room, rest)
			if p.off > 0 && len(p.buf)+m > cap(p.buf) {
				// Reuse the space already read before growing.
				p.buf = p.buf[:copy(p.buf, p.buf[p.off:])]
				p.off = 0
			}
			p.buf = append(p.buf, b[n:n+m]...)
			n += m
			p.cond.Broadcast()
			if n == len(b) {
				p.mu.Unlock()
				return n, nil
			}
		}
		p.cond.Wait()
	}
}

// Close closes the write end: the reader gets EOF once it has read what
// was written.
func (w *PipeWriter) Close() error {
	p := w.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.wclosed {
		return os.ErrClosed
	}
	p.wclosed = true
	p.cond.Broadcast()
	if p.w != nil && !p.flushing {
		return p.w.Close()
	}
	return nil
}

// File returns the write end's descriptor for an external process,
// making the OS pipe if there is none yet.  It returns once the bytes
// buffered before the OS pipe was made are in it, so the process's
// output lands behind them.
func (w *PipeWriter) File() (*os.File, error) {
	p := w.p
	p.mu.Lock()
	if p.wclosed {
		p.mu.Unlock()
		return nil, os.ErrClosed
	}
	if err := p.materialize(); err != nil {
		p.mu.Unlock()
		return nil, err
	}
	f, flushed := p.w, p.flushed
	p.mu.Unlock()
	if flushed != nil {
		<-flushed
	}
	return f, nil
}

// materialize makes the OS pipe on the first request for a descriptor.
// The buffered bytes go into it from a goroutine of their own, without
// the lock: the OS pipe may hold fewer bytes than the buffer, and an
// in-process reader draining it needs the lock to find it.  Called with
// p.mu held.
func (p *pipe) materialize() error {
	if p.r != nil {
		return nil
	}
	r, w, err := os.Pipe()
	if err != nil {
		return err
	}
	p.r, p.w = r, w
	pending := p.buf[p.off:]
	p.buf, p.off = nil, 0
	if p.rclosed {
		r.Close()
	} else if len(pending) > 0 {
		p.flushed = make(chan struct{})
		p.flushing = true
		go p.flush(pending)
	}
	if p.wclosed && !p.flushing {
		w.Close()
	}
	p.cond.Broadcast()
	return nil
}

// flush writes the bytes that were buffered when the OS pipe was made
// into it, then closes w if the writer closed meanwhile.  A failed write
// means the reader has gone; later writes will fail as this one did.
func (p *pipe) flush(pending []byte) {
	_, _ = p.w.Write(pending)
	p.mu.Lock()
	p.flushing = false
	if p.wclosed {
		p.w.Close()
	}
	p.mu.Unlock()
	close(p.flushed)
}
