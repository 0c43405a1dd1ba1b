package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
)

func TestPipeEOFAfterDrain(t *testing.T) {
	r, w := NewPipe()
	if _, err := io.WriteString(w, "hello "); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(w, "world"); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err := io.ReadAll(r)
	if string(got) != "hello world" || err != nil {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
	if n, err := r.Read(make([]byte, 8)); n != 0 || err != io.EOF {
		t.Errorf("read after drain = %d, %v; want 0, EOF", n, err)
	}
}

func TestPipeEPIPEAfterReaderCloses(t *testing.T) {
	r, w := NewPipe()
	r.Close()
	if _, err := w.Write([]byte("x")); !errors.Is(err, syscall.EPIPE) {
		t.Errorf("write after reader closed = %v, want EPIPE", err)
	}

	// A writer waiting for room is woken by the reader going.
	r, w = NewPipe()
	done := make(chan error, 1)
	go func() {
		_, err := w.Write(make([]byte, 2*pipeSize))
		done <- err
	}()
	// The first read returns once the writer has filled the buffer.
	if _, err := r.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if err := <-done; !errors.Is(err, syscall.EPIPE) {
		t.Errorf("blocked write after reader closed = %v, want EPIPE", err)
	}
}

func TestPipeWriteWithoutReader(t *testing.T) {
	_, w := NewPipe()
	if n, err := w.Write(bytes.Repeat([]byte("y"), pipeSize)); n != pipeSize || err != nil {
		t.Errorf("64 KiB write with no reader = %d, %v", n, err)
	}
}

func TestPipeCloseTwice(t *testing.T) {
	r, w := NewPipe()
	if err := w.Close(); err != nil {
		t.Errorf("first writer Close = %v", err)
	}
	if err := w.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("second writer Close = %v, want ErrClosed", err)
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, os.ErrClosed) {
		t.Errorf("write after Close = %v, want ErrClosed", err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("first reader Close = %v", err)
	}
	if err := r.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("second reader Close = %v, want ErrClosed", err)
	}
	if _, err := r.Read(make([]byte, 1)); !errors.Is(err, os.ErrClosed) {
		t.Errorf("read after Close = %v, want ErrClosed", err)
	}
	// Closing the ends of an OS pipe twice is as harmless.
	r, w = NewPipe()
	if _, err := w.File(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		w.Close()
		r.Close()
	}
}

// TestPipeMaterializeKeepsOrder has each end ask for its descriptor with
// bytes buffered: up to a full buffer, so the flush can fill the OS pipe,
// followed by writes that must queue behind it.  When the writer asks,
// an external's own write to the descriptor comes first.
func TestPipeMaterializeKeepsOrder(t *testing.T) {
	for _, end := range []string{"reader", "writer"} {
		for _, buffered := range []int{0, 7, pipeSize} {
			t.Run(fmt.Sprintf("%s/%d", end, buffered), func(t *testing.T) {
				r, w := NewPipe()
				defer r.Close()
				before := bytes.Repeat([]byte("a"), buffered)
				if _, err := w.Write(before); err != nil {
					t.Fatal(err)
				}
				type result struct {
					b   []byte
					err error
				}
				got := make(chan result, 1)
				drain := func(src io.Reader) {
					b, err := io.ReadAll(src)
					got <- result{b, err}
				}
				after := bytes.Repeat([]byte("b"), pipeSize)
				head := 0
				if end == "reader" {
					f, err := r.File()
					if err != nil {
						t.Fatal(err)
					}
					go drain(f)
				} else {
					go drain(r)
					f, err := w.File()
					if err != nil {
						t.Fatal(err)
					}
					if head, err = f.Write(after[:10]); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := w.Write(after[head:]); err != nil {
					t.Fatal(err)
				}
				w.Close()
				res := <-got
				if res.err != nil {
					t.Fatal(res.err)
				}
				if want := append(before, after...); !bytes.Equal(res.b, want) {
					t.Errorf("read %d bytes, want %d in order", len(res.b), len(want))
				}
			})
		}
	}
}

func TestPipeMaterializeAfterClose(t *testing.T) {
	// The reader has gone: the external writer's descriptor fails with
	// EPIPE, and the reader's own end has no descriptor to give.
	r, w := NewPipe()
	io.WriteString(w, "dropped")
	r.Close()
	if _, err := r.File(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("closed reader's File = %v, want ErrClosed", err)
	}
	f, err := w.File()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.EPIPE) {
		t.Errorf("write to the descriptor = %v, want EPIPE", err)
	}
	w.Close()

	// The writer has gone: the external reader's descriptor gives the
	// buffered bytes, then EOF.
	r, w = NewPipe()
	io.WriteString(w, "kept")
	w.Close()
	if _, err := w.File(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("closed writer's File = %v, want ErrClosed", err)
	}
	f, err = r.File()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(f); string(got) != "kept" || err != nil {
		t.Errorf("descriptor read %q, %v; want kept, nil", got, err)
	}
	r.Close()
}

// TestPipeSharedByGoroutines writes lines from several goroutines at once
// while another asks for the descriptor partway: every line arrives whole
// and each writer's lines keep their order.
func TestPipeSharedByGoroutines(t *testing.T) {
	const writers, lines = 4, 2000
	r, w := NewPipe()
	defer r.Close()
	var wg sync.WaitGroup
	for k := 0; k < writers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for n := 0; n < lines; n++ {
				if n == lines/2 && k == 0 {
					if _, err := w.File(); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := fmt.Fprintf(w, "%d %06d %s\n", k, n, strings.Repeat("x", 40)); err != nil {
					t.Error(err)
					return
				}
			}
		}(k)
	}
	go func() {
		wg.Wait()
		w.Close()
	}()
	next := make([]int, writers)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var k, n int
		var xs string
		if _, err := fmt.Sscanf(sc.Text(), "%d %d %s", &k, &n, &xs); err != nil || len(xs) != 40 || k < 0 || k >= writers || n != next[k] {
			t.Fatalf("line %q out of place", sc.Text())
		}
		next[k]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for k, n := range next {
		if n != lines {
			t.Errorf("writer %d: %d lines, want %d", k, n, lines)
		}
	}
}

func TestIOTableFileOfPipe(t *testing.T) {
	r, w := NewPipe()
	tbl := NewIOTable(r, w, nil)
	in, done, err := tbl.File(0, true)
	if err != nil || done != nil {
		t.Fatalf("File(0) = done %v, err %v; want no copier", done != nil, err)
	}
	out, done, err := tbl.File(1, false)
	if err != nil || done != nil {
		t.Fatalf("File(1) = done %v, err %v; want no copier", done != nil, err)
	}
	if _, err := out.WriteString("direct"); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if got, err := io.ReadAll(in); string(got) != "direct" || err != nil {
		t.Errorf("read %q, %v", got, err)
	}
	r.Close()
}
