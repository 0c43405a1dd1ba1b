package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// scannerLines is the reference split: bufio.Scanner over the frame
// bound, as FrameReader read lines before it kept its own buffer.
func scannerLines(r io.Reader) ([]string, error) {
	s := bufio.NewScanner(r)
	s.Buffer(nil, maxFrameBytes)
	var lines []string
	for s.Scan() {
		lines = append(lines, s.Text())
	}
	switch err := s.Err(); {
	case err == nil:
		return lines, io.EOF
	case errors.Is(err, bufio.ErrTooLong):
		return lines, ErrFrameTooLarge
	default:
		return lines, err
	}
}

// readerLines splits r with a FrameReader, and checks that the error
// that ends it sticks.
func readerLines(t *testing.T, r io.Reader) ([]string, error) {
	fr := NewFrameReader(r)
	defer fr.Release()
	var lines []string
	for {
		line, err := fr.line()
		if err != nil {
			if _, again := fr.line(); again != err {
				t.Errorf("after %v, the next read returned %v", err, again)
			}
			return lines, err
		}
		lines = append(lines, string(line))
	}
}

// TestFrameReaderSplitsAsScanner holds FrameReader's line splitting to
// bufio.Scanner's: the same lines, carriage returns dropped before a
// newline, a last line without one, and the same error at the end,
// however the reads arrive, across the growth of its buffer and up to
// the frame bound.
func TestFrameReaderSplitsAsScanner(t *testing.T) {
	errBroken := errors.New("connection broken")
	long := func(n int) string { return strings.Repeat("x", n) }
	inputs := []string{
		"", "\n", "\n\n", "a", "a\n", "a\nb\n", "a\nb", "a\r\nb\r\n", "a\r", "\r\n\r\n", "a\rb\n",
		long(4095) + "\n" + long(4096) + "\nshort\n" + long(4097) + "\r\n",
		long(9000) + "\n" + long(3) + "\n" + long(70000),
		strings.Repeat(`{"type":"eval","id":1,"src":"result 0"}`+"\n", 500),
	}
	readers := map[string]func(string) io.Reader{
		"whole":    func(s string) io.Reader { return strings.NewReader(s) },
		"one-byte": func(s string) io.Reader { return iotest.OneByteReader(strings.NewReader(s)) },
		"half":     func(s string) io.Reader { return iotest.HalfReader(strings.NewReader(s)) },
		"data-err": func(s string) io.Reader { return iotest.DataErrReader(strings.NewReader(s)) },
		"broken": func(s string) io.Reader {
			return io.MultiReader(strings.NewReader(s), iotest.ErrReader(errBroken))
		},
	}
	for name, reader := range readers {
		for _, in := range inputs {
			want, wantErr := scannerLines(reader(in))
			got, err := readerLines(t, reader(in))
			if err != wantErr || strings.Join(got, "\x00") != strings.Join(want, "\x00") || len(got) != len(want) {
				t.Errorf("%s reads of %.30q...: %d lines, %v; bufio.Scanner %d lines, %v", name, in, len(got), err, len(want), wantErr)
			}
		}
	}
	// The bound: a line and its newline fill at most maxFrameBytes.
	for _, in := range []string{long(maxFrameBytes-1) + "\nnext\n", long(maxFrameBytes) + "\nnext\n"} {
		want, wantErr := scannerLines(strings.NewReader(in))
		got, err := readerLines(t, strings.NewReader(in))
		if err != wantErr || len(got) != len(want) {
			t.Errorf("a line of %d bytes: %d lines, %v; bufio.Scanner %d lines, %v", len(in)-6, len(got), err, len(want), wantErr)
		}
	}
}

// TestFrameWriterRelease: a write after Release still writes its frame,
// from a buffer of its own, and never takes or keeps a pooled one.
func TestFrameWriterRelease(t *testing.T) {
	var out bytes.Buffer
	fw := NewFrameWriter(&out)
	if err := fw.Write(&Frame{Type: "result", ID: 1, Value: []string{"0"}}); err != nil {
		t.Fatal(err)
	}
	fw.Release()
	if err := fw.Write(&Frame{Type: "bye", Reason: "drain"}); err != nil {
		t.Fatal(err)
	}
	if fw.buf != nil {
		t.Errorf("a write after Release kept a buffer")
	}
	want := `{"type":"result","id":1,"value":["0"]}` + "\n" + `{"type":"bye","reason":"drain"}` + "\n"
	if out.String() != want {
		t.Errorf("wrote %q, want %q", out.String(), want)
	}
}
