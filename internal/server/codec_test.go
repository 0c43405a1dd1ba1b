package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// codecSeeds holds one frame of every type MANUAL §14 and §17 show, each
// side's form where the two differ, then strings of every escape class,
// key spellings, duplicates, nulls, numbers at their limits, and lines
// that must be rejected.
var codecSeeds = []string{
	`{"type":"eval","id":1,"src":"echo hi","deadline_ms":50}`,
	`{"type":"result","id":1,"value":["a","b"],"true":true,"stdout":"hi\n","stderr":"","ms":0.012}`,
	`{"type":"error","id":1,"exception":["signal","deadline"],"stdout":"","ms":50.25}`,
	`{"type":"error","id":9,"exception":["signal","overload","p99 over ceiling"],"retry_after_ms":100}`,
	`{"type":"error","exception":["error","esd","bad frame: byte 3: want a key"]}`,
	`{"type":"stats","id":7}`,
	`{"type":"stats","id":7,"stats":["sessions_open:1","evals:12","p99_us:40"]}`,
	`{"type":"check","id":2,"src":"echo $x"}`,
	`{"type":"check","id":2,"true":false,"diags":["1:6: E101 undefined"],"effects":["output","exec"]}`,
	`{"type":"snap","id":3}`,
	`{"type":"snap","id":3,"true":true,"image":"JWVzaW1nIDEKAAAA"}`,
	`{"type":"restore","id":4,"image":"JWVzaW1nIDEKAAAA"}`,
	`{"type":"restore","id":4,"true":true}`,
	`{"type":"migrate","id":5,"socket":"/run/esd2.sock"}`,
	`{"type":"migrate","id":5,"true":true,"socket":"tls://127.0.0.1:7443"}`,
	`{"type":"hello","id":6,"window":8,"tenant":"acme"}`,
	`{"type":"hello","id":6,"true":true,"window":8,"tenant":"acme"}`,
	`{"type":"bye"}`,
	`{"type":"bye","reason":"frame too large"}`,

	`{"type":"eval","src":"\"\\\/\b\f\n\r\t"}`,
	`{"type":"eval","src":"\u003c\u003E\u0026 <>& \u0000\u001f\u007f\u0080 \u2028\u2029"}`,
	`{"type":"eval","src":"\ud83d\ude00 \ud800x \udc00 \udc00\ud800 \ud800\u0041 \uD83D\uDE00"}`,
	"{\"type\":\"eval\",\"src\":\"h\u00e9llo \u4e16 \U0001F600 \xff\xfe \xed\xa0\x80 \u2028\x7f\"}",
	`{"type":"eval","src":"\x"}`,
	`{"type":"eval","src":"\u12G4"}`,
	"{\"type\":\"eval\",\"src\":\"tab\there\"}",
	`{"TYPE":"eval","Id":3,"SRC":"x","ſrc":"y","\u0074ype":"bye","ſtats":["K"]}`,
	`{"type":"eval","extra":{"a":[1,-2.5e-3,true,false,null,{"b":"c"},[]]},"src":"x","":0}`,
	`{"type":"eval","src":"a","src":null,"value":["a","b"],"value":["x"],"value":[null,null,null]}`,
	`{"value":["a"],"value":[],"value":[null],"exception":null,"true":true,"true":null}`,
	" \t\r\n{ \"type\" : \"eval\" , \"id\" : -0 }\r\n ",
	`null`,
	` null `,
	`{"ms":1e-7}`, `{"ms":1e21}`, `{"ms":123456789.125}`, `{"ms":-0}`, `{"ms":5e-324}`, `{"ms":1E+2}`,
	`{"id":-9223372036854775808,"window":2147483648,"retry_after_ms":9223372036854775807}`,

	`{"type":"eval","id":1,"src":"res`,
	`{"type":"eval","id":"x"}`,
	`{"id":1.5}`, `{"id":1e3}`, `{"id":9223372036854775808}`, `{"ms":1e400}`, `{"true":1}`,
	`{"value":"a"}`, `{"value":[1]}`, `{"src":["a"]}`, `{"src":{}}`,
	`{"type":"eval"} x`, `{} {}`, `[]`, `"frame"`, `true`, ``, ` `,
	`{"type":"eval",}`, `{"type" "eval"}`, `{,}`, `{"a":01}`, `{"a":-}`, `{"a":1.}`, `{"a":1e}`, `{"a":tru}`, `{"a":nul}`,
	"{\"src\":\"\x01\"}",
	`{"a":[[[[[]]]]]`,
}

// encodeMatches fails t unless appendFrame writes exactly json.Marshal's
// bytes for f, or both refuse it.
func encodeMatches(t *testing.T, f *Frame) {
	t.Helper()
	want, wantErr := json.Marshal(f)
	got, err := appendFrame(nil, f)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("encode %+v: err = %v, json.Marshal err = %v", f, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("encode %+v:\n got %s\nwant %s", f, got, want)
	}
}

// frameFrom builds a frame whose every field comes from data, so the
// fuzzer reaches every string, list, integer and float the encoder
// handles, NaN and the infinities included.
func frameFrom(data []byte) *Frame {
	s := string(data)
	words := strings.Split(s, ",")
	var n [2]uint64
	for k := range n {
		var b [8]byte
		copy(b[:], data[min(8*k, len(data)):])
		n[k] = binary.LittleEndian.Uint64(b[:])
	}
	return &Frame{Type: s, ID: int64(n[0]), Src: words[0], DeadlineMS: -int64(len(data)),
		Value: words, True: len(data)%2 == 1, Exception: words[1:], Stdout: s, Stderr: strings.ToUpper(s),
		MS: math.Float64frombits(n[1]), Stats: words[len(words)/2:], Reason: words[len(words)-1],
		Image: s, Socket: s, Diags: words, Effects: words[:len(words)/2], Tenant: s,
		Window: int(int32(n[1])), RetryAfterMS: int64(n[1])}
}

// FuzzFrameCodec holds the codec to encoding/json: decodeFrame accepts
// exactly the lines json.Unmarshal accepts and decodes them to the same
// Frame, and appendFrame writes json.Marshal's bytes.
func FuzzFrameCodec(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	// An unknown key's value nested to encoding/json's depth limit, and
	// one level past it.
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		f.Add([]byte(`{"deep":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want Frame
		wantErr := json.Unmarshal(line, &want)
		got, err := decodeFrame(line)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decode %q: err = %v, json.Unmarshal err = %v", line, err, wantErr)
		}
		if err != nil && !errors.Is(err, ErrBadFrame) {
			t.Fatalf("decode %q: %v does not wrap ErrBadFrame", line, err)
		}
		if err == nil {
			if !reflect.DeepEqual(*got, want) {
				t.Fatalf("decode %q:\n got %#v\nwant %#v", line, *got, want)
			}
			encodeMatches(t, got)
		}
		encodeMatches(t, frameFrom(line))
	})
}

// TestFrameCodecAllocs pins what the codec allocates per frame: decoding
// an eval line, the Frame and its two strings; encoding a result on a
// warm FrameWriter, nothing.
func TestFrameCodecAllocs(t *testing.T) {
	line := []byte(`{"type":"eval","id":7,"src":"result 0","deadline_ms":50}`)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodeFrame(line); err != nil {
			t.Fatal(err)
		}
	}); n != 3 {
		t.Errorf("decoding an eval line: %v allocs, want 3 (the Frame, its type and its src)", n)
	}
	fw := NewFrameWriter(io.Discard)
	reply := &Frame{Type: "result", ID: 7, Value: []string{"0"}, True: true,
		Stdout: "<0>\n", MS: 0.012}
	if err := fw.Write(reply); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := fw.Write(reply); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("encoding a result frame: %v allocs, want 0", n)
	}
}

// TestLargeFrames: frames far past the reader's starting buffer round-trip
// intact through a session: a 1 MiB eval with its 1 MiB of output, then a
// snap and a restore carrying an image over 256 KiB.
func TestLargeFrames(t *testing.T) {
	srv := newTestServer(t, Config{})
	c := dial(t, srv.cfg.Socket)
	big := strings.Repeat("0123456789abcdef", 1<<16)
	if f := c.eval(t, "echo "+big, 0); f.Type != "result" || f.Stdout != big+"\n" {
		t.Fatalf("1 MiB eval: type %q, %d bytes of stdout", f.Type, len(f.Stdout))
	}
	val := big[:256<<10]
	if f := c.eval(t, "big = "+val, 0); f.Type != "result" {
		t.Fatalf("assign: %+v", f)
	}
	snap := c.roundTrip(t, &Frame{Type: "snap", ID: 2})
	if snap.Type != "snap" || len(snap.Image) < 256<<10 {
		t.Fatalf("snap: type %q, %d bytes of image", snap.Type, len(snap.Image))
	}
	d := dial(t, srv.cfg.Socket)
	if f := d.roundTrip(t, &Frame{Type: "restore", ID: 3, Image: snap.Image}); f.Type != "restore" || !f.True {
		t.Fatalf("restore: %+v", f)
	}
	if f := d.eval(t, "result $big", 0); f.Type != "result" || len(f.Value) != 1 || f.Value[0] != val {
		t.Fatalf("restored big: type %q, %d values", f.Type, len(f.Value))
	}
}
