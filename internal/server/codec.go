package server

// The frame codec: one Frame to and from one JSON line, on the wire
// exactly as encoding/json writes and reads it.  appendFrame, written by
// hand for this one struct so that no reply pays for reflection, writes
// what json.Marshal writes.  decodeFrame reads a line in json.Marshal's
// shape itself, in one pass, and hands every other line to
// json.Unmarshal, so it accepts, rejects and decodes what json.Unmarshal
// into a zero Frame does.  FuzzFrameCodec holds both halves to
// encoding/json itself.

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// appendFrame appends f as json.Marshal writes it: fields in declaration
// order, empty ones omitted, strings escaped HTML-safe, and a raw image
// as the base64 Image it stands for.  It fails only on an ms that JSON
// cannot carry (NaN or an infinity).
func appendFrame(b []byte, f *Frame) ([]byte, error) {
	b = append(b, `{"type":`...)
	b = appendString(b, f.Type)
	b = intField(b, `,"id":`, f.ID)
	b = stringField(b, `,"src":`, f.Src)
	b = intField(b, `,"deadline_ms":`, f.DeadlineMS)
	b = listField(b, `,"value":`, f.Value)
	if f.True {
		b = append(b, `,"true":true`...)
	}
	b = listField(b, `,"exception":`, f.Exception)
	b = stringField(b, `,"stdout":`, f.Stdout)
	b = stringField(b, `,"stderr":`, f.Stderr)
	if f.MS != 0 {
		if math.IsNaN(f.MS) || math.IsInf(f.MS, 0) {
			return b, fmt.Errorf("frame ms: unsupported value %v", f.MS)
		}
		b = appendFloat(append(b, `,"ms":`...), f.MS)
	}
	b = listField(b, `,"stats":`, f.Stats)
	b = stringField(b, `,"reason":`, f.Reason)
	if len(f.rawImage) > 0 {
		// Base64 text holds nothing JSON escapes.
		b = base64.StdEncoding.AppendEncode(append(b, `,"image":"`...), f.rawImage)
		b = append(b, '"')
	} else {
		b = stringField(b, `,"image":`, f.Image)
	}
	b = stringField(b, `,"socket":`, f.Socket)
	b = listField(b, `,"diags":`, f.Diags)
	b = listField(b, `,"effects":`, f.Effects)
	b = stringField(b, `,"tenant":`, f.Tenant)
	b = intField(b, `,"window":`, int64(f.Window))
	b = intField(b, `,"retry_after_ms":`, f.RetryAfterMS)
	return append(b, '}'), nil
}

func intField(b []byte, key string, n int64) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), n, 10)
}

func stringField(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

func listField(b []byte, key string, list []string) []byte {
	if len(list) == 0 {
		return b
	}
	b = append(append(b, key...), '[')
	for k, s := range list {
		if k > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendFloat writes x as encoding/json does, the way ES6 prints a
// number: shortest round-trip digits, exponent form only below 1e-6 or
// from 1e21, and the exponent not padded to two digits.
func appendFloat(b []byte, x float64) []byte {
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && string(b[n-4:n-1]) == "e-0" {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// htmlSafe marks the ASCII bytes encoding/json writes as they are: the
// printable ones except the quote, the backslash, and <, > and &, which
// it escapes so a frame can sit inside HTML.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes it: short
// escapes where JSON has them, \u00XX for the other control bytes and
// for <, > and &, \ufffd for each byte of invalid UTF-8, and \u2028 and
// \u2029 escaped because JavaScript reads them as line ends.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// decodeFrame decodes one frame line as json.Unmarshal does into a zero
// Frame.  A line in the shape json.Marshal writes a Frame in, which is
// the shape of every line esd's clients send, is read by plainFrame;
// every other line, including every malformed one, goes to
// json.Unmarshal, whose error is wrapped in ErrBadFrame.
func decodeFrame(line []byte) (*Frame, error) {
	f := new(Frame)
	if plainFrame(line, f) {
		return f, nil
	}
	*f = Frame{}
	if err := json.Unmarshal(line, f); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	return f, nil
}

// frameDecoder is one pass of plainFrame over one line.
type frameDecoder struct {
	line []byte
	i    int    // the next byte to read
	buf  []byte // an unescaped string, valid until the next str call
}

// plainFrame decodes line into f when the line has the shape json.Marshal
// writes a Frame in: no whitespace, no null, every key one of the
// Frame's, and no control byte, invalid UTF-8 or \u escape of a
// surrogate in a string.  A line it takes decodes as json.Unmarshal
// decodes it; for any other line it reports false, leaving f half
// written.  A key given twice needs no care: the last value wins, as in
// json.Unmarshal, since no null can keep an earlier one and a list is
// replaced whole.
func plainFrame(line []byte, f *Frame) bool {
	d := frameDecoder{line: line}
	if !d.eat('{') {
		return false
	}
	for k := 0; !d.eat('}'); k++ {
		if k > 0 && !d.eat(',') {
			return false
		}
		key, ok := d.str()
		if !ok || !d.eat(':') || !d.field(f, key) {
			return false
		}
	}
	return d.i == len(line)
}

// field reads the value of key into the Frame field it names.  It
// reports false for a key the Frame does not have, and for a value not
// of the field's type.
func (d *frameDecoder) field(f *Frame, key []byte) bool {
	switch string(key) {
	case "type":
		return d.string(&f.Type)
	case "id":
		return decodeInt(d, &f.ID, 64)
	case "src":
		return d.string(&f.Src)
	case "deadline_ms":
		return decodeInt(d, &f.DeadlineMS, 64)
	case "value":
		return d.list(&f.Value)
	case "true":
		f.True = d.literal("true")
		return f.True || d.literal("false")
	case "exception":
		return d.list(&f.Exception)
	case "stdout":
		return d.string(&f.Stdout)
	case "stderr":
		return d.string(&f.Stderr)
	case "ms":
		x, err := strconv.ParseFloat(string(d.number()), 64)
		f.MS = x
		return err == nil
	case "stats":
		return d.list(&f.Stats)
	case "reason":
		return d.string(&f.Reason)
	case "image":
		return d.string(&f.Image)
	case "socket":
		return d.string(&f.Socket)
	case "diags":
		return d.list(&f.Diags)
	case "effects":
		return d.list(&f.Effects)
	case "tenant":
		return d.string(&f.Tenant)
	case "window":
		return decodeInt(d, &f.Window, strconv.IntSize)
	case "retry_after_ms":
		return decodeInt(d, &f.RetryAfterMS, 64)
	}
	return false
}

func (d *frameDecoder) eat(c byte) bool {
	if d.i < len(d.line) && d.line[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *frameDecoder) literal(word string) bool {
	if len(d.line)-d.i >= len(word) && string(d.line[d.i:d.i+len(word)]) == word {
		d.i += len(word)
		return true
	}
	return false
}

func (d *frameDecoder) string(p *string) bool {
	s, ok := d.str()
	*p = string(s)
	return ok
}

// decodeInt reads an integer of the given bit size into *p.  It refuses a
// fraction, an exponent and a number out of range, all of which
// json.Unmarshal rejects.
func decodeInt[T int | int64](d *frameDecoder, p *T, bits int) bool {
	n, err := strconv.ParseInt(string(d.number()), 10, bits)
	*p = T(n)
	return err == nil
}

// list reads an array of strings into *p, replacing whatever an earlier
// duplicate of the key left there; [] is empty but not nil, as in
// json.Unmarshal.
func (d *frameDecoder) list(p *[]string) bool {
	if !d.eat('[') {
		return false
	}
	s := []string{}
	for !d.eat(']') {
		if len(s) > 0 && !d.eat(',') {
			return false
		}
		s = append(s, "")
		if !d.string(&s[len(s)-1]) {
			return false
		}
	}
	*p = s
	return true
}

// number scans a JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and returns its text, or nil when there is none.
func (d *frameDecoder) number() []byte {
	start := d.i
	d.eat('-')
	if !d.eat('0') && d.digits() == 0 || d.eat('.') && d.digits() == 0 {
		return nil
	}
	if d.eat('e') || d.eat('E') {
		if !d.eat('+') {
			d.eat('-')
		}
		if d.digits() == 0 {
			return nil
		}
	}
	return d.line[start:d.i]
}

func (d *frameDecoder) digits() int {
	start := d.i
	for d.i < len(d.line) && '0' <= d.line[d.i] && d.line[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// unescape maps the byte after a backslash to the byte it stands for,
// for every JSON escape but \u.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// str reads the string literal at d.i and returns its contents: a slice
// of the line when it holds no escape, else the unescaped copy in d.buf.
// It refuses a control byte, invalid UTF-8 and a \u escape of a
// surrogate, which json.Unmarshal reads but json.Marshal never writes.
func (d *frameDecoder) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	b, start, escaped := d.buf[:0], d.i, false
	for {
		i := d.i
		for i < len(d.line) && asIs(d.line[i]) {
			i++
		}
		if d.i = i; i == len(d.line) {
			return nil, false
		}
		switch c := d.line[i]; {
		case c == '"':
			d.i++
			if !escaped {
				return d.line[start:i], true
			}
			d.buf = append(b, d.line[start:i]...)
			return d.buf, true
		case c == '\\':
			b, escaped = append(b, d.line[start:i]...), true
			if i+1 < len(d.line) && unescape[d.line[i+1]] != 0 {
				b = append(b, unescape[d.line[i+1]])
				d.i += 2
			} else if r := hex4(d.line[i:]); r >= 0 && !utf16.IsSurrogate(r) {
				b = utf8.AppendRune(b, r)
				d.i += 6
			} else {
				return nil, false
			}
			start = d.i
		case c < ' ':
			return nil, false
		default:
			r, size := utf8.DecodeRune(d.line[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, false
			}
			d.i += size
		}
	}
}

// asIs reports whether c stands for itself in a JSON string: printable
// ASCII but the quote and the backslash.
func asIs(c byte) bool {
	return ' ' <= c && c < utf8.RuneSelf && c != '"' && c != '\\'
}

// hex4 returns the code unit of the \uXXXX escape s starts with, or -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
