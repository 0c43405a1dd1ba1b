package server

// The frame codec: one Frame to and from one JSON line, written by hand
// for this one struct so that no request pays for reflection.  The wire
// is encoding/json's to the byte: appendFrame writes what json.Marshal
// writes, and decodeFrame accepts, rejects and decodes what
// json.Unmarshal into a zero Frame does.  FuzzFrameCodec holds both to
// encoding/json itself.

import (
	"bytes"
	"encoding/base64"
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

// frameKeys are the Frame's JSON keys.
var frameKeys = [...]string{"type", "id", "src", "deadline_ms", "value", "true",
	"exception", "stdout", "stderr", "ms", "stats", "reason", "image", "socket",
	"diags", "effects", "tenant", "window", "retry_after_ms"}

// frameKey returns the Frame key that key selects, matched as
// encoding/json matches it: exactly, else case-insensitively by
// bytes.EqualFold.  It returns "" for a key the Frame does not have.
func frameKey(key []byte) string {
	for _, k := range frameKeys {
		if string(key) == k {
			return k
		}
	}
	for _, k := range frameKeys {
		if bytes.EqualFold(key, []byte(k)) {
			return k
		}
	}
	return ""
}

// maxDepth is encoding/json's nesting limit.  The frame object is one
// level, and so is every array or object inside a value.
const maxDepth = 10000

// frameDecoder is one pass over one frame line.
type frameDecoder struct {
	line []byte
	i    int    // the next byte to read
	key  string // the Frame key whose value is being read, for errors
	buf  []byte // an unescaped string, valid until the next str call
}

// decodeFrame decodes one frame line as json.Unmarshal does into a zero
// Frame.  It takes any JSON whitespace and every escape, matches keys
// exactly and then by case folding, validates and skips unknown keys,
// lets the last of duplicate keys win, and leaves a field untouched by a
// null (but nils a list).  A syntax error, a value of the wrong type, an
// integer field given a fraction or an overflowing number, and bytes
// after the frame are all errors wrapping ErrBadFrame.
func decodeFrame(line []byte) (*Frame, error) {
	d := frameDecoder{line: line}
	f := new(Frame)
	d.space()
	var err error
	if d.peek() == 'n' {
		err = d.null() // json.Unmarshal leaves the Frame as it was
	} else {
		err = d.object(f)
	}
	if err == nil {
		if d.space(); d.i < len(d.line) {
			err = d.fail("bytes after the frame")
		}
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (d *frameDecoder) fail(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if d.key != "" {
		msg = d.key + ": " + msg
	}
	return fmt.Errorf("%w: byte %d: %s", ErrBadFrame, d.i, msg)
}

func (d *frameDecoder) space() {
	for d.i < len(d.line) {
		switch d.line[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end of the line.
func (d *frameDecoder) peek() byte {
	if d.i < len(d.line) {
		return d.line[d.i]
	}
	return 0
}

func (d *frameDecoder) eat(c byte) bool {
	if d.peek() == c {
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

func (d *frameDecoder) null() error {
	if !d.literal("null") {
		return d.fail("want a value")
	}
	return nil
}

func (d *frameDecoder) object(f *Frame) error {
	if !d.eat('{') {
		return d.fail("want an object")
	}
	if d.space(); d.eat('}') {
		return nil
	}
	for {
		if d.space(); d.peek() != '"' {
			return d.fail("want a key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.space(); !d.eat(':') {
			return d.fail("want ':' after a key")
		}
		d.space()
		d.key = frameKey(key)
		if err := d.field(f); err != nil {
			return err
		}
		d.key = ""
		if d.space(); d.eat('}') {
			return nil
		}
		if !d.eat(',') {
			return d.fail("want ',' or '}'")
		}
	}
}

// field reads the value at d.i into the field d.key names, or validates
// and skips it when the key is unknown.
func (d *frameDecoder) field(f *Frame) error {
	switch d.key {
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
		return d.bool(&f.True)
	case "exception":
		return d.list(&f.Exception)
	case "stdout":
		return d.string(&f.Stdout)
	case "stderr":
		return d.string(&f.Stderr)
	case "ms":
		return d.float(&f.MS)
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
	return d.skip(1)
}

func (d *frameDecoder) string(p *string) error {
	switch d.peek() {
	case 'n':
		return d.null()
	case '"':
		s, err := d.str()
		if err == nil {
			*p = string(s)
		}
		return err
	}
	return d.fail("want a string")
}

func (d *frameDecoder) bool(p *bool) error {
	switch {
	case d.literal("true"):
		*p = true
	case d.literal("false"):
		*p = false
	case !d.literal("null"):
		return d.fail("want true or false")
	}
	return nil
}

// decodeInt reads an integer of the given bit size into *p.  A fraction,
// an exponent or a number out of range is an error, as in encoding/json.
func decodeInt[T int | int64](d *frameDecoder, p *T, bits int) error {
	if d.peek() == 'n' {
		return d.null()
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		return d.fail("want a %d-bit integer, not %s", bits, lit)
	}
	*p = T(n)
	return nil
}

func (d *frameDecoder) float(p *float64) error {
	if d.peek() == 'n' {
		return d.null()
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	x, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return d.fail("%s is out of range", lit)
	}
	*p = x
	return nil
}

// list reads an array of strings into *p as json.Unmarshal does, over
// whatever an earlier duplicate of the key left there: element k is
// decoded into slot k, so a null element keeps the string already in
// the slot, and the slots past the old length but within its capacity
// come back into view.  A null list is nil, and [] is empty but not nil.
func (d *frameDecoder) list(p *[]string) error {
	if d.peek() == 'n' {
		if err := d.null(); err != nil {
			return err
		}
		*p = nil
		return nil
	}
	if !d.eat('[') {
		return d.fail("want an array of strings")
	}
	s, n := *p, 0
	if d.space(); !d.eat(']') {
		for {
			if n < cap(s) {
				s = s[:n+1]
			} else {
				s = append(s[:n], "")
			}
			d.space()
			if err := d.string(&s[n]); err != nil {
				return err
			}
			n++
			if d.space(); d.eat(']') {
				break
			}
			if !d.eat(',') {
				return d.fail("want ',' or ']'")
			}
		}
	}
	if n == 0 {
		s = []string{}
	}
	*p = s[:n]
	return nil
}

// skip validates and passes over the value of an unknown key; depth
// counts the arrays and objects open around it.
func (d *frameDecoder) skip(depth int) error {
	switch c := d.peek(); c {
	case '"':
		_, err := d.str()
		return err
	case '{', '[':
		if depth >= maxDepth {
			return d.fail("nested over %d deep", maxDepth)
		}
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		d.i++
		if d.space(); d.eat(end) {
			return nil
		}
		for {
			d.space()
			if c == '{' {
				if d.peek() != '"' {
					return d.fail("want a key")
				}
				if _, err := d.str(); err != nil {
					return err
				}
				if d.space(); !d.eat(':') {
					return d.fail("want ':' after a key")
				}
				d.space()
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			if d.space(); d.eat(end) {
				return nil
			}
			if !d.eat(',') {
				return d.fail("want ',' or '%c'", end)
			}
		}
	case 't', 'f', 'n':
		if d.literal("true") || d.literal("false") || d.literal("null") {
			return nil
		}
		return d.fail("want a value")
	}
	_, err := d.number()
	return err
}

// number scans a JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and returns its text.
func (d *frameDecoder) number() ([]byte, error) {
	start := d.i
	d.eat('-')
	if !d.eat('0') && d.digits() == 0 {
		return nil, d.fail("want a number")
	}
	if d.eat('.') && d.digits() == 0 {
		return nil, d.fail("want a digit after '.'")
	}
	if d.eat('e') || d.eat('E') {
		if !d.eat('+') {
			d.eat('-')
		}
		if d.digits() == 0 {
			return nil, d.fail("want a digit in the exponent")
		}
	}
	return d.line[start:d.i], nil
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
// of the line when it is plain ASCII without escapes, else the unescaped
// copy in d.buf.  As in encoding/json, a \u escape of a surrogate that
// is not half of a pair, and each byte of invalid UTF-8, become U+FFFD.
func (d *frameDecoder) str() ([]byte, error) {
	d.i++ // the opening quote
	start := d.i
	for d.i < len(d.line) {
		c := d.line[d.i]
		if c == '"' {
			d.i++
			return d.line[start : d.i-1], nil
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
		d.i++
	}
	b := append(d.buf[:0], d.line[start:d.i]...)
	for {
		c := d.peek()
		switch {
		case d.i == len(d.line):
			return nil, d.fail("unterminated string")
		case c == '"':
			d.i++
			d.buf = b
			return b, nil
		case c < ' ':
			return nil, d.fail("control byte %#x in a string", c)
		case c == '\\' && d.i+1 < len(d.line) && unescape[d.line[d.i+1]] != 0:
			b = append(b, unescape[d.line[d.i+1]])
			d.i += 2
		case c == '\\':
			r := hex4(d.line[d.i:])
			if r < 0 {
				return nil, d.fail("bad escape")
			}
			d.i += 6
			if utf16.IsSurrogate(r) {
				if pair := utf16.DecodeRune(r, hex4(d.line[d.i:])); pair != utf8.RuneError {
					r = pair
					d.i += 6
				} else {
					r = utf8.RuneError
				}
			}
			b = utf8.AppendRune(b, r)
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.i++
		default:
			r, size := utf8.DecodeRune(d.line[d.i:])
			b = utf8.AppendRune(b, r)
			d.i += size
		}
	}
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
