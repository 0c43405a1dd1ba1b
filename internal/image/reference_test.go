package image

// The codec this package's Encode and Decode replaced, kept here as a
// reference: fmt per line and record, a []byte payload per record, and a
// string copy of every line and payload on decode.  On the same input
// the two must accept and reject alike, with the same error text, and
// decode to equal images; on the same image they must encode the same
// bytes.  FuzzImageCodec holds them to that.

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"es/internal/core"
)

// refEncode is the reference Encode.
func refEncode(img *Image) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %d\n", magic, FormatVersion)
	header := func(key, val string) {
		fmt.Fprintf(&b, "h %s %d\n%s\n", key, len(val), val)
	}
	if img.Es != "" {
		header("es", img.Es)
	}
	keys := make([]string, 0, len(img.Meta))
	for k := range img.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		header(k, img.Meta[k])
	}
	fmt.Fprintf(&b, "s vars %d\n", len(img.Vars))
	for _, r := range img.Vars {
		p := refVarPayload(r)
		fmt.Fprintf(&b, "r %d\n", len(p))
		b.Write(p)
		b.WriteByte('\n')
	}
	if img.Dir != "" {
		fmt.Fprintf(&b, "s cwd 1\nr %d\n%s\n", len(img.Dir), img.Dir)
	}
	fmt.Fprintf(&b, "t crc32 %08x\n", crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

func refVarPayload(r core.VarRecord) []byte {
	var flags strings.Builder
	if r.NoExport {
		flags.WriteByte('n')
	}
	if r.Phantom {
		flags.WriteByte('p')
	}
	if r.Empty {
		flags.WriteByte('e')
	}
	if flags.Len() == 0 {
		flags.WriteByte('-')
	}
	return []byte(flags.String() + " " + strconv.Itoa(len(r.Name)) + " " + r.Name + r.Value)
}

func refParseVarPayload(p []byte) (core.VarRecord, error) {
	s := string(p)
	sp1 := strings.IndexByte(s, ' ')
	if sp1 <= 0 {
		return core.VarRecord{}, fmt.Errorf("image: malformed var record")
	}
	sp2 := strings.IndexByte(s[sp1+1:], ' ')
	if sp2 < 0 {
		return core.VarRecord{}, fmt.Errorf("image: malformed var record")
	}
	sp2 += sp1 + 1
	nameLen, err := strconv.Atoi(s[sp1+1 : sp2])
	if err != nil || nameLen < 0 || nameLen > len(s)-sp2-1 {
		return core.VarRecord{}, fmt.Errorf("image: bad name length in var record")
	}
	rest := s[sp2+1:]
	rec := core.VarRecord{Name: rest[:nameLen], Value: rest[nameLen:]}
	for _, c := range s[:sp1] {
		switch c {
		case 'n':
			rec.NoExport = true
		case 'p':
			rec.Phantom = true
		case 'e':
			rec.Empty = true
		}
	}
	return rec, nil
}

// refDecoder walks the byte stream with newline-framed reads.
type refDecoder struct {
	data []byte
	pos  int
}

func (d *refDecoder) line() (string, error) {
	nl := bytes.IndexByte(d.data[d.pos:], '\n')
	if nl < 0 {
		return "", fmt.Errorf("image: truncated (no newline at byte %d)", d.pos)
	}
	ln := string(d.data[d.pos : d.pos+nl])
	d.pos += nl + 1
	return ln, nil
}

func (d *refDecoder) take(n int) ([]byte, error) {
	if n < 0 || d.pos+n+1 > len(d.data) {
		return nil, fmt.Errorf("image: truncated (record of %d bytes at byte %d)", n, d.pos)
	}
	p := d.data[d.pos : d.pos+n]
	if d.data[d.pos+n] != '\n' {
		return nil, fmt.Errorf("image: bad record framing at byte %d", d.pos+n)
	}
	d.pos += n + 1
	return p, nil
}

func refField2(ln string) (string, string, error) {
	rest := ln[2:]
	sp := strings.IndexByte(rest, ' ')
	if sp <= 0 {
		return "", "", fmt.Errorf("image: malformed line %q", ln)
	}
	return rest[:sp], rest[sp+1:], nil
}

// refDecode is the reference Decode.
func refDecode(data []byte) (*Image, error) {
	d := &refDecoder{data: data}
	first, err := d.line()
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(first, magic+" ") {
		return nil, fmt.Errorf("image: not an es session image (no %s magic)", magic)
	}
	version, err := strconv.Atoi(first[len(magic)+1:])
	if err != nil || version < 1 {
		return nil, fmt.Errorf("image: bad format version %q", first[len(magic)+1:])
	}
	if version > FormatVersion {
		return nil, fmt.Errorf("image: format %d too new (this es reads <= %d)", version, FormatVersion)
	}
	img := &Image{Format: version}
	for {
		trailerStart := d.pos
		ln, err := d.line()
		if err != nil {
			return nil, fmt.Errorf("image: truncated (missing checksum trailer)")
		}
		switch {
		case strings.HasPrefix(ln, "h "):
			key, lenStr, err := refField2(ln)
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(lenStr)
			if err != nil {
				return nil, fmt.Errorf("image: bad header length %q", lenStr)
			}
			val, err := d.take(n)
			if err != nil {
				return nil, err
			}
			if key == "es" {
				img.Es = string(val)
			} else {
				if img.Meta == nil {
					img.Meta = make(map[string]string)
				}
				img.Meta[key] = string(val)
			}
		case strings.HasPrefix(ln, "s "):
			name, countStr, err := refField2(ln)
			if err != nil {
				return nil, err
			}
			count, err := strconv.Atoi(countStr)
			if err != nil || count < 0 {
				return nil, fmt.Errorf("image: bad section count %q", countStr)
			}
			for k := 0; k < count; k++ {
				rl, err := d.line()
				if err != nil {
					return nil, err
				}
				if !strings.HasPrefix(rl, "r ") {
					return nil, fmt.Errorf("image: expected record, got %q", rl)
				}
				n, err := strconv.Atoi(rl[2:])
				if err != nil {
					return nil, fmt.Errorf("image: bad record length %q", rl[2:])
				}
				payload, err := d.take(n)
				if err != nil {
					return nil, err
				}
				switch name {
				case "vars":
					rec, err := refParseVarPayload(payload)
					if err != nil {
						return nil, err
					}
					img.Vars = append(img.Vars, rec)
				case "cwd":
					img.Dir = string(payload)
				}
			}
		case strings.HasPrefix(ln, "t "):
			algo, sumStr, err := refField2(ln)
			if err != nil {
				return nil, err
			}
			if algo != "crc32" {
				return nil, fmt.Errorf("image: unknown checksum %q", algo)
			}
			want, err := strconv.ParseUint(sumStr, 16, 32)
			if err != nil {
				return nil, fmt.Errorf("image: bad checksum %q", sumStr)
			}
			if got := crc32.ChecksumIEEE(data[:trailerStart]); got != uint32(want) {
				return nil, fmt.Errorf("image: checksum mismatch (have %08x, trailer says %08x): corrupted image", got, want)
			}
			if d.pos != len(data) {
				return nil, fmt.Errorf("image: %d trailing bytes after checksum", len(data)-d.pos)
			}
			return img, nil
		default:
			return nil, fmt.Errorf("image: unknown line %q", ln)
		}
	}
}

// FuzzImageCodec holds Encode and Decode to the reference codec, and
// decoding a string (RestoreString's path) and AppendEncode to Decode
// and Encode: the same inputs accepted, with equal images, and rejected,
// with the same error; an accepted image encoded to the reference's
// bytes; and Decode(Encode(img)) giving back img.
func FuzzImageCodec(f *testing.F) {
	seeds := [][]byte{
		goldenImage().Encode(),
		Capture(richInterp(f), nil).Encode(),
		Capture(sessionInterp(f), nil).Encode(),
	}
	for _, data := range seeds {
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
		for _, at := range []int{3, len(data) / 3, len(data) - 5} {
			flipped := bytes.Clone(data)
			flipped[at] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Decode(data)
		ref, refErr := refDecode(data)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("Decode error %v, reference %v", err, refErr)
		}
		var fromString Image
		if serr := fromString.decode(string(data), nil); fmt.Sprint(serr) != fmt.Sprint(err) || err == nil && !reflect.DeepEqual(&fromString, img) {
			t.Fatalf("decoding a string = %+v, %v; Decode %+v, %v", fromString, serr, img, err)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(img, ref) {
			t.Fatalf("Decode = %+v, reference %+v", img, ref)
		}
		enc := img.Encode()
		if want := refEncode(img); !bytes.Equal(enc, want) {
			t.Fatalf("Encode:\n%q\nreference:\n%q", enc, want)
		}
		if appended := img.AppendEncode([]byte("%")); !bytes.Equal(appended[1:], enc) {
			t.Fatalf("AppendEncode after one byte:\n%q\nEncode:\n%q", appended[1:], enc)
		}
		back, err := Decode(enc)
		if err != nil || !reflect.DeepEqual(back, img) {
			t.Fatalf("Decode(Encode(img)) = %+v, %v; img %+v", back, err, img)
		}
	})
}
