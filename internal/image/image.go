// Package image implements the es session image: a versioned,
// checksummed, single-file serialization of one interpreter's definable
// state.
//
// The paper's environment trick — closures unparse to %closure(...)
// strings, so "nearly all shell state can now be encoded in the
// environment" — means a session already has a textual serialization;
// this package frames it into a durable artifact.  An image captures the
// variable table (which holds everything the user can define: plain
// variables, fn- functions, set- settors, and the spoofable fn-%hooks),
// the export/noexport marks the environment cannot carry, and the
// virtual working directory.  It does NOT capture process state:
// background jobs, open descriptors, and the interpreter's caches stay
// behind, and $pid is re-stamped on restore.
//
// # Wire format
//
// An image is a byte stream of newline-framed, length-prefixed records —
// readable with a pager, safe for any payload bytes:
//
//	%esimg 1                    magic and format version
//	h <key> <len>\n<value>      header: creation metadata ("es" = version)
//	s <name> <count>            section holding <count> records
//	r <len>\n<payload>          one record (payload bytes, then newline)
//	t crc32 <8 hex digits>      trailer: checksum of every preceding byte
//
// A vars-section payload is "<flags> <namelen> <name><value>" with flags
// a subset of {n,p,e} (noexport, phantom mark, null value) or "-".  A
// cwd-section payload is the working directory.
//
// # Forward compatibility
//
// Extensions are additive: new header keys, new sections, and new var
// flags may appear in images written by newer implementations of the
// SAME format version, and readers skip what they do not understand
// (record framing makes every section skippable without parsing its
// payloads).  The version in the magic line only changes when the
// framing itself changes, and a reader rejects versions newer than it
// knows — there is nothing safe it could do with them.
package image

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"strconv"
	"strings"

	"es/internal/core"
)

// FormatVersion is the image format this package writes and the newest
// it reads.
const FormatVersion = 1

const magic = "%esimg"

// EsVersion identifies the creating implementation in image headers.
// The prim package sets it to its $&version string at init; it is left
// empty by bare-core users and tests.
var EsVersion string

// Image is one decoded (or to-be-encoded) session image.
type Image struct {
	Format int               // format version (FormatVersion when captured)
	Es     string            // creating implementation, from the "es" header
	Meta   map[string]string // other header metadata, free-form
	Vars   []core.VarRecord  // the definable state, sorted by name
	Dir    string            // virtual working directory ("" = not recorded)
}

// Capture snapshots an interpreter's definable state.  meta may be nil;
// identical state and meta always capture to identical bytes, so
// snapshot → restore → re-snapshot is the identity.
func Capture(i *core.Interp, meta map[string]string) *Image {
	img := &Image{
		Format: FormatVersion,
		Es:     EsVersion,
		Vars:   i.SnapshotVars(),
		Dir:    i.Dir(),
	}
	if len(meta) > 0 {
		img.Meta = make(map[string]string, len(meta))
		for k, v := range meta {
			img.Meta[k] = v
		}
	}
	return img
}

// Restore installs the image's state onto an interpreter, replacing its
// entire definable state (the interpreter's registered primitives and
// builtins are code, not state, and are untouched).  Values install
// lazily through the environment-decode machinery; noexport marks, null
// values, and the working directory are reinstated exactly.  $pid is
// re-stamped with the current process id when the image carried one:
// process identity does not migrate.
func (img *Image) Restore(i *core.Interp) {
	i.RestoreVars(img.Vars)
	if img.Dir != "" {
		i.SetDir(img.Dir)
	}
	for _, r := range img.Vars {
		if r.Name == "pid" && !r.Phantom {
			// SetVarRaw keeps the restored slot's noexport mark, so
			// the captured mark survives the re-stamp.
			i.SetVarRaw("pid", core.StrList(strconv.Itoa(os.Getpid())))
			break
		}
	}
}

// Encode renders the image in the wire format.  Output is deterministic:
// vars arrive sorted from SnapshotVars and meta keys are sorted here.
func (img *Image) Encode() []byte {
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
		p := varPayload(r)
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

func varPayload(r core.VarRecord) []byte {
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

func parseVarPayload(p []byte) (core.VarRecord, error) {
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
			// Unknown flags are additive extensions: ignored, per the
			// forward-compatibility rules above.
		}
	}
	return rec, nil
}

// decoder walks the byte stream with newline-framed reads.
type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) line() (string, error) {
	nl := bytes.IndexByte(d.data[d.pos:], '\n')
	if nl < 0 {
		return "", fmt.Errorf("image: truncated (no newline at byte %d)", d.pos)
	}
	ln := string(d.data[d.pos : d.pos+nl])
	d.pos += nl + 1
	return ln, nil
}

func (d *decoder) take(n int) ([]byte, error) {
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

// field2 splits "k a b" lines into their two operands.
func field2(ln string) (string, string, error) {
	rest := ln[2:]
	sp := strings.IndexByte(rest, ' ')
	if sp <= 0 {
		return "", "", fmt.Errorf("image: malformed line %q", ln)
	}
	return rest[:sp], rest[sp+1:], nil
}

// Decode parses and verifies an encoded image.  It rejects images with a
// newer format version, a wrong checksum, truncation, or trailing bytes;
// unknown sections, header keys, and var flags are skipped.
func Decode(data []byte) (*Image, error) {
	d := &decoder{data: data}
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
			key, lenStr, err := field2(ln)
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
			name, countStr, err := field2(ln)
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
					rec, err := parseVarPayload(payload)
					if err != nil {
						return nil, err
					}
					img.Vars = append(img.Vars, rec)
				case "cwd":
					img.Dir = string(payload)
				default:
					// Unknown section: skipped record by record.
				}
			}
		case strings.HasPrefix(ln, "t "):
			algo, sumStr, err := field2(ln)
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

// WriteFile encodes the image to path (0600: images can hold secrets —
// that is what noexport marks are for).
func WriteFile(path string, img *Image) error {
	return os.WriteFile(path, img.Encode(), 0o600)
}

// ReadFile decodes the image at path.
func ReadFile(path string) (*Image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
