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
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"

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

// records holds the record slices AppendCapture and RestoreString work
// in, cleared before they go back so the pool pins no state.
var records = sync.Pool{New: func() any { return new([]core.VarRecord) }}

// AppendCapture appends the encoding of i's definable state to b, the
// bytes Capture(i, nil).Encode() returns, with its records in pooled
// scratch.
func AppendCapture(b []byte, i *core.Interp) []byte {
	recs := records.Get().(*[]core.VarRecord)
	img := Image{Format: FormatVersion, Es: EsVersion, Vars: i.AppendSnapshotVars((*recs)[:0]), Dir: i.Dir()}
	b = img.AppendEncode(b)
	clear(img.Vars)
	*recs = img.Vars[:0]
	records.Put(recs)
	return b
}

// RestoreString decodes the image held in data and restores it onto i,
// as Decode and Restore do, with its records in pooled scratch: i keeps
// data, which it does not copy, and the rest is garbage.  An image that
// does not decode leaves i as it was.
func RestoreString(i *core.Interp, data string) error {
	recs := records.Get().(*[]core.VarRecord)
	img := Image{Vars: (*recs)[:0]}
	err := img.decode(data, nil)
	if err == nil {
		img.Restore(i)
	}
	clear(img.Vars)
	*recs = img.Vars[:0]
	records.Put(recs)
	return err
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
// It appends every line into one buffer, sized from the records first.
func (img *Image) Encode() []byte { return img.AppendEncode(nil) }

// AppendEncode appends the image's encoding to b, growing b at most once,
// to the size the records need, and returns the extended buffer.
func (img *Image) AppendEncode(b []byte) []byte {
	keys := make([]string, 0, len(img.Meta))
	for k := range img.Meta {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	n := len(magic) + 1 + decLen(FormatVersion) + 1 +
		len("s vars \n") + decLen(len(img.Vars)) + len("t crc32 01234567\n")
	if img.Es != "" {
		n += headerLen("es", img.Es)
	}
	for _, k := range keys {
		n += headerLen(k, img.Meta[k])
	}
	for k := range img.Vars {
		n += recordLen(payloadLen(&img.Vars[k]))
	}
	if img.Dir != "" {
		n += len("s cwd 1\n") + recordLen(len(img.Dir))
	}

	if cap(b)-len(b) < n {
		b = append(make([]byte, 0, len(b)+n), b...)
	}
	start := len(b)
	b = append(append(b, magic...), ' ')
	b = append(strconv.AppendInt(b, FormatVersion, 10), '\n')
	if img.Es != "" {
		b = appendHeader(b, "es", img.Es)
	}
	for _, k := range keys {
		b = appendHeader(b, k, img.Meta[k])
	}
	b = append(strconv.AppendInt(append(b, "s vars "...), int64(len(img.Vars)), 10), '\n')
	for k := range img.Vars {
		r := &img.Vars[k]
		b = appendRecordHead(b, payloadLen(r))
		b = append(append(b, flags(r)...), ' ')
		b = append(strconv.AppendInt(b, int64(len(r.Name)), 10), ' ')
		b = append(append(append(b, r.Name...), r.Value...), '\n')
	}
	if img.Dir != "" {
		b = appendRecordHead(append(b, "s cwd 1\n"...), len(img.Dir))
		b = append(append(b, img.Dir...), '\n')
	}
	sum := crc32.ChecksumIEEE(b[start:])
	b = append(b, "t crc32 "...)
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[sum>>shift&0xf])
	}
	return append(b, '\n')
}

// decLen is the number of decimal digits in n >= 0.
func decLen(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// headerLen is the encoded size of one header: "h <key> <len>\n<val>\n".
func headerLen(key, val string) int {
	return len("h  \n\n") + len(key) + decLen(len(val)) + len(val)
}

func appendHeader(b []byte, key, val string) []byte {
	b = append(append(append(b, "h "...), key...), ' ')
	b = append(strconv.AppendInt(b, int64(len(val)), 10), '\n')
	return append(append(b, val...), '\n')
}

// recordLen is the encoded size of a record of n payload bytes:
// "r <n>\n<payload>\n".
func recordLen(n int) int { return len("r \n\n") + decLen(n) + n }

func appendRecordHead(b []byte, n int) []byte {
	return append(strconv.AppendInt(append(b, "r "...), int64(n), 10), '\n')
}

// payloadLen is the size of r's vars payload: "<flags> <namelen> <name><value>".
func payloadLen(r *core.VarRecord) int {
	return len(flags(r)) + 1 + decLen(len(r.Name)) + 1 + len(r.Name) + len(r.Value)
}

// flagText holds every set of var flags as written, indexed by the
// noexport, phantom and empty bits.
var flagText = [8]string{"-", "e", "p", "pe", "n", "ne", "np", "npe"}

// flags returns r's flags: a subset of "npe" in that order, or "-".
func flags(r *core.VarRecord) string {
	k := 0
	if r.NoExport {
		k |= 4
	}
	if r.Phantom {
		k |= 2
	}
	if r.Empty {
		k |= 1
	}
	return flagText[k]
}

// parseVarPayload reads one vars payload; its name and value are
// substrings of p.
func parseVarPayload(p string) (core.VarRecord, error) {
	sp1 := strings.IndexByte(p, ' ')
	if sp1 <= 0 {
		return core.VarRecord{}, fmt.Errorf("image: malformed var record")
	}
	sp2 := strings.IndexByte(p[sp1+1:], ' ')
	if sp2 < 0 {
		return core.VarRecord{}, fmt.Errorf("image: malformed var record")
	}
	sp2 += sp1 + 1
	nameLen, err := strconv.Atoi(p[sp1+1 : sp2])
	if err != nil || nameLen < 0 || nameLen > len(p)-sp2-1 {
		return core.VarRecord{}, fmt.Errorf("image: bad name length in var record")
	}
	rest := p[sp2+1:]
	rec := core.VarRecord{Name: rest[:nameLen], Value: rest[nameLen:]}
	for _, c := range p[:sp1] {
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

// decoder walks the image, held as one string, with newline-framed
// reads; every line and payload it returns is a substring of it.
type decoder struct {
	data string
	pos  int
}

func (d *decoder) line() (string, error) {
	nl := strings.IndexByte(d.data[d.pos:], '\n')
	if nl < 0 {
		return "", fmt.Errorf("image: truncated (no newline at byte %d)", d.pos)
	}
	ln := d.data[d.pos : d.pos+nl]
	d.pos += nl + 1
	return ln, nil
}

func (d *decoder) take(n int) (string, error) {
	if n < 0 || d.pos+n+1 > len(d.data) {
		return "", fmt.Errorf("image: truncated (record of %d bytes at byte %d)", n, d.pos)
	}
	p := d.data[d.pos : d.pos+n]
	if d.data[d.pos+n] != '\n' {
		return "", fmt.Errorf("image: bad record framing at byte %d", d.pos+n)
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

// minRecord is the size of the shortest record, "r 0\n\n".
const minRecord = len("r 0\n\n")

// Decode parses and verifies an encoded image.  It rejects images with a
// newer format version, a wrong checksum, truncation, or trailing bytes;
// unknown sections, header keys, and var flags are skipped.  It copies
// data into one string, and every name, value, header and the directory
// of the image are substrings of it: the string lives as long as any of
// them, a restored slot included.
func Decode(data []byte) (*Image, error) {
	img := new(Image)
	if err := img.decode(string(data), data); err != nil {
		return nil, err
	}
	return img, nil
}

// decode fills img, whose Vars may hold a slice to append the records
// to, from the image in data, which it does not copy; raw is data as
// bytes, or nil.
func (img *Image) decode(data string, raw []byte) error {
	d := &decoder{data: data}
	first, err := d.line()
	if err != nil {
		return err
	}
	if !strings.HasPrefix(first, magic+" ") {
		return fmt.Errorf("image: not an es session image (no %s magic)", magic)
	}
	version, err := strconv.Atoi(first[len(magic)+1:])
	if err != nil || version < 1 {
		return fmt.Errorf("image: bad format version %q", first[len(magic)+1:])
	}
	if version > FormatVersion {
		return fmt.Errorf("image: format %d too new (this es reads <= %d)", version, FormatVersion)
	}
	img.Format = version
	for {
		trailerStart := d.pos
		ln, err := d.line()
		if err != nil {
			return fmt.Errorf("image: truncated (missing checksum trailer)")
		}
		switch {
		case strings.HasPrefix(ln, "h "):
			key, lenStr, err := field2(ln)
			if err != nil {
				return err
			}
			n, err := strconv.Atoi(lenStr)
			if err != nil {
				return fmt.Errorf("image: bad header length %q", lenStr)
			}
			val, err := d.take(n)
			if err != nil {
				return err
			}
			if key == "es" {
				img.Es = val
			} else {
				if img.Meta == nil {
					img.Meta = make(map[string]string)
				}
				img.Meta[key] = val
			}
		case strings.HasPrefix(ln, "s "):
			name, countStr, err := field2(ln)
			if err != nil {
				return err
			}
			count, err := strconv.Atoi(countStr)
			if err != nil || count < 0 {
				return fmt.Errorf("image: bad section count %q", countStr)
			}
			if name == "vars" && len(img.Vars) == 0 {
				// The count is the sender's word; the bytes left bound
				// how many records there can be.
				if n := min(count, (len(d.data)-d.pos)/minRecord); n > cap(img.Vars) {
					img.Vars = make([]core.VarRecord, 0, n)
				}
			}
			for k := 0; k < count; k++ {
				rl, err := d.line()
				if err != nil {
					return err
				}
				if !strings.HasPrefix(rl, "r ") {
					return fmt.Errorf("image: expected record, got %q", rl)
				}
				n, err := strconv.Atoi(rl[2:])
				if err != nil {
					return fmt.Errorf("image: bad record length %q", rl[2:])
				}
				payload, err := d.take(n)
				if err != nil {
					return err
				}
				switch name {
				case "vars":
					rec, err := parseVarPayload(payload)
					if err != nil {
						return err
					}
					img.Vars = append(img.Vars, rec)
				case "cwd":
					img.Dir = payload
				default:
					// Unknown section: skipped record by record.
				}
			}
		case strings.HasPrefix(ln, "t "):
			algo, sumStr, err := field2(ln)
			if err != nil {
				return err
			}
			if algo != "crc32" {
				return fmt.Errorf("image: unknown checksum %q", algo)
			}
			want, err := strconv.ParseUint(sumStr, 16, 32)
			if err != nil {
				return fmt.Errorf("image: bad checksum %q", sumStr)
			}
			if got := checksum(data[:trailerStart], raw); got != uint32(want) {
				return fmt.Errorf("image: checksum mismatch (have %08x, trailer says %08x): corrupted image", got, want)
			}
			if d.pos != len(data) {
				return fmt.Errorf("image: %d trailing bytes after checksum", len(data)-d.pos)
			}
			return nil
		default:
			return fmt.Errorf("image: unknown line %q", ln)
		}
	}
}

// crcBufs holds the buffers checksum feeds a string to crc32 through.
// crc32 lets any slice it is handed escape, so a buffer on the stack would
// be allocated on every call.
var crcBufs = sync.Pool{New: func() any { return new([1 << 10]byte) }}

// checksum is the IEEE CRC-32 of s: of the first len(s) bytes of raw,
// which holds s when it is not nil, else of s copied through a pooled
// buffer rather than converted to a []byte whole.
func checksum(s string, raw []byte) uint32 {
	if raw != nil {
		return crc32.ChecksumIEEE(raw[:len(s)])
	}
	buf := crcBufs.Get().(*[1 << 10]byte)
	defer crcBufs.Put(buf)
	var sum uint32
	for len(s) > 0 {
		n := copy(buf[:], s)
		sum = crc32.Update(sum, crc32.IEEETable, buf[:n])
		s = s[n:]
	}
	return sum
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
