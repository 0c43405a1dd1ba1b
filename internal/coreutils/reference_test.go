package coreutils

// sort, tr and uniq against the algorithms they replaced, kept here as
// references: on the same input, flags and output a builtin must print
// what its reference prints, report the same diagnostics and exit with
// the same status.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
	"testing/iotest"

	"es/internal/core"
)

// refEachLine is the references' line reader: a scanner with the same
// cap, which copies every line into a string.
func refEachLine(c *ctxio, r io.Reader, fn func(line string)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 32*1024), 16*1024*1024)
	for !c.stopped() && sc.Scan() {
		fn(sc.Text())
	}
	return sc.Err()
}

// refSort sorts stably, reading both lines' keys at every comparison.
func refSort(c *ctxio, args []string) int {
	reverse, numeric, unique := false, false, false
	var files []string
	for _, a := range args {
		if strings.HasPrefix(a, "-") && len(a) > 1 {
			for _, f := range a[1:] {
				switch f {
				case 'r':
					reverse = true
				case 'n':
					numeric = true
				case 'u':
					unique = true
				default:
					return c.errorf("unsupported flag -%c", f)
				}
			}
		} else {
			files = append(files, a)
		}
	}
	var lines []string
	status := 0
	c.inputs(files, func(r io.Reader) int {
		if err := refEachLine(c, r, func(l string) { lines = append(lines, l) }); err != nil {
			status = c.errorf("%v", err)
		}
		return 0
	})
	less := func(a, b string) bool { return a < b }
	if numeric {
		less = func(a, b string) bool {
			na, nb := numKey(a), numKey(b)
			if na != nb {
				return na < nb
			}
			return a < b
		}
	}
	sort.SliceStable(lines, func(x, y int) bool {
		if reverse {
			return less(lines[y], lines[x])
		}
		return less(lines[x], lines[y])
	})
	var prev string
	first := true
	for _, l := range lines {
		if unique && !first && l == prev {
			continue
		}
		c.out.WriteString(l)
		c.out.WriteByte('\n')
		prev, first = l, false
	}
	return status
}

// refTr decides membership, translation and squeezing byte by byte, and
// writes one byte at a time.
func refTr(c *ctxio, args []string) int {
	complement, squeeze, del := false, false, false
	for len(args) > 0 && strings.HasPrefix(args[0], "-") && len(args[0]) > 1 {
		for _, f := range args[0][1:] {
			switch f {
			case 'c':
				complement = true
			case 's':
				squeeze = true
			case 'd':
				del = true
			default:
				return c.errorf("unsupported flag -%c", f)
			}
		}
		args = args[1:]
	}
	if len(args) < 1 {
		return c.errorf("missing operand")
	}
	set1 := expandTrSet(args[0])
	var set2 []byte
	if len(args) > 1 {
		set2 = expandTrSet(args[1])
	}
	inSet := make([]bool, 256)
	for _, b := range set1 {
		inSet[b] = true
	}
	member := func(b byte) bool { return inSet[b] != complement }
	var xlat [256]byte
	for i := 0; i < 256; i++ {
		xlat[i] = byte(i)
	}
	if len(set2) > 0 && !del {
		if complement {
			last := set2[len(set2)-1]
			for i := 0; i < 256; i++ {
				if member(byte(i)) {
					xlat[i] = last
				}
			}
		} else {
			for i, b := range set1 {
				j := i
				if j >= len(set2) {
					j = len(set2) - 1
				}
				xlat[b] = set2[j]
			}
		}
	}
	lastOut := -1
	buf := make([]byte, 32*1024)
	return c.inputs(nil, func(r io.Reader) int {
		for {
			n, err := r.Read(buf)
			for _, b := range buf[:n] {
				if del && member(b) {
					continue
				}
				ob := b
				if member(b) {
					ob = xlat[b]
				}
				if squeeze && member(b) && int(ob) == lastOut {
					continue
				}
				c.out.WriteByte(ob)
				lastOut = int(ob)
			}
			if err != nil || c.stopped() {
				return 0
			}
		}
	})
}

// refUniq keeps each line as a string and prints counts with Fprintf.
func refUniq(c *ctxio, args []string) int {
	count := false
	var files []string
	for _, a := range args {
		switch a {
		case "-c":
			count = true
		default:
			files = append(files, a)
		}
	}
	var prev string
	n := 0
	flush := func() {
		if n == 0 {
			return
		}
		if count {
			fmt.Fprintf(c.out, "%7d %s\n", n, prev)
		} else {
			c.out.WriteString(prev)
			c.out.WriteByte('\n')
		}
	}
	status := 0
	c.inputs(files, func(r io.Reader) int {
		err := refEachLine(c, r, func(l string) {
			if n > 0 && l == prev {
				n++
				return
			}
			flush()
			prev, n = l, 1
		})
		if err != nil {
			status = c.errorf("%v", err)
		}
		return 0
	})
	flush()
	return status
}

var references = map[string]func(c *ctxio, args []string) int{
	"sort": refSort,
	"tr":   refTr,
	"uniq": refUniq,
}

// trFlags are the flag words the tests give tr.
var trFlags = []string{"", "-c", "-s", "-d", "-cs", "-ds"}

// trSets are set operands: ranges, escapes, a range ending at byte 255,
// an empty range, and bytes above 0x7f.
var trSets = [][2]string{
	{"a-z", "A-Z"},
	{"a-zA-Z0-9", `\012`},
	{`\n`, " "},
	{"abc", "xy"},
	{` \t`, `\\`},
	{`\101-Z`, "a-z"},
	{"0-9.", "#"},
	{"\x80-\xff", "?"},
	{"a-\xff", "x"},
	{"z-a", "q"},
	{`\r`, ""},
}

// textArgvs is every command line the differential test runs.
func textArgvs() [][]string {
	argvs := [][]string{
		{"sort"}, {"sort", "-n"}, {"sort", "-r"}, {"sort", "-u"}, {"sort", "-nr"}, {"sort", "-nu"},
		{"uniq"}, {"uniq", "-c"},
	}
	for _, f := range trFlags {
		for _, s := range trSets {
			argv := []string{"tr"}
			if f != "" {
				argv = append(argv, f)
			}
			argv = append(argv, s[0])
			if s[1] != "" {
				argv = append(argv, s[1])
			}
			argvs = append(argvs, argv)
		}
	}
	return argvs
}

// textLines are the pieces the generated inputs are made of: repeated
// words, empty lines, numeric prefixes with blanks, signs and dots, a
// number that overflows a float64, bytes above 0x7f, and carriage
// returns inside a line and at its end.
var textLines = []string{
	"pear", "fig", "Fig", "kiwi", "pear", "fig", "", "",
	" 12", "\t-3.5x", "+5", "3.2.1", "10-5", "-.5", ".", "-", "007", "1e5",
	"0x10", "  7 apples", "-0", "0", " -", "5.", strings.Repeat("9", 400),
	"\xff\xfe", "caf\xc3\xa9", "a\rb", "cr\r", "one, two;  three.", "\t",
}

// textInput generates an input of up to lines lines: some end in \r\n,
// some run into the next, and the last may have no newline.
func textInput(r *rand.Rand, lines int) string {
	var b strings.Builder
	for k := r.IntN(lines + 1); k > 0; k-- {
		b.WriteString(textLines[r.IntN(len(textLines))])
		switch r.IntN(8) {
		case 0:
			b.WriteString("\r\n")
		case 1:
		default:
			b.WriteByte('\n')
		}
	}
	if r.IntN(3) == 0 {
		b.WriteString(textLines[r.IntN(len(textLines))])
	}
	return b.String()
}

var (
	errRead  = errors.New("read failed")
	errWrite = errors.New("write failed")
)

// shortWriter takes n more bytes, then fails.
type shortWriter struct {
	w io.Writer
	n int
}

func (s *shortWriter) Write(p []byte) (int, error) {
	if len(p) <= s.n {
		s.n -= len(p)
		return s.w.Write(p)
	}
	k, _ := s.w.Write(p[:s.n])
	s.n = 0
	return k, errWrite
}

// textRun is one run of a builtin: its input, whether reading fails
// after it, and how many bytes its output takes before failing (none
// when negative).
type textRun struct {
	argv       []string
	input      string
	readFails  bool
	writeLimit int
}

func (tc textRun) String() string {
	return fmt.Sprintf("%q < %q (read fails %v, write limit %d)", tc.argv, tc.input, tc.readFails, tc.writeLimit)
}

func (tc textRun) run(i *core.Interp, fn core.BuiltinFunc) (stdout, stderr string, status int) {
	var r io.Reader = strings.NewReader(tc.input)
	if tc.readFails {
		r = io.MultiReader(r, iotest.ErrReader(errRead))
	}
	var out, errw bytes.Buffer
	var w io.Writer = &out
	if tc.writeLimit >= 0 {
		w = &shortWriter{w: &out, n: tc.writeLimit}
	}
	status = fn(i, &core.Ctx{IO: core.NewIOTable(r, w, &errw)}, tc.argv)
	return out.String(), errw.String(), status
}

// sameAsReference fails the test unless the builtin and its reference
// print the same and exit alike on tc.
func sameAsReference(t *testing.T, i *core.Interp, tc textRun) {
	t.Helper()
	name := tc.argv[0]
	out, errs, status := tc.run(i, i.Builtin(name))
	wout, werrs, wstatus := tc.run(i, wrap(name, references[name]))
	if out != wout || errs != werrs || status != wstatus {
		t.Fatalf("%v:\n got %q, stderr %q, status %d\nwant %q, stderr %q, status %d",
			tc, out, errs, status, wout, werrs, wstatus)
	}
}

// TestTextBuiltinsMatchReferences runs every command line over seeded
// inputs, small and large (past the 32 KiB read buffer and the 4 KiB
// output buffer), with reads and writes that fail.
func TestTextBuiltinsMatchReferences(t *testing.T) {
	i := newI(t)
	r := rand.New(rand.NewPCG(25, 0))
	for _, argv := range textArgvs() {
		for k := 0; k < 40; k++ {
			lines := 12
			if k%8 == 7 {
				lines = 6000
			}
			run := textRun{argv: argv, input: textInput(r, lines), writeLimit: -1}
			if k%5 == 4 {
				run.readFails = true
			}
			if k%7 == 6 {
				run.writeLimit = r.IntN(len(run.input) + 1)
			}
			sameAsReference(t, i, run)
		}
	}
}

// FuzzTextBuiltins runs a builtin and its reference on the fuzzer's
// input.  tool picks the command line; with tr, set1 and set2, when set1
// is not empty, replace its sets.
func FuzzTextBuiltins(f *testing.F) {
	f.Add([]byte("b\na\r\nb\n\n10-5\n 3.2.1\n+5\n\xff"), uint8(0), "", "", false, int16(-1))
	f.Add([]byte("the cat, the hat\n"), uint8(9), "a-z", `\012`, false, int16(-1))
	f.Add([]byte("a\na\nb"), uint8(7), "", "", true, int16(3))
	f.Add([]byte("abc\xff"), uint8(20), "a-\xff", "x", false, int16(-1))
	argvs := textArgvs()
	i := core.New()
	Register(i)
	f.Fuzz(func(t *testing.T, input []byte, tool uint8, set1, set2 string, readFails bool, writeLimit int16) {
		argv := argvs[int(tool)%len(argvs)]
		if argv[0] == "tr" && set1 != "" {
			argv = []string{"tr"}
			if flag := trFlags[int(tool)%len(trFlags)]; flag != "" {
				argv = append(argv, flag)
			}
			argv = append(argv, set1)
			if set2 != "" {
				argv = append(argv, set2)
			}
		}
		sameAsReference(t, i, textRun{argv: argv, input: string(input), readFails: readFails, writeLimit: int(writeLimit)})
	})
}
