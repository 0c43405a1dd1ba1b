package coreutils

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"es/internal/core"
)

func registerText(i *core.Interp) {
	i.RegisterBuiltin("cat", wrap("cat", builtinCat))
	i.RegisterBuiltin("tr", wrap("tr", builtinTr))
	i.RegisterBuiltin("sort", wrap("sort", builtinSort))
	i.RegisterBuiltin("uniq", wrap("uniq", builtinUniq))
	i.RegisterBuiltin("sed", wrap("sed", builtinSed))
	i.RegisterBuiltin("grep", wrap("grep", builtinGrep))
	i.RegisterBuiltin("head", wrap("head", builtinHead))
	i.RegisterBuiltin("tail", wrap("tail", builtinTail))
	i.RegisterBuiltin("wc", wrap("wc", builtinWc))
	i.RegisterBuiltin("tee", wrap("tee", builtinTee))
	i.RegisterBuiltin("cut", wrap("cut", builtinCut))
	i.RegisterBuiltin("rev", wrap("rev", builtinRev))
	i.RegisterBuiltin("tac", wrap("tac", builtinTac))
	i.RegisterBuiltin("nl", wrap("nl", builtinNl))
	i.RegisterBuiltin("cmp", wrap("cmp", builtinCmp))
}

func openFile(c *ctxio, name string) (*os.File, error) {
	return os.Open(c.resolve(name))
}

func builtinCat(c *ctxio, args []string) int {
	return c.inputs(args, func(r io.Reader) int {
		// A failed write is wrap's to report.
		if err := copyBorrowed(c.out, r); err != nil && !c.stopped() {
			return c.errorf("%v", err)
		}
		return 0
	})
}

// builtinTr supports the paper's usage: tr [-cs] set1 [set2], with
// character classes a-z ranges and backslash escapes (\012 octal, \n, \t).
func builtinTr(c *ctxio, args []string) int {
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
	t := newTrTable(set1, set2, complement, squeeze, del)
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	buf := *bp
	last := -1 // the last byte written, for -s
	return c.inputs(nil, func(r io.Reader) int {
		for {
			n, err := r.Read(buf)
			// Translate in place: the output of a read is never longer
			// than the read.
			w := 0
			for _, b := range buf[:n] {
				op := t[b]
				if op.drop || op.squeeze && int(op.to) == last {
					continue
				}
				buf[w] = op.to
				w++
				last = int(op.to)
			}
			c.out.Write(buf[:w])
			if err != nil || c.stopped() {
				return 0
			}
		}
	})
}

// trOp is what tr does with one input byte: drop it, or write its
// translation to, unless -s squeezes that into the same byte written
// just before it.
type trOp struct {
	to            byte
	drop, squeeze bool
}

// newTrTable makes tr's table for every byte value.  The members are
// set1's bytes, or with -c every other byte.  A member maps to the byte
// at its position in set2 (set2's last byte repeats); with -c every
// member maps to set2's last byte, per POSIX.  -d drops members and
// translates nothing; -s squeezes members.
func newTrTable(set1, set2 []byte, complement, squeeze, del bool) (t [256]trOp) {
	var inSet1 [256]bool
	for _, b := range set1 {
		inSet1[b] = true
	}
	for b := range t {
		m := inSet1[b] != complement
		t[b] = trOp{to: byte(b), drop: del && m, squeeze: squeeze && m}
	}
	if len(set2) == 0 || del {
		return t
	}
	if complement {
		for b := range t {
			if !inSet1[b] {
				t[b].to = set2[len(set2)-1]
			}
		}
		return t
	}
	for k, b := range set1 {
		t[b].to = set2[min(k, len(set2)-1)]
	}
	return t
}

// expandTrSet expands ranges (a-z) and escapes (\012, \n, \t) in a tr set.
func expandTrSet(s string) []byte {
	var out []byte
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if ch == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				ch = '\n'
			case 't':
				ch = '\t'
			case '\\':
				ch = '\\'
			default:
				if s[i] >= '0' && s[i] <= '7' {
					v := 0
					for j := 0; j < 3 && i < len(s) && s[i] >= '0' && s[i] <= '7'; j++ {
						v = v*8 + int(s[i]-'0')
						i++
					}
					i--
					ch = byte(v)
				} else {
					ch = s[i]
				}
			}
		}
		if i+2 < len(s) && s[i+1] == '-' && s[i+2] != '\\' {
			// Count in an int: a range that ends at byte 255 would wrap
			// a byte counter back to 0 and never end.
			for b := int(ch); b <= int(s[i+2]); b++ {
				out = append(out, byte(b))
			}
			i += 2
			continue
		}
		out = append(out, ch)
	}
	return out
}

func builtinSort(c *ctxio, args []string) int {
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
	// Every line goes into one string, each followed by its newline, and
	// the lines to sort are substrings of it.
	var text strings.Builder
	n, status := 0, 0
	c.inputs(files, func(r io.Reader) int {
		err := c.eachLine(r, func(l []byte) {
			text.Write(l)
			text.WriteByte('\n')
			n++
		})
		if err != nil {
			status = c.errorf("%v", err)
		}
		return 0
	})
	lines := make([]string, n)
	rest := text.String()
	for k := range lines {
		lines[k], rest, _ = strings.Cut(rest, "\n")
	}
	// Ties compare whole lines, so only identical lines tie: the sort
	// need not be stable, and -r is the ascending order reversed.
	if numeric {
		keyed := make([]numLine, n)
		for k, l := range lines {
			keyed[k] = numLine{numKey(l), l}
		}
		slices.SortFunc(keyed, func(a, b numLine) int {
			if order := cmp.Compare(a.key, b.key); order != 0 {
				return order
			}
			return strings.Compare(a.line, b.line)
		})
		for k := range keyed {
			lines[k] = keyed[k].line
		}
	} else {
		slices.Sort(lines)
	}
	if reverse {
		slices.Reverse(lines)
	}
	for k, l := range lines {
		if unique && k > 0 && l == lines[k-1] {
			continue
		}
		c.out.WriteString(l)
		c.out.WriteByte('\n')
	}
	return status
}

// numLine is a line and the number sort -n reads at its start.
type numLine struct {
	key  float64
	line string
}

// numKey reads the initial numeric string of a line, as POSIX sort -n
// does: blanks, an optional minus sign, digits, and an optional decimal
// point followed by more digits.  A line with no digits there, which
// ParseFloat rejects, or whose number overflows a float64, reads as 0.
func numKey(s string) float64 {
	s = strings.TrimLeft(s, " \t")
	end := 0
	if end < len(s) && s[end] == '-' {
		end++
	}
	for end < len(s) && s[end] >= '0' && s[end] <= '9' {
		end++
	}
	if end < len(s) && s[end] == '.' {
		end++
		for end < len(s) && s[end] >= '0' && s[end] <= '9' {
			end++
		}
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		return 0
	}
	return v
}

func builtinUniq(c *ctxio, args []string) int {
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
	var prev []byte // a copy: the line reader reuses its buffer
	n := 0
	flush := func() {
		if n == 0 {
			return
		}
		if count {
			c.out.Write(appendCount(c.out.AvailableBuffer(), n))
		}
		c.out.Write(prev)
		c.out.WriteByte('\n')
	}
	status := 0
	c.inputs(files, func(r io.Reader) int {
		err := c.eachLine(r, func(l []byte) {
			if n > 0 && bytes.Equal(l, prev) {
				n++
				return
			}
			flush()
			prev, n = append(prev[:0], l...), 1
		})
		if err != nil {
			status = c.errorf("%v", err)
		}
		return 0
	})
	flush()
	return status
}

// appendCount appends uniq -c's count field, n as printf's "%7d " would
// write it.
func appendCount(b []byte, n int) []byte {
	for w := 10; w <= 1e6; w *= 10 {
		if n < w {
			b = append(b, ' ')
		}
	}
	return append(strconv.AppendInt(b, int64(n), 10), ' ')
}

// builtinSed supports the small command subset the paper and common
// scripts use: Nq (quit after N lines), s/re/repl/[g], /re/d, N,Md, p
// with -n.
func builtinSed(c *ctxio, args []string) int {
	noPrint := false
	for len(args) > 0 && args[0] == "-n" {
		noPrint = true
		args = args[1:]
	}
	if len(args) == 0 {
		return c.errorf("missing script")
	}
	script := args[0]
	files := args[1:]

	var each func(l []byte)
	// limit is how many more lines sed reads; only Nq sets one.
	limit := -1
	if digits, ok := sedQuit(script); ok {
		// Nq: quit after printing N lines.
		limit = 1
		if digits != "" {
			limit, _ = strconv.Atoi(digits)
		}
		each = func(l []byte) {
			c.out.Write(l)
			c.out.WriteByte('\n')
			limit--
		}
	} else if strings.HasPrefix(script, "s") && len(script) > 1 {
		// s/re/repl/[g]
		sep := script[1]
		parts := strings.Split(script[2:], string(sep))
		if len(parts) < 2 {
			return c.errorf("bad substitution: %s", script)
		}
		re, err := regexp.Compile(parts[0])
		if err != nil {
			return c.errorf("bad pattern: %v", err)
		}
		repl := strings.ReplaceAll(parts[1], "\\", "$")
		global := len(parts) > 2 && strings.Contains(parts[2], "g")
		each = func(line []byte) {
			l := string(line)
			if global {
				l = re.ReplaceAllString(l, repl)
			} else if loc := re.FindStringIndex(l); loc != nil {
				l = l[:loc[0]] + re.ReplaceAllString(l[loc[0]:loc[1]], repl) + l[loc[1]:]
			}
			if !noPrint {
				c.out.WriteString(l)
				c.out.WriteByte('\n')
			}
		}
	} else if pat, cmd, ok := sedAddress(script); ok {
		// /re/d and /re/p
		re, err := regexp.Compile(pat)
		if err != nil {
			return c.errorf("bad pattern: %v", err)
		}
		del := cmd == 'd'
		each = func(l []byte) {
			match := re.Match(l)
			switch {
			case del && match:
			case !del && match && !noPrint:
				// /re/p prints a match once more.
				c.out.Write(l)
				c.out.WriteByte('\n')
				fallthrough
			case !del && match, !noPrint:
				c.out.Write(l)
				c.out.WriteByte('\n')
			}
		}
	} else {
		return c.errorf("unsupported script: %s", script)
	}
	status := 0
	c.inputs(files, func(r io.Reader) int {
		if err := c.firstLines(r, limit, each); err != nil {
			status = c.errorf("%v", err)
		}
		return 0
	})
	return status
}

// sedQuit recognises the Nq script: exactly the scripts ^(\d*)q$
// matches, returning N's digits.  It is hand-written: compiled per call,
// the regexp would cost more than a short sed call, and compiled at
// package init it would charge every es and esd start.
func sedQuit(script string) (digits string, ok bool) {
	digits, ok = strings.CutSuffix(script, "q")
	if !ok {
		return "", false
	}
	for k := 0; k < len(digits); k++ {
		if digits[k] < '0' || digits[k] > '9' {
			return "", false
		}
	}
	return digits, true
}

// sedAddress recognises the /re/d and /re/p scripts: exactly the scripts
// ^/(.*)/([dp])$ matches, so the pattern holds no newline.
func sedAddress(script string) (pat string, cmd byte, ok bool) {
	n := len(script)
	if n < 3 || script[0] != '/' || script[n-2] != '/' || (script[n-1] != 'd' && script[n-1] != 'p') {
		return "", 0, false
	}
	pat = script[1 : n-2]
	if strings.Contains(pat, "\n") {
		return "", 0, false
	}
	return pat, script[n-1], true
}

func builtinGrep(c *ctxio, args []string) int {
	invert, ignore, count, quiet := false, false, false, false
	for len(args) > 0 && strings.HasPrefix(args[0], "-") && len(args[0]) > 1 {
		for _, f := range args[0][1:] {
			switch f {
			case 'v':
				invert = true
			case 'i':
				ignore = true
			case 'c':
				count = true
			case 'q':
				quiet = true
			default:
				return c.errorf("unsupported flag -%c", f)
			}
		}
		args = args[1:]
	}
	if len(args) == 0 {
		return c.errorf("missing pattern")
	}
	pat := args[0]
	if ignore {
		pat = "(?i)" + pat
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return c.errorf("bad pattern: %v", err)
	}
	matched, failed, n := false, false, 0
	c.inputs(args[1:], func(r io.Reader) int {
		err := c.eachLine(r, func(l []byte) {
			if re.Match(l) != invert {
				matched = true
				n++
				if !count && !quiet {
					c.out.Write(l)
					c.out.WriteByte('\n')
				}
			}
		})
		if err != nil {
			c.errorf("%v", err)
			failed = true
		}
		return 0
	})
	if count {
		fmt.Fprintf(c.out, "%d\n", n)
	}
	if failed {
		return 2 // 1 means no line matched
	}
	if matched {
		return 0
	}
	return 1
}

func headTailCount(args []string) (int, []string, bool) {
	n := 10
	var files []string
	for k := 0; k < len(args); k++ {
		a := args[k]
		switch {
		case a == "-n" && k+1 < len(args):
			v, err := strconv.Atoi(args[k+1])
			if err != nil {
				return 0, nil, false
			}
			n = v
			k++
		case strings.HasPrefix(a, "-n"):
			v, err := strconv.Atoi(a[2:])
			if err != nil {
				return 0, nil, false
			}
			n = v
		case strings.HasPrefix(a, "-") && len(a) > 1:
			v, err := strconv.Atoi(a[1:])
			if err != nil {
				return 0, nil, false
			}
			n = v
		default:
			files = append(files, a)
		}
	}
	return n, files, true
}

func builtinHead(c *ctxio, args []string) int {
	n, files, ok := headTailCount(args)
	if !ok {
		return c.errorf("bad count")
	}
	return c.inputs(files, func(r io.Reader) int {
		err := c.firstLines(r, max(n, 0), func(l []byte) {
			c.out.Write(l)
			c.out.WriteByte('\n')
		})
		if err != nil {
			return c.errorf("%v", err)
		}
		return 0
	})
}

func builtinTail(c *ctxio, args []string) int {
	n, files, ok := headTailCount(args)
	if !ok {
		return c.errorf("bad count")
	}
	return c.inputs(files, func(r io.Reader) int {
		var keep []string
		err := c.eachLine(r, func(l []byte) {
			keep = append(keep, string(l))
			if len(keep) > n {
				keep = keep[1:]
			}
		})
		for _, l := range keep {
			c.out.WriteString(l)
			c.out.WriteByte('\n')
		}
		if err != nil {
			return c.errorf("%v", err)
		}
		return 0
	})
}

func builtinWc(c *ctxio, args []string) int {
	var lines, words, chars bool
	var files []string
	for _, a := range args {
		if strings.HasPrefix(a, "-") && len(a) > 1 {
			for _, f := range a[1:] {
				switch f {
				case 'l':
					lines = true
				case 'w':
					words = true
				case 'c':
					chars = true
				default:
					return c.errorf("unsupported flag -%c", f)
				}
			}
		} else {
			files = append(files, a)
		}
	}
	if !lines && !words && !chars {
		lines, words, chars = true, true, true
	}
	print := func(l, w, ch int64, name string) {
		var cols []string
		if lines {
			cols = append(cols, fmt.Sprintf("%7d", l))
		}
		if words {
			cols = append(cols, fmt.Sprintf("%7d", w))
		}
		if chars {
			cols = append(cols, fmt.Sprintf("%7d", ch))
		}
		if name != "" {
			cols = append(cols, name)
		}
		c.out.WriteString(strings.Join(cols, " "))
		c.out.WriteByte('\n')
	}
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	buf := *bp
	countOne := func(r io.Reader) (int64, int64, int64) {
		var l, w, ch int64
		inWord := false
		for {
			n, err := r.Read(buf)
			for _, b := range buf[:n] {
				ch++
				if b == '\n' {
					l++
				}
				sp := b == ' ' || b == '\t' || b == '\n' || b == '\r'
				if !sp && !inWord {
					w++
				}
				inWord = !sp
			}
			if err != nil {
				return l, w, ch
			}
		}
	}
	if len(files) == 0 {
		l, w, ch := countOne(c.in)
		print(l, w, ch, "")
		return 0
	}
	var tl, tw, tch int64
	status := 0
	for _, f := range files {
		r, err := openFile(c, f)
		if err != nil {
			status = c.errorf("%s: %v", f, err)
			continue
		}
		l, w, ch := countOne(r)
		r.Close()
		print(l, w, ch, f)
		tl, tw, tch = tl+l, tw+w, tch+ch
	}
	if len(files) > 1 {
		print(tl, tw, tch, "total")
	}
	return status
}

func builtinTee(c *ctxio, args []string) int {
	appendMode := false
	var files []string
	for _, a := range args {
		if a == "-a" {
			appendMode = true
		} else {
			files = append(files, a)
		}
	}
	writers := []io.Writer{c.out}
	var closers []io.Closer
	flags := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	if appendMode {
		flags = os.O_WRONLY | os.O_CREATE | os.O_APPEND
	}
	for _, f := range files {
		w, err := os.OpenFile(c.resolve(f), flags, 0o666)
		if err != nil {
			return c.errorf("%s: %v", f, err)
		}
		writers = append(writers, w)
		closers = append(closers, w)
	}
	// tee's status reports the files it could not open, not copy errors.
	_ = copyBorrowed(io.MultiWriter(writers...), c.in)
	for _, cl := range closers {
		cl.Close()
	}
	return 0
}

func builtinCut(c *ctxio, args []string) int {
	delim := "\t"
	var fields []int
	var files []string
	for k := 0; k < len(args); k++ {
		a := args[k]
		switch {
		case strings.HasPrefix(a, "-d"):
			if a == "-d" && k+1 < len(args) {
				delim = args[k+1]
				k++
			} else {
				delim = a[2:]
			}
		case strings.HasPrefix(a, "-f"):
			spec := a[2:]
			if a == "-f" && k+1 < len(args) {
				spec = args[k+1]
				k++
			}
			for _, part := range strings.Split(spec, ",") {
				if n, err := strconv.Atoi(part); err == nil {
					fields = append(fields, n)
				}
			}
		default:
			files = append(files, a)
		}
	}
	if len(fields) == 0 {
		return c.errorf("missing field list")
	}
	return c.inputs(files, func(r io.Reader) int {
		err := c.eachLine(r, func(l []byte) {
			cols := strings.Split(string(l), delim)
			var outCols []string
			for _, f := range fields {
				if f >= 1 && f <= len(cols) {
					outCols = append(outCols, cols[f-1])
				}
			}
			c.out.WriteString(strings.Join(outCols, delim))
			c.out.WriteByte('\n')
		})
		if err != nil {
			return c.errorf("%v", err)
		}
		return 0
	})
}

func builtinRev(c *ctxio, args []string) int {
	return c.inputs(args, func(r io.Reader) int {
		err := c.eachLine(r, func(l []byte) {
			rs := bytes.Runes(l)
			for a, b := 0, len(rs)-1; a < b; a, b = a+1, b-1 {
				rs[a], rs[b] = rs[b], rs[a]
			}
			c.out.WriteString(string(rs))
			c.out.WriteByte('\n')
		})
		if err != nil {
			return c.errorf("%v", err)
		}
		return 0
	})
}

func builtinTac(c *ctxio, args []string) int {
	var lines []string
	status := 0
	c.inputs(args, func(r io.Reader) int {
		if err := c.eachLine(r, func(l []byte) { lines = append(lines, string(l)) }); err != nil {
			status = c.errorf("%v", err)
		}
		return 0
	})
	for k := len(lines) - 1; k >= 0; k-- {
		c.out.WriteString(lines[k])
		c.out.WriteByte('\n')
	}
	return status
}

func builtinNl(c *ctxio, args []string) int {
	n := 0
	return c.inputs(args, func(r io.Reader) int {
		err := c.eachLine(r, func(l []byte) {
			n++
			fmt.Fprintf(c.out, "%6d\t%s\n", n, l)
		})
		if err != nil {
			return c.errorf("%v", err)
		}
		return 0
	})
}

func builtinCmp(c *ctxio, args []string) int {
	if len(args) != 2 {
		return c.errorf("usage: cmp file1 file2")
	}
	a, err := os.ReadFile(c.resolve(args[0]))
	if err != nil {
		return c.errorf("%v", err)
	}
	b, err := os.ReadFile(c.resolve(args[1]))
	if err != nil {
		return c.errorf("%v", err)
	}
	if string(a) == string(b) {
		return 0
	}
	fmt.Fprintf(c.out, "%s %s differ\n", args[0], args[1])
	return 1
}
