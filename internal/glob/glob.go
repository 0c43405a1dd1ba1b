// Package glob implements es wildcard patterns: '*' matches any sequence,
// '?' matches one character, and '[...]' matches a character class ('~' or
// '^' directly after '[' negates; ']' first in a class is literal; 'a-z'
// ranges are supported).
//
// The same machinery backs both the ~ match command and filename
// expansion.  Quoting protects characters from wildcard meaning, so a
// Pattern carries its quoting: 'a*' is a literal star, a* is a wildcard.
// Only the quoting of a '*', '?' or '[' changes a match, a capture or an
// expansion, so a pattern is magic (every byte may be a wildcard) or
// quoted (none is), and spells its quoting out byte by byte only when a
// concatenation mixes a quoted and an unquoted wildcard.
package glob

import (
	"os"
	"path/filepath"
	"sort"
	"strings"

	"es/internal/cache"
)

// Pattern is a wildcard pattern: magic, quoted, or masked by lit.
type Pattern struct {
	text   string
	quoted bool   // no byte has wildcard meaning
	lit    []bool // masked: lit[i] → text[i] has no wildcard meaning
}

// New returns a pattern in which every character may be magic.
func New(text string) Pattern {
	return Pattern{text: text}
}

// NewLiteral returns a pattern that matches text exactly.
func NewLiteral(text string) Pattern {
	return Pattern{text: text, quoted: true}
}

// Concat joins two patterns (used for word concatenation: a^'*').  The
// join is magic when it has an unquoted wildcard and no quoted one,
// quoted when it has no unquoted wildcard, and masked only when it has
// both: a quoted byte that is not a wildcard matches itself either way.
func Concat(a, b Pattern) Pattern {
	aMagic, aQuoted := a.wilds()
	bMagic, bQuoted := b.wilds()
	p := Pattern{text: a.text + b.text}
	switch {
	case !aMagic && !bMagic:
		p.quoted = true
	case aQuoted || bQuoted:
		p.lit = make([]bool, len(p.text))
		for i := range a.text {
			p.lit[i] = !a.isMagic(i)
		}
		for i := range b.text {
			p.lit[len(a.text)+i] = !b.isMagic(i)
		}
	}
	return p
}

// Mixed reports whether the pattern has both a quoted and an unquoted
// wildcard, the one case in which its quoting is a per-byte mask.
func (p Pattern) Mixed() bool {
	magic, quoted := p.wilds()
	return magic && quoted
}

// wilds reports whether the pattern has an unquoted and whether it has a
// quoted '*', '?' or '['.
func (p Pattern) wilds() (magic, quoted bool) {
	for i := 0; i < len(p.text); i++ {
		switch p.text[i] {
		case '*', '?', '[':
			if p.isMagic(i) {
				magic = true
			} else {
				quoted = true
			}
		}
	}
	return magic, quoted
}

// String returns the pattern text (losing its quoting).
func (p Pattern) String() string { return p.text }

func (p Pattern) isMagic(i int) bool {
	return !p.quoted && (p.lit == nil || !p.lit[i])
}

// HasWild reports whether the pattern contains any unquoted wildcard.
func (p Pattern) HasWild() bool {
	if p.quoted {
		return false
	}
	for i := 0; i < len(p.text); i++ {
		switch p.text[i] {
		case '*', '?', '[':
			if p.isMagic(i) {
				return true
			}
		}
	}
	return false
}

// Match reports whether s matches the entire pattern.  Wildcard patterns
// are compiled once and memoized (see compiledFor): patterns re-evaluated
// in loops — the common shape of ~ matches and filename expansion — skip
// re-scanning their classes and literal runs on every subject.
func (p Pattern) Match(s string) bool {
	if !p.HasWild() {
		// No unquoted wildcard: every byte must match literally.
		return p.text == s
	}
	return compiledFor(p).match(0, s, 0)
}

// matchHere matches p[pi:] against s[si:] with backtracking on '*'.  It is
// the reference implementation: Match runs the compiled form, and the
// tests check the two agree.
func matchHere(p Pattern, pi int, s string, si int) bool {
	for pi < len(p.text) {
		c := p.text[pi]
		magic := p.isMagic(pi)
		switch {
		case magic && c == '*':
			// Collapse consecutive stars, then try all splits.
			for pi < len(p.text) && p.isMagic(pi) && p.text[pi] == '*' {
				pi++
			}
			if pi == len(p.text) {
				return true
			}
			for k := si; k <= len(s); k++ {
				if matchHere(p, pi, s, k) {
					return true
				}
			}
			return false
		case magic && c == '?':
			if si >= len(s) {
				return false
			}
			si++
			pi++
		case magic && c == '[':
			ok, next := matchClass(p, pi, s, si)
			if !ok {
				return false
			}
			si++
			pi = next
		default:
			if si >= len(s) || s[si] != c {
				return false
			}
			si++
			pi++
		}
	}
	return si == len(s)
}

// matchClass matches the class starting at p.text[pi] == '[' against
// s[si]; it returns whether it matched and the index just past ']'.
// A malformed class (no closing bracket) matches a literal '['.
func matchClass(p Pattern, pi int, s string, si int) (bool, int) {
	end := classEnd(p, pi)
	if end < 0 {
		// No closing bracket: treat '[' literally.
		if si < len(s) && s[si] == '[' {
			return true, pi + 1
		}
		return false, pi + 1
	}
	if si >= len(s) {
		return false, end + 1
	}
	c := s[si]
	i := pi + 1
	negate := false
	if i < end && (p.text[i] == '~' || p.text[i] == '^') {
		negate = true
		i++
	}
	matched := false
	first := true
	for i < end {
		lo := p.text[i]
		if lo == ']' && !first {
			break
		}
		first = false
		if i+2 < end && p.text[i+1] == '-' {
			hi := p.text[i+2]
			if c >= lo && c <= hi {
				matched = true
			}
			i += 3
			continue
		}
		if c == lo {
			matched = true
		}
		i++
	}
	return matched != negate, end + 1
}

// classEnd finds the index of the ']' closing the class that starts at
// p.text[pi] == '['; -1 if unterminated.  A ']' immediately after '[' (or
// after the negation marker) is a literal member.
func classEnd(p Pattern, pi int) int {
	i := pi + 1
	if i < len(p.text) && (p.text[i] == '~' || p.text[i] == '^') {
		i++
	}
	if i < len(p.text) && p.text[i] == ']' {
		i++
	}
	for i < len(p.text) {
		if p.text[i] == ']' {
			return i
		}
		i++
	}
	return -1
}

// Expand performs filename expansion of a (possibly /-separated) pattern
// relative to dir (dir is used for relative patterns; "" means the process
// working directory).  Wildcards never match '/', and '*' and '?' do not
// match a leading dot, per shell convention.  The result is sorted; if
// nothing matches, Expand returns nil.
func Expand(p Pattern, dir string) []string {
	if !p.HasWild() {
		return nil
	}
	segs := splitPath(p)
	var prefix string
	var roots []string
	if strings.HasPrefix(p.text, "/") {
		prefix = "/"
		roots = []string{"/"}
	} else {
		if dir == "" {
			dir = "."
		}
		roots = []string{dir}
	}
	results := roots
	names := make([]string, 0)
	for _, segPat := range segs {
		if segPat.text == "" {
			continue
		}
		names = names[:0]
		if !segPat.HasWild() {
			// Fixed component: append and keep only existing paths.
			for _, r := range results {
				cand := joinPath(r, segPat.text)
				if _, err := os.Lstat(cand); err == nil {
					names = append(names, cand)
				}
			}
		} else {
			for _, r := range results {
				entries, err := os.ReadDir(r)
				if err != nil {
					continue
				}
				for _, e := range entries {
					name := e.Name()
					if strings.HasPrefix(name, ".") && !strings.HasPrefix(segPat.text, ".") {
						continue
					}
					if segPat.Match(name) {
						names = append(names, joinPath(r, name))
					}
				}
			}
		}
		results = append([]string(nil), names...)
		if len(results) == 0 {
			return nil
		}
	}
	// Strip the artificial "./" or dir prefix for relative patterns.
	out := make([]string, 0, len(results))
	for _, r := range results {
		if prefix == "" {
			r = strings.TrimPrefix(r, roots[0]+string(filepath.Separator))
		}
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

func joinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + string(filepath.Separator) + name
}

// splitPath splits a pattern on literal or magic '/' into segments, each
// with the pattern's quoting.
func splitPath(p Pattern) []Pattern {
	var segs []Pattern
	start := 0
	for i := 0; i <= len(p.text); i++ {
		if i == len(p.text) || p.text[i] == '/' {
			seg := Pattern{text: p.text[start:i], quoted: p.quoted}
			if p.lit != nil {
				seg.lit = p.lit[start:i]
			}
			segs = append(segs, seg)
			start = i + 1
		}
	}
	return segs
}

// ---- compiled patterns ----
//
// A compiled pattern is a flat op sequence: literal runs are compared with
// one string comparison, character classes become 256-bit membership sets
// built once instead of being re-scanned per subject byte, and consecutive
// stars are collapsed at compile time.  Compilation results are memoized
// in a process-wide cache keyed by pattern text, so a magic pattern
// matched in a loop compiles exactly once.

type opKind uint8

const (
	opLit   opKind = iota // compare a literal byte run
	opStar                // match any sequence
	opQuest               // match any single byte
	opClass               // match one byte against a class set
)

type globOp struct {
	kind  opKind
	lit   string
	class *classSet
}

// classSet is a 256-bit membership bitmap with optional negation.
type classSet struct {
	bits   [32]byte
	negate bool
}

func (c *classSet) add(b byte) { c.bits[b>>3] |= 1 << (b & 7) }

func (c *classSet) matches(b byte) bool {
	in := c.bits[b>>3]&(1<<(b&7)) != 0
	return in != c.negate
}

type compiled struct {
	ops []globOp
}

// globCache memoizes compiled wildcard patterns.  Compiled forms are pure
// functions of the pattern, so entries never go stale; the cache is
// bounded and shared by every interpreter in the process.
var globCache = cache.NewMap[*compiled]("glob", 512)

// CacheStats snapshots the compiled-pattern cache counters.
func CacheStats() cache.Stats { return globCache.Stats() }

// FlushCache drops every compiled pattern (the $&recache escape hatch).
func FlushCache() { globCache.Flush() }

// compiledFor returns the compiled form of p, consulting the cache.
// Magic patterns (the overwhelmingly common case: any unquoted wildcard
// word) are keyed by their text alone; masked patterns — produced only by
// a concatenation like $x^* with a quoted star in $x — are compiled
// uncached, since a collision-proof key would cost more than the compile.
func compiledFor(p Pattern) *compiled {
	if p.lit != nil {
		return compilePattern(p)
	}
	if c, ok := globCache.Get(p.text); ok {
		return c
	}
	c := compilePattern(p)
	globCache.Put(p.text, c)
	return c
}

// compilePattern translates a pattern into ops, mirroring matchHere's
// semantics exactly (including the malformed-class rule: an unterminated
// '[' is a literal).
func compilePattern(p Pattern) *compiled {
	var ops []globOp
	var lit []byte
	flushLit := func() {
		if len(lit) > 0 {
			ops = append(ops, globOp{kind: opLit, lit: string(lit)})
			lit = lit[:0]
		}
	}
	for pi := 0; pi < len(p.text); pi++ {
		c := p.text[pi]
		if !p.isMagic(pi) {
			lit = append(lit, c)
			continue
		}
		switch c {
		case '*':
			flushLit()
			if len(ops) == 0 || ops[len(ops)-1].kind != opStar {
				ops = append(ops, globOp{kind: opStar})
			}
		case '?':
			flushLit()
			ops = append(ops, globOp{kind: opQuest})
		case '[':
			end := classEnd(p, pi)
			if end < 0 {
				lit = append(lit, '[')
				continue
			}
			flushLit()
			ops = append(ops, globOp{kind: opClass, class: buildClass(p, pi, end)})
			pi = end
		default:
			lit = append(lit, c)
		}
	}
	flushLit()
	return &compiled{ops: ops}
}

// buildClass materializes the class starting at p.text[pi] == '[' (closing
// at end) as a bitmap, with the same member scan as matchClass.
func buildClass(p Pattern, pi, end int) *classSet {
	cs := &classSet{}
	i := pi + 1
	if i < end && (p.text[i] == '~' || p.text[i] == '^') {
		cs.negate = true
		i++
	}
	first := true
	for i < end {
		lo := p.text[i]
		if lo == ']' && !first {
			break
		}
		first = false
		if i+2 < end && p.text[i+1] == '-' {
			for b := int(lo); b <= int(p.text[i+2]); b++ {
				cs.add(byte(b))
			}
			i += 3
			continue
		}
		cs.add(lo)
		i++
	}
	return cs
}

// match runs ops[oi:] against s[si:], backtracking on stars.
func (cp *compiled) match(oi int, s string, si int) bool {
	ops := cp.ops
	for oi < len(ops) {
		op := &ops[oi]
		switch op.kind {
		case opLit:
			if len(s)-si < len(op.lit) || s[si:si+len(op.lit)] != op.lit {
				return false
			}
			si += len(op.lit)
		case opQuest:
			if si >= len(s) {
				return false
			}
			si++
		case opClass:
			if si >= len(s) || !op.class.matches(s[si]) {
				return false
			}
			si++
		case opStar:
			if oi == len(ops)-1 {
				return true
			}
			for k := si; k <= len(s); k++ {
				if cp.match(oi+1, s, k) {
					return true
				}
			}
			return false
		}
		oi++
	}
	return si == len(s)
}

// MatchCapture matches s against the entire pattern and returns the text
// each unquoted wildcard consumed, in pattern order ('*' greedy).  ok is
// false if s does not match.  This backs the ~~ extraction command.
func (p Pattern) MatchCapture(s string) (captures []string, ok bool) {
	if !p.HasWild() {
		return nil, p.text == s
	}
	return captureHere(p, 0, s, 0)
}

func captureHere(p Pattern, pi int, s string, si int) ([]string, bool) {
	if pi >= len(p.text) {
		if si == len(s) {
			return nil, true
		}
		return nil, false
	}
	c := p.text[pi]
	magic := p.isMagic(pi)
	switch {
	case magic && c == '*':
		// Greedy: prefer the longest capture.
		for k := len(s); k >= si; k-- {
			if rest, ok := captureHere(p, pi+1, s, k); ok {
				return append([]string{s[si:k]}, rest...), true
			}
		}
		return nil, false
	case magic && c == '?':
		if si >= len(s) {
			return nil, false
		}
		if rest, ok := captureHere(p, pi+1, s, si+1); ok {
			return append([]string{s[si : si+1]}, rest...), true
		}
		return nil, false
	case magic && c == '[':
		matched, next := matchClass(p, pi, s, si)
		if !matched {
			return nil, false
		}
		if rest, ok := captureHere(p, next, s, si+1); ok {
			return append([]string{s[si : si+1]}, rest...), true
		}
		return nil, false
	default:
		if si >= len(s) || s[si] != c {
			return nil, false
		}
		return captureHere(p, pi+1, s, si+1)
	}
}
