package syntax

import (
	"fmt"
	"strings"
)

// ErrIncomplete is reported (wrapped in *ParseError with Incomplete set)
// when the input ends inside a construct that could be completed by more
// input: an open brace, paren, or quote.  The REPL uses it to prompt for
// continuation lines.
type ParseError struct {
	Line       int
	Col        int
	Msg        string
	Incomplete bool
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// IsIncomplete reports whether err is a parse error that more input could
// resolve (unterminated quote, brace, or paren).
func IsIncomplete(err error) bool {
	pe, ok := err.(*ParseError)
	return ok && pe.Incomplete
}

type lexer struct {
	src        string
	pos        int
	line       int
	col        int
	space      bool // whitespace seen since last token
	prevDollar bool // previous token was $, $#, $$ or $&
	err        *ParseError
	comment    int // the line of the first comment skipped; 0 if none

	// skips are [start,end) source regions consumed out of band —
	// heredoc bodies, which belong to an earlier << token rather than
	// the token stream.  Sorted by start.
	skips []skipRegion
}

type skipRegion struct{ start, end int }

func newLexer(src string) lexer {
	return lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errorf(incomplete bool, format string, args ...interface{}) {
	if l.err == nil {
		l.err = &ParseError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...), Incomplete: incomplete}
	}
}

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// wordBreak reports whether c terminates an unquoted word.
// '~', '@' and '!' are special only at the start of a token, so they do not
// break words; '=' does (rc heritage: quote it to pass it literally).
func wordBreak(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', ';', '&', '|', '^', '$', '\'', '{', '}', '(', ')', '<', '>', '=', '`', '#', 0:
		return true
	}
	return false
}

// isNameChar reports whether c may appear in a variable name following
// '$'.  Names are more restricted than words: "$dir:" is the variable dir
// followed by a literal colon and "$prog.es" is $prog with an .es suffix,
// but fn-%pipe and path-cache are names.  (Dotted names like fn-. are
// reachable through the computed form $(fn-.).)
func isNameChar(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '_' || c == '%' || c == '*' || c == '-':
		return true
	}
	return false
}

// next scans and returns the next token.
func (l *lexer) next() Token {
	l.skipSpace()
	tok := Token{Line: l.line, Col: l.col, SpaceBefore: l.space, Fd: -1, Fd2: -1}
	l.space = false
	wasDollar := l.prevDollar
	l.prevDollar = false
	if l.pos >= len(l.src) {
		tok.Kind = EOF
		return tok
	}
	c := l.peek()
	if wasDollar && !tok.SpaceBefore && isNameChar(c) {
		tok.Kind = WORD
		tok.Text = l.lexVarName()
		return tok
	}
	switch c {
	case '\n', '\r':
		l.advance()
		tok.Kind = NEWLINE
		return tok
	case ';':
		l.advance()
		tok.Kind = SEMI
		return tok
	case '&':
		l.advance()
		if l.peek() == '&' {
			l.advance()
			tok.Kind = ANDAND
			return tok
		}
		tok.Kind = AMP
		return tok
	case '|':
		l.advance()
		if l.peek() == '|' {
			l.advance()
			tok.Kind = OROR
			return tok
		}
		tok.Kind = PIPE
		if l.peek() == '[' {
			l.lexFdSpec(&tok)
		}
		return tok
	case '^':
		l.advance()
		tok.Kind = CARET
		return tok
	case '(':
		l.advance()
		tok.Kind = LPAREN
		return tok
	case ')':
		l.advance()
		tok.Kind = RPAREN
		return tok
	case '{':
		l.advance()
		tok.Kind = LBRACE
		return tok
	case '}':
		l.advance()
		tok.Kind = RBRACE
		return tok
	case '=':
		l.advance()
		tok.Kind = EQUALS
		return tok
	case '@':
		l.advance()
		tok.Kind = AT
		return tok
	case '!':
		l.advance()
		tok.Kind = BANG
		return tok
	case '~':
		l.advance()
		if l.peek() == '~' {
			l.advance()
			tok.Kind = EXTRACT
			return tok
		}
		tok.Kind = TILDE
		return tok
	case '`':
		l.advance()
		tok.Kind = BQUOTE
		return tok
	case '$':
		l.advance()
		switch l.peek() {
		case '#':
			l.advance()
			tok.Kind = COUNT
		case '$':
			l.advance()
			tok.Kind = DOUBLE
		case '&':
			l.advance()
			tok.Kind = PRIM
		case '^':
			l.advance()
			tok.Kind = FLAT
		default:
			tok.Kind = DOLLAR
		}
		l.prevDollar = true
		return tok
	case '\'':
		l.advance()
		tok.Kind = QWORD
		tok.Text = l.lexQuoted()
		return tok
	case '<':
		l.advance()
		if (l.peek() == '>' || l.peek() == '=') && l.peekAt(1) == '{' {
			l.advance()
			tok.Kind = RETSUB
			return tok
		}
		if l.peek() == '<' && l.peekAt(1) == '<' {
			l.advance()
			l.advance()
			tok.Kind = REDIR
			tok.Op = RedirHere
			tok.Fd = 0
			return tok
		}
		if l.peek() == '<' {
			// << TAG heredoc: the body is collected out of band and
			// delivered in the token's Text.
			l.advance()
			tok.Kind = REDIR
			tok.Op = RedirHere
			tok.Fd = 0
			tok.Heredoc = true
			tok.Text = l.lexHeredoc()
			return tok
		}
		tok.Kind = REDIR
		tok.Op = RedirFrom
		tok.Fd = 0
		if l.peek() == '[' {
			l.lexFdSpec(&tok)
		}
		return tok
	case '>':
		l.advance()
		tok.Kind = REDIR
		tok.Op = RedirTo
		tok.Fd = 1
		if l.peek() == '>' {
			l.advance()
			tok.Op = RedirAppend
		}
		if l.peek() == '[' {
			l.lexFdSpec(&tok)
			if tok.Fd2 >= 0 {
				tok.Op = RedirDup
			}
		}
		return tok
	default:
		tok.Kind = WORD
		tok.Text = l.lexWord()
		if tok.Text == "" {
			// A word-breaking byte with no token of its own (e.g. NUL):
			// reject it rather than looping on an empty word.
			l.errorf(false, "invalid character %q", c)
			tok.Kind = EOF
		}
		return tok
	}
}

// lexHeredoc scans "<< TAG" (the "<<" already consumed): it reads the
// tag, finds the body between the next newline and a line consisting of
// the tag alone, records that region to be skipped by the token stream,
// and returns the body.  Bodies are literal: no substitution is
// performed, as with a quoted tag in traditional shells.
func (l *lexer) lexHeredoc() string {
	for l.peek() == ' ' || l.peek() == '\t' {
		l.advance()
	}
	start := l.pos
	for l.pos < len(l.src) && !wordBreak(l.peek()) {
		l.advance()
	}
	tag := l.src[start:l.pos]
	if tag == "" {
		l.errorf(false, "expected heredoc tag after <<")
		return ""
	}
	// Find the start of the body: just past the next newline.
	nl := strings.IndexByte(l.src[l.pos:], '\n')
	if nl < 0 {
		l.errorf(true, "unterminated heredoc %s", tag)
		return ""
	}
	bodyStart := l.pos + nl + 1
	// Find the terminator line.
	search := bodyStart
	for {
		if search >= len(l.src) {
			l.errorf(true, "unterminated heredoc %s", tag)
			return ""
		}
		lineEnd := strings.IndexByte(l.src[search:], '\n')
		var line string
		var next int
		if lineEnd < 0 {
			line = l.src[search:]
			next = len(l.src)
		} else {
			line = l.src[search : search+lineEnd]
			next = search + lineEnd + 1
		}
		if line == tag {
			body := l.src[bodyStart:search]
			l.skips = append(l.skips, skipRegion{bodyStart, next})
			return body
		}
		if lineEnd < 0 {
			l.errorf(true, "unterminated heredoc %s", tag)
			return ""
		}
		search = next
	}
}

// applySkips jumps the cursor over any heredoc body region it has
// reached, counting the lines it jumps.
func (l *lexer) applySkips() {
	for len(l.skips) > 0 && l.pos >= l.skips[0].start {
		if end := l.skips[0].end; l.pos < end {
			l.line += strings.Count(l.src[l.pos:end], "\n")
			l.pos = end
		}
		l.skips = l.skips[1:]
	}
}

func (l *lexer) skipSpace() {
	l.applySkips()
	for l.pos < len(l.src) {
		l.applySkips()
		c := l.peek()
		switch {
		case c == ' ' || c == '\t':
			l.advance()
			l.space = true
		case c == '\\' && l.peekAt(1) == '\n':
			l.advance()
			l.advance()
			l.space = true
		case c == '#':
			if l.comment == 0 {
				l.comment = l.line
			}
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

// lexQuoted scans a single-quoted string; ” inside quotes is a literal
// quote, as in rc.  The opening quote has been consumed.
func (l *lexer) lexQuoted() string {
	var b strings.Builder
	for {
		if l.pos >= len(l.src) {
			l.errorf(true, "unterminated quote")
			return b.String()
		}
		c := l.advance()
		if c == '\'' {
			if l.peek() == '\'' {
				l.advance()
				b.WriteByte('\'')
				continue
			}
			return b.String()
		}
		b.WriteByte(c)
	}
}

func (l *lexer) lexWord() string {
	start := l.pos
	for l.pos < len(l.src) && !wordBreak(l.peek()) {
		l.advance()
	}
	return l.src[start:l.pos]
}

func (l *lexer) lexVarName() string {
	start := l.pos
	for l.pos < len(l.src) && isNameChar(l.peek()) {
		l.advance()
	}
	return l.src[start:l.pos]
}

// lexFdSpec scans a [n] or [n=m] or [n=] descriptor annotation following a
// redirection or pipe operator.
func (l *lexer) lexFdSpec(tok *Token) {
	l.advance() // '['
	n, ok := l.lexNumber()
	if !ok {
		l.errorf(false, "expected file descriptor number after '['")
		return
	}
	tok.Fd = n
	if l.peek() == '=' {
		l.advance()
		if l.peek() == ']' {
			tok.Op = RedirClose
		} else {
			m, ok := l.lexNumber()
			if !ok {
				l.errorf(false, "expected file descriptor number after '='")
				return
			}
			tok.Fd2 = m
		}
	}
	if l.peek() != ']' {
		l.errorf(false, "expected ']' in file descriptor annotation")
		return
	}
	l.advance()
}

func (l *lexer) lexNumber() (int, bool) {
	n, any := 0, false
	for l.peek() >= '0' && l.peek() <= '9' {
		n = n*10 + int(l.advance()-'0')
		any = true
		if n > maxFd {
			l.errorf(false, "file descriptor out of range")
			return 0, false
		}
	}
	return n, any
}

// maxFd bounds descriptor annotations; anything larger is a typo, not a
// file descriptor.
const maxFd = 1 << 20

// CommentLine returns the line of the first comment in src, or 0 when
// src holds none before its end or its first lexical error.  A '#' in a
// quoted word, in a heredoc body or after '$' starts no comment.
func CommentLine(src string) int {
	l := newLexer(src)
	for l.comment == 0 && l.err == nil && l.next().Kind != EOF {
	}
	return l.comment
}

// Lex tokenizes src completely; used by esdump and tests.
func Lex(src string) ([]Token, error) {
	l := newLexer(src)
	var toks []Token
	for {
		t := l.next()
		toks = append(toks, t)
		if t.Kind == EOF || l.err != nil {
			break
		}
	}
	if l.err != nil {
		return toks, l.err
	}
	return toks, nil
}
