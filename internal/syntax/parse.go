package syntax

import "fmt"

// Parse parses a complete es program (one or more commands) into a surface
// Block.  Callers that want the paper's core representation should pass the
// result through Rewrite.
//
// If the input ends inside an unterminated construct, the returned error
// satisfies IsIncomplete, which interactive callers use to request
// continuation lines.
func Parse(src string) (*Block, error) {
	p := &parser{lex: newLexer(src)}
	p.advance()
	b := p.parseLines(EOF)
	if p.err == nil && p.tok.Kind != EOF {
		p.errorf(false, "unexpected %s", p.tok)
	}
	if p.err != nil {
		return nil, p.err
	}
	return b, nil
}

type parser struct {
	lex lexer // embedded, so a parse allocates one object for both
	tok Token
	err *ParseError
}

// pos returns the current token's source position.
func (p *parser) pos() Pos { return Pos{Line: p.tok.Line, Col: p.tok.Col} }

func (p *parser) errorf(incomplete bool, format string, args ...interface{}) {
	if p.err == nil {
		p.err = &ParseError{Line: p.tok.Line, Col: p.tok.Col, Msg: fmt.Sprintf(format, args...), Incomplete: incomplete}
	}
}

func (p *parser) advance() {
	if p.err != nil {
		p.tok = Token{Kind: EOF}
		return
	}
	p.tok = p.lex.next()
	if p.lex.err != nil && p.err == nil {
		p.err = p.lex.err
		p.tok = Token{Kind: EOF}
	}
}

func (p *parser) expect(k Kind) Token {
	t := p.tok
	if t.Kind != k {
		p.errorf(t.Kind == EOF, "expected %s, found %s", k, t)
		return t
	}
	p.advance()
	return t
}

// skipNewlines consumes newline tokens (used after |, &&, || and inside
// blocks and binding lists).
func (p *parser) skipNewlines() {
	for p.tok.Kind == NEWLINE {
		p.advance()
	}
}

func isTerminator(k Kind) bool {
	return k == SEMI || k == NEWLINE || k == EOF || k == RBRACE || k == RPAREN
}

// parseLines parses a command sequence up to the given closing token
// (RBRACE for blocks, EOF at top level).  The closer is not consumed.
func (p *parser) parseLines(close Kind) *Block {
	b := &Block{}
	for p.err == nil {
		for p.tok.Kind == SEMI || p.tok.Kind == NEWLINE {
			p.advance()
		}
		if p.tok.Kind == close || p.tok.Kind == EOF {
			return b
		}
		c := p.parseCommandLine()
		if c != nil {
			b.Cmds = append(b.Cmds, c)
		}
		if p.err != nil {
			return b
		}
		switch p.tok.Kind {
		case SEMI, NEWLINE:
			p.advance()
		case close, EOF:
			return b
		default:
			p.errorf(false, "unexpected %s", p.tok)
			return b
		}
	}
	return b
}

// parseCommandLine parses one full command: andor chains with optional
// trailing & for background.
func (p *parser) parseCommandLine() Cmd {
	start := p.pos()
	c := p.parseAndOr()
	for p.tok.Kind == AMP && p.err == nil {
		ampPos := p.pos()
		p.advance()
		c = &Bg{Body: c, Pos: ampPos}
		// '&' also terminates; allow another command to follow directly.
		if isTerminator(p.tok.Kind) || p.tok.Kind == AMP {
			return c
		}
		next := p.parseAndOr()
		c = &Block{Cmds: []Cmd{c, next}, Pos: start}
	}
	return c
}

func (p *parser) parseAndOr() Cmd {
	c := p.parsePipeline()
	for (p.tok.Kind == ANDAND || p.tok.Kind == OROR) && p.err == nil {
		op := p.tok.Kind
		opPos := p.pos()
		p.advance()
		p.skipNewlines()
		right := p.parsePipeline()
		c = &AndOr{Op: op, Left: c, Right: right, Pos: opPos}
	}
	return c
}

func (p *parser) parsePipeline() Cmd {
	c := p.parseCommand()
	for p.tok.Kind == PIPE && p.err == nil {
		t := p.tok
		p.advance()
		p.skipNewlines()
		right := p.parseCommand()
		lfd, rfd := 1, 0
		if t.Fd >= 0 {
			lfd = t.Fd
		}
		if t.Fd2 >= 0 {
			rfd = t.Fd2
		}
		c = &Pipe{Left: c, LFd: lfd, RFd: rfd, Right: right, Pos: Pos{Line: t.Line, Col: t.Col}}
	}
	return c
}

// parseCommand parses a single command: !, ~, the binding keywords, fn, or
// a simple command with redirections.
func (p *parser) parseCommand() Cmd {
	switch p.tok.Kind {
	case BANG:
		bangPos := p.pos()
		p.advance()
		return &Not{Body: p.parseCommand(), Pos: bangPos}
	case TILDE, EXTRACT:
		extract := p.tok.Kind == EXTRACT
		matchPos := p.pos()
		p.advance()
		subj := p.parseWord()
		if subj == nil {
			p.errorf(p.tok.Kind == EOF, "expected match subject after '~'")
			return nil
		}
		var pats []*Word
		for p.err == nil && p.isWordStart() {
			w := p.parseWord()
			if w == nil {
				break
			}
			pats = append(pats, w)
		}
		return &Match{Subject: subj, Pats: pats, Extract: extract, Pos: matchPos}
	case WORD:
		// Keywords only when the token is a complete word: let$x or
		// fn^y are ordinary commands, not binding forms.  The lookahead
		// that tells runs only for a keyword's text.
		switch text := p.tok.Text; {
		case text == "fn" && p.keywordIsolated():
			return p.parseFn()
		case text == "let" && p.keywordIsolated():
			return p.parseBindingForm(BindLet)
		case text == "local" && p.keywordIsolated():
			return p.parseBindingForm(BindLocal)
		case text == "for" && p.keywordIsolated():
			return p.parseBindingForm(BindFor)
		}
	}
	return p.parseSimple()
}

func (p *parser) parseFn() Cmd {
	fnPos := p.pos()
	p.advance() // fn
	name := p.parseWord()
	if name == nil {
		p.errorf(p.tok.Kind == EOF, "expected function name after fn")
		return nil
	}
	var params []string
	for p.tok.Kind == WORD || p.tok.Kind == QWORD {
		if !isPlainName(p.tok.Text) {
			p.errorf(false, "bad parameter name %q", p.tok.Text)
			return nil
		}
		params = append(params, p.tok.Text)
		p.advance()
	}
	if p.tok.Kind != LBRACE {
		if len(params) == 0 && isTerminator(p.tok.Kind) {
			return &Fn{Name: name, Pos: fnPos} // fn name: undefine
		}
		p.errorf(p.tok.Kind == EOF, "expected '{' in fn definition")
		return nil
	}
	lamPos := p.pos() // the '{'
	body := p.parseBlock()
	return &Fn{Name: name, Lambda: &Lambda{Params: params, HasParams: len(params) > 0, Body: body, Pos: lamPos}, Pos: fnPos}
}

// parseBindingForm parses let/local/for (bindings) command.
func (p *parser) parseBindingForm(kind BindKind) Cmd {
	kwPos := p.pos()
	p.advance() // keyword
	p.expect(LPAREN)
	var bindings []Binding
	for p.err == nil {
		p.skipNewlines()
		if p.tok.Kind == RPAREN {
			break
		}
		name := p.parseWord()
		if name == nil {
			p.errorf(p.tok.Kind == EOF, "expected binding name in %s", kind)
			return nil
		}
		b := Binding{Name: name}
		if p.tok.Kind == EQUALS {
			p.advance()
			for p.err == nil && p.isWordStart() {
				w := p.parseWord()
				if w == nil {
					break
				}
				b.Values = append(b.Values, w)
			}
		}
		bindings = append(bindings, b)
		if p.tok.Kind == SEMI || p.tok.Kind == NEWLINE {
			p.advance()
			continue
		}
		break
	}
	p.skipNewlines()
	p.expect(RPAREN)
	if p.err != nil {
		return nil
	}
	p.skipNewlines()
	// The body is a full command (pipelines and &&/|| included), so
	// "for (i = $x) a | b" pipes inside the loop body.
	body := p.parseAndOr()
	if body == nil && p.err == nil {
		p.errorf(p.tok.Kind == EOF, "expected command after %s (...)", kind)
		return nil
	}
	return &Bind{Kind: kind, Bindings: bindings, Body: body, Pos: kwPos}
}

// parseSimple parses words and redirections; detects assignment when the
// first word is followed by '='.
func (p *parser) parseSimple() Cmd {
	startPos := p.pos()
	var words []*Word
	var redirs []*Redir
	for p.err == nil {
		switch {
		case p.tok.Kind == REDIR:
			t := p.tok
			p.advance()
			r := &Redir{Op: t.Op, Fd: t.Fd, Fd2: t.Fd2, Pos: Pos{Line: t.Line, Col: t.Col}}
			switch {
			case t.Heredoc:
				// A heredoc: the lexer delivered the literal body, which
				// takes the position of the << token.
				r.Target = QuotedWord(t.Text)
				r.Target.Pos = r.Pos
			case t.Op != RedirDup && t.Op != RedirClose:
				r.Target = p.parseWord()
				if r.Target == nil {
					p.errorf(p.tok.Kind == EOF, "expected file name after redirection")
					return nil
				}
			}
			redirs = append(redirs, r)
		case p.tok.Kind == EQUALS && len(words) <= 1:
			// assignment: name = values...  (empty name not allowed)
			p.advance()
			var name *Word
			if len(words) == 1 {
				name = words[0]
			} else {
				p.errorf(false, "assignment without a variable name")
				return nil
			}
			var values []*Word
			for p.err == nil && p.isWordStart() {
				w := p.parseWord()
				if w == nil {
					break
				}
				values = append(values, w)
			}
			return &Assign{Name: name, Values: values, Pos: startPos}
		case p.isWordStart():
			words = append(words, p.parseWord())
		default:
			if len(words) == 0 && len(redirs) == 0 {
				p.errorf(p.tok.Kind == EOF, "expected command, found %s", p.tok)
				return nil
			}
			c := Cmd(&Simple{Words: words, Pos: startPos})
			if len(redirs) > 0 {
				c = &RedirCmd{Body: c, Redirs: redirs, Pos: startPos}
			}
			return c
		}
	}
	return nil
}

// isWordStart reports whether the current token can begin a word.
func (p *parser) isWordStart() bool {
	return isWordStartKind(p.tok.Kind)
}

func isWordStartKind(k Kind) bool {
	switch k {
	case WORD, QWORD, DOLLAR, COUNT, DOUBLE, FLAT, PRIM, BQUOTE, RETSUB, LBRACE, AT, LPAREN:
		return true
	}
	return false
}

// keywordIsolated reports whether the current WORD token stands alone (no
// adjacent continuation or caret), so it may act as a keyword.
func (p *parser) keywordIsolated() bool {
	save := p.lex
	next := p.lex.next()
	p.lex = save
	if next.Kind == CARET {
		return false
	}
	if isWordStartKind(next.Kind) && !next.SpaceBefore {
		return false
	}
	return true
}

// parseWord parses one word: adjacent parts and explicit '^' concatenation.
func (p *parser) parseWord() *Word {
	if !p.isWordStart() {
		return nil
	}
	w := &Word{Pos: p.pos()}
	first := true
	for p.err == nil {
		if !first {
			if p.tok.Kind == CARET {
				p.advance()
			} else if !p.isWordStart() || p.tok.SpaceBefore {
				break
			}
		}
		part := p.parsePart()
		if part == nil {
			break
		}
		w.Parts = append(w.Parts, part)
		first = false
	}
	if len(w.Parts) == 0 {
		return nil
	}
	return w
}

func (p *parser) parsePart() Part {
	switch p.tok.Kind {
	case WORD:
		t := p.tok
		p.advance()
		return &Lit{Text: t.Text}
	case QWORD:
		t := p.tok
		p.advance()
		return &Lit{Text: t.Text, Quoted: true}
	case DOLLAR, COUNT, DOUBLE, FLAT:
		return p.parseVar()
	case PRIM:
		primPos := p.pos()
		p.advance()
		if p.tok.Kind != WORD || p.tok.SpaceBefore || !isPlainName(p.tok.Text) {
			p.errorf(p.tok.Kind == EOF, "expected primitive name after $&")
			return nil
		}
		name := p.tok.Text
		p.advance()
		return &Prim{Name: name, Pos: primPos}
	case BQUOTE:
		bqPos := p.pos()
		p.advance()
		if p.tok.Kind == LBRACE {
			return &CmdSub{Body: p.parseBlock(), Pos: bqPos}
		}
		// `word is shorthand for `{word}
		w := p.parseWord()
		if w == nil {
			p.errorf(p.tok.Kind == EOF, "expected '{' or word after '`'")
			return nil
		}
		return &CmdSub{Body: &Block{Cmds: []Cmd{&Simple{Words: []*Word{w}, Pos: w.Pos}}, Pos: w.Pos}, Pos: bqPos}
	case RETSUB:
		rsPos := p.pos()
		p.advance()
		if p.tok.Kind != LBRACE {
			p.errorf(p.tok.Kind == EOF, "expected '{' after '<>'")
			return nil
		}
		return &RetSub{Body: p.parseBlock(), Pos: rsPos}
	case LBRACE:
		lbPos := p.pos()
		return &LambdaPart{Lambda: &Lambda{Body: p.parseBlock(), Pos: lbPos}}
	case AT:
		atPos := p.pos()
		p.advance()
		var params []string
		for p.tok.Kind == WORD || p.tok.Kind == QWORD {
			if !isPlainName(p.tok.Text) {
				p.errorf(false, "bad parameter name %q", p.tok.Text)
				return nil
			}
			params = append(params, p.tok.Text)
			p.advance()
		}
		if p.tok.Kind != LBRACE {
			p.errorf(p.tok.Kind == EOF, "expected '{' in lambda")
			return nil
		}
		return &LambdaPart{Lambda: &Lambda{Params: params, HasParams: true, Body: p.parseBlock(), Pos: atPos}}
	case LPAREN:
		p.advance()
		lp := &ListPart{}
		for p.err == nil {
			p.skipNewlines()
			if p.tok.Kind == RPAREN {
				break
			}
			w := p.parseWord()
			if w == nil {
				p.errorf(p.tok.Kind == EOF, "expected word or ')' in list")
				return nil
			}
			lp.Words = append(lp.Words, w)
		}
		p.expect(RPAREN)
		return lp
	}
	return nil
}

// parseVar parses $name, $#name, $$name, $(computed), with an optional
// adjacent (subscript).
func (p *parser) parseVar() Part {
	kind := p.tok.Kind
	varPos := p.pos()
	p.advance()
	v := &Var{Count: kind == COUNT, Double: kind == DOUBLE, Flat: kind == FLAT, Pos: varPos}
	switch {
	case p.tok.Kind == LPAREN && !p.tok.SpaceBefore:
		// $(computed-name)
		p.advance()
		name := p.parseWord()
		if name == nil {
			p.errorf(p.tok.Kind == EOF, "expected variable name in $(...)")
			return nil
		}
		p.expect(RPAREN)
		v.Name = name
	case (p.tok.Kind == WORD || p.tok.Kind == QWORD) && !p.tok.SpaceBefore:
		v.Name = &Word{Parts: []Part{&Lit{Text: p.tok.Text, Quoted: p.tok.Kind == QWORD}}, Pos: p.pos()}
		p.advance()
		// allow computed names like $fn-$func?  No: '$' ends the name.
	default:
		p.errorf(p.tok.Kind == EOF, "expected variable name after '$'")
		return nil
	}
	if p.tok.Kind == LPAREN && !p.tok.SpaceBefore {
		p.advance()
		for p.err == nil {
			p.skipNewlines()
			if p.tok.Kind == RPAREN {
				break
			}
			w := p.parseWord()
			if w == nil {
				p.errorf(p.tok.Kind == EOF, "expected subscript or ')'")
				return nil
			}
			v.Index = append(v.Index, w)
		}
		p.expect(RPAREN)
	}
	return v
}

// parseBlock parses { lines }.
func (p *parser) parseBlock() *Block {
	lbPos := p.pos()
	p.expect(LBRACE)
	b := p.parseLines(RBRACE)
	b.Pos = lbPos
	if p.err == nil && p.tok.Kind == EOF {
		p.errorf(true, "expected '}'")
		return b
	}
	p.expect(RBRACE)
	return b
}
