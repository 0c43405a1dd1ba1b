package syntax

import (
	"strconv"
	"strings"
)

// Unparse renders a command back to es source.  The output re-parses to an
// equivalent tree, which is what makes it possible to pass function
// definitions through the environment (the paper's "unparsing" machinery).
func Unparse(c Cmd) string {
	var b strings.Builder
	printCmd(&b, c)
	return b.String()
}

// UnparseLambda renders a lambda value: "@ p1 p2 {body}" when it has a
// declared parameter list, "{body}" otherwise.
func UnparseLambda(l *Lambda) string {
	var b strings.Builder
	printLambda(&b, l)
	return b.String()
}

// UnparseBody renders the commands of a block joined by "; ", without the
// surrounding braces; useful for top-level scripts.
func UnparseBody(blk *Block) string {
	var b strings.Builder
	printSeq(&b, blk)
	return b.String()
}

func printSeq(b *strings.Builder, blk *Block) {
	for i, c := range blk.Cmds {
		if i > 0 {
			b.WriteString("; ")
		}
		printCmd(b, c)
	}
}

func printCmd(b *strings.Builder, c Cmd) {
	switch c := c.(type) {
	case nil:
		return
	case *Block:
		b.WriteByte('{')
		printSeq(b, c)
		b.WriteByte('}')
	case *Simple:
		for i, w := range c.Words {
			if i > 0 {
				b.WriteByte(' ')
			}
			if i == 0 {
				printCmdWord(b, w)
			} else {
				printWord(b, w)
			}
		}
	case *Assign:
		printWord(b, c.Name)
		b.WriteString(" =")
		for _, v := range c.Values {
			b.WriteByte(' ')
			printWord(b, v)
		}
	case *Bind:
		b.WriteString(c.Kind.String())
		b.WriteString(" (")
		for i, bind := range c.Bindings {
			if i > 0 {
				b.WriteString("; ")
			}
			printWord(b, bind.Name)
			b.WriteString(" =")
			for _, v := range bind.Values {
				b.WriteByte(' ')
				printWord(b, v)
			}
		}
		b.WriteString(") ")
		printCmd(b, c.Body)
	case *Match:
		b.WriteByte('~')
		if c.Extract {
			b.WriteByte('~')
		}
		b.WriteByte(' ')
		printWord(b, c.Subject)
		for _, p := range c.Pats {
			b.WriteByte(' ')
			printWord(b, p)
		}
	case *Not:
		b.WriteString("! ")
		printCmd(b, c.Body)
	case *Pipe:
		printCmd(b, c.Left)
		b.WriteString(" |")
		if c.LFd != 1 || c.RFd != 0 {
			b.WriteByte('[')
			b.WriteString(strconv.Itoa(c.LFd))
			if c.RFd != 0 {
				b.WriteByte('=')
				b.WriteString(strconv.Itoa(c.RFd))
			}
			b.WriteByte(']')
		}
		b.WriteByte(' ')
		printCmd(b, c.Right)
	case *AndOr:
		printCmd(b, c.Left)
		if c.Op == ANDAND {
			b.WriteString(" && ")
		} else {
			b.WriteString(" || ")
		}
		printCmd(b, c.Right)
	case *Bg:
		printCmd(b, c.Body)
		b.WriteString(" &")
	case *RedirCmd:
		printCmd(b, c.Body)
		for _, r := range c.Redirs {
			b.WriteByte(' ')
			printRedir(b, r)
		}
	case *Fn:
		b.WriteString("fn ")
		printWord(b, c.Name)
		if c.Lambda != nil {
			for _, p := range c.Lambda.Params {
				b.WriteByte(' ')
				b.WriteString(p)
			}
			b.WriteByte(' ')
			b.WriteByte('{')
			printSeq(b, c.Lambda.Body)
			b.WriteByte('}')
		}
	}
}

func printRedir(b *strings.Builder, r *Redir) {
	switch r.Op {
	case RedirTo:
		b.WriteByte('>')
		if r.Fd != 1 {
			b.WriteByte('[')
			b.WriteString(strconv.Itoa(r.Fd))
			b.WriteByte(']')
		}
	case RedirAppend:
		b.WriteString(">>")
		if r.Fd != 1 {
			b.WriteByte('[')
			b.WriteString(strconv.Itoa(r.Fd))
			b.WriteByte(']')
		}
	case RedirFrom:
		b.WriteByte('<')
		if r.Fd != 0 {
			b.WriteByte('[')
			b.WriteString(strconv.Itoa(r.Fd))
			b.WriteByte(']')
		}
	case RedirHere:
		b.WriteString("<<<")
		if r.Fd != 0 {
			b.WriteByte('[')
			b.WriteString(strconv.Itoa(r.Fd))
			b.WriteByte(']')
		}
	case RedirDup:
		b.WriteString(">[")
		b.WriteString(strconv.Itoa(r.Fd))
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(r.Fd2))
		b.WriteByte(']')
	case RedirClose:
		b.WriteString(">[")
		b.WriteString(strconv.Itoa(r.Fd))
		b.WriteString("=]")
	}
	if r.Target != nil {
		b.WriteByte(' ')
		printWord(b, r.Target)
	}
}

// printCmdWord prints a word in command position, quoting a literal that
// would otherwise re-parse as a keyword (`{let} must not become the let
// syntax form).
func printCmdWord(b *strings.Builder, w *Word) {
	if text, ok := w.LitText(); ok {
		switch text {
		case "fn", "let", "local", "for":
			b.WriteByte('\'')
			b.WriteString(text)
			b.WriteByte('\'')
			return
		}
	}
	printWord(b, w)
}

func printWord(b *strings.Builder, w *Word) {
	if w == nil {
		return
	}
	for i, part := range w.Parts {
		if i > 0 && needCaret(w.Parts[i-1], part) {
			b.WriteByte('^')
		}
		printPart(b, part)
	}
}

// needCaret reports whether adjacent printing of prev and next would re-lex
// differently, requiring an explicit '^' concatenation.
func needCaret(prev, next Part) bool {
	switch p := prev.(type) {
	case *Lit:
		n, ok := next.(*Lit)
		if !ok {
			return false
		}
		// Two raw literals would merge into one token; two quoted
		// literals would merge their quotes ('a''b' is one word).
		prevQuoted := willQuote(p)
		nextQuoted := willQuote(n)
		return prevQuoted == nextQuoted
	case *Var, *Prim:
		switch n := next.(type) {
		case *Lit:
			if v, ok := p.(*Var); ok && len(v.Index) > 0 {
				return false // ')' already ended the name
			}
			text := quoteIfNeeded(n.Text, n.Quoted)
			return text != "" && isNameChar(text[0])
		case *ListPart:
			// $a(b) would re-lex as a subscript.
			if v, ok := p.(*Var); ok && len(v.Index) > 0 {
				return false
			}
			return true
		}
	}
	return false
}

func willQuote(l *Lit) bool {
	return strings.HasPrefix(quoteIfNeeded(l.Text, l.Quoted), "'")
}

func printPart(b *strings.Builder, part Part) {
	switch part := part.(type) {
	case *Lit:
		b.WriteString(quoteIfNeeded(part.Text, part.Quoted))
	case *Var:
		switch {
		case part.Count:
			b.WriteString("$#")
		case part.Double:
			b.WriteString("$$")
		case part.Flat:
			b.WriteString("$^")
		default:
			b.WriteByte('$')
		}
		if text, ok := part.Name.LitText(); ok && isPlainName(text) {
			b.WriteString(text)
		} else {
			b.WriteByte('(')
			printWord(b, part.Name)
			b.WriteByte(')')
		}
		if len(part.Index) > 0 {
			b.WriteByte('(')
			for i, w := range part.Index {
				if i > 0 {
					b.WriteByte(' ')
				}
				printWord(b, w)
			}
			b.WriteByte(')')
		}
	case *Prim:
		b.WriteString("$&")
		b.WriteString(part.Name)
	case *CmdSub:
		b.WriteString("`{")
		printSeq(b, part.Body)
		b.WriteByte('}')
	case *RetSub:
		b.WriteString("<>{")
		printSeq(b, part.Body)
		b.WriteByte('}')
	case *LambdaPart:
		printLambda(b, part.Lambda)
	case *ListPart:
		b.WriteByte('(')
		for i, w := range part.Words {
			if i > 0 {
				b.WriteByte(' ')
			}
			printWord(b, w)
		}
		b.WriteByte(')')
	}
}

func printLambda(b *strings.Builder, l *Lambda) {
	if l.HasParams {
		b.WriteString("@ ")
		for _, p := range l.Params {
			b.WriteString(p)
			b.WriteByte(' ')
		}
	}
	b.WriteByte('{')
	printSeq(b, l.Body)
	b.WriteByte('}')
}

// QuoteString renders s as a single es word, quoting when necessary.
func QuoteString(s string) string { return quoteIfNeeded(s, false) }

// isPlainName reports whether every character of text is a name
// character (the lexer's rule), as in a parameter or primitive name.  A
// variable name that is not plain needs the $(name) computed form to
// re-lex whole after '$'.
func isPlainName(text string) bool {
	if text == "" {
		return false
	}
	for i := 0; i < len(text); i++ {
		if !isNameChar(text[i]) {
			return false
		}
	}
	return true
}

// quoteIfNeeded quotes text with rc-style single quotes when it contains
// characters that would not re-lex as a single plain word, or when the
// original was quoted (preserving glob exemption).  A lone backslash is
// quoted too: Pretty may end a line after it, and a backslash that starts
// a token joins the next line.
func quoteIfNeeded(text string, quoted bool) string {
	need := quoted || text == "" || text == `\`
	if !need {
		for i := 0; i < len(text); i++ {
			c := text[i]
			if wordBreak(c) {
				need = true
				break
			}
		}
		// Tokens special only at the start of a word.
		if !need {
			switch text[0] {
			case '~', '@', '!':
				need = true
			}
		}
	}
	if !need {
		return text
	}
	return "'" + strings.ReplaceAll(text, "'", "''") + "'"
}
