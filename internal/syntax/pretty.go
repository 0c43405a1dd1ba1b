package syntax

import "strings"

// Pretty renders a program in canonical multi-line form: one command per
// line, brace bodies indented with tabs, binding forms split when their
// bodies are blocks.  The output parses back to the same tree (the same
// guarantee Unparse gives), so esfmt can rewrite scripts safely.
func Pretty(blk *Block) string {
	var p prettyPrinter
	p.seqLines(blk, 0)
	out := strings.Join(p.lines, "\n")
	if out != "" {
		out += "\n"
	}
	return out
}

type prettyPrinter struct {
	lines []string
}

func (p *prettyPrinter) emit(depth int, text string) {
	p.lines = append(p.lines, strings.Repeat("\t", depth)+text)
}

// seqLines prints each command of a block on its own line.
func (p *prettyPrinter) seqLines(blk *Block, depth int) {
	for _, c := range blk.Cmds {
		p.cmdLines(c, depth)
	}
}

// blockNeedsSplit reports whether a brace body deserves its own lines:
// more than one command, or a single command that itself splits.
func blockNeedsSplit(b *Block) bool {
	if b == nil {
		return false
	}
	return len(b.Cmds) > 1 || (len(b.Cmds) == 1 && bodyIsMultiline(b.Cmds[0]))
}

// bodyIsMultiline reports whether a command deserves brace-and-indent
// treatment: more than one command, or a nested multi-line body.
func bodyIsMultiline(c Cmd) bool {
	switch c := c.(type) {
	case *Block:
		return blockNeedsSplit(c)
	case *Simple:
		// A simple command whose trailing argument is a brace body that
		// splits prints multi-line (fn-style definitions).
		for _, w := range c.Words {
			if lp, ok := singleLambda(w); ok && blockNeedsSplit(lp.Body) {
				return true
			}
		}
	case *Let:
		return bodyIsMultiline(c.Body)
	case *Local:
		return bodyIsMultiline(c.Body)
	case *For:
		return bodyIsMultiline(c.Body)
	case *Fn:
		return c.Lambda != nil && blockNeedsSplit(c.Lambda.Body)
	case *Assign:
		for _, w := range c.Values {
			if lp, ok := singleLambda(w); ok && blockNeedsSplit(lp.Body) {
				return true
			}
		}
	}
	return false
}

func singleLambda(w *Word) (*Lambda, bool) {
	if w == nil || len(w.Parts) != 1 {
		return nil, false
	}
	lp, ok := w.Parts[0].(*LambdaPart)
	if !ok {
		return nil, false
	}
	return lp.Lambda, true
}

// cmdLines prints one command, splitting brace bodies across lines when
// they hold more than one command.
func (p *prettyPrinter) cmdLines(c Cmd, depth int) {
	switch c := c.(type) {
	case nil:
		return
	case *Block:
		if !bodyIsMultiline(c) {
			p.emit(depth, Unparse(c))
			return
		}
		p.emit(depth, "{")
		p.seqLines(c, depth+1)
		p.emit(depth, "}")
	case *Fn:
		if c.Lambda == nil || !blockNeedsSplit(c.Lambda.Body) {
			p.emit(depth, Unparse(c))
			return
		}
		var head strings.Builder
		head.WriteString("fn ")
		printWord(&head, c.Name)
		for _, param := range c.Lambda.Params {
			head.WriteByte(' ')
			head.WriteString(param)
		}
		head.WriteString(" {")
		p.emit(depth, head.String())
		p.seqLines(c.Lambda.Body, depth+1)
		p.emit(depth, "}")
	case *Let, *Local, *For:
		p.bindingLines(c, depth)
	case *Simple:
		p.simpleLines(c, depth)
	case *Assign:
		p.assignLines(c, depth)
	default:
		p.emit(depth, Unparse(c))
	}
}

func (p *prettyPrinter) bindingLines(c Cmd, depth int) {
	var kw string
	var bindings []Binding
	var body Cmd
	switch c := c.(type) {
	case *Let:
		kw, bindings, body = "let", c.Bindings, c.Body
	case *Local:
		kw, bindings, body = "local", c.Bindings, c.Body
	case *For:
		kw, bindings, body = "for", c.Bindings, c.Body
	}
	if !bodyIsMultiline(body) {
		p.emit(depth, Unparse(c))
		return
	}
	var head strings.Builder
	head.WriteString(kw)
	head.WriteString(" (")
	for k, b := range bindings {
		if k > 0 {
			head.WriteString("; ")
		}
		printWord(&head, b.Name)
		head.WriteString(" =")
		for _, v := range b.Values {
			head.WriteByte(' ')
			printWord(&head, v)
		}
	}
	head.WriteString(")")
	if blk := groupBody(body); blk != nil {
		head.WriteString(" {")
		p.emit(depth, head.String())
		p.seqLines(blk, depth+1)
		p.emit(depth, "}")
		return
	}
	// A non-block body (a chained let/for/fn) continues on the next
	// line, indented — the grammar allows a newline after the binding
	// list, so no grouping braces are added.
	p.emit(depth, head.String())
	p.cmdLines(body, depth+1)
}

// groupBody unwraps a command that is just a brace group (directly, or as
// the Simple{lambda} form a reparse produces) to its command sequence.
func groupBody(c Cmd) *Block {
	switch c := c.(type) {
	case *Block:
		return c
	case *Simple:
		if len(c.Words) == 1 {
			if l, ok := singleLambda(c.Words[0]); ok && !l.HasParams {
				return l.Body
			}
		}
	}
	return nil
}

// simpleLines splits a trailing multi-command brace argument across
// lines: `if {cond} {a; b; c}` becomes an indented body.
func (p *prettyPrinter) simpleLines(c *Simple, depth int) {
	n := len(c.Words)
	if n == 0 {
		p.emit(depth, Unparse(c))
		return
	}
	last, ok := singleLambda(c.Words[n-1])
	if !ok || !blockNeedsSplit(last.Body) || last.HasParams {
		p.emit(depth, Unparse(c))
		return
	}
	var head strings.Builder
	for k := 0; k < n-1; k++ {
		if k > 0 {
			head.WriteByte(' ')
		}
		if k == 0 {
			printCmdWord(&head, c.Words[k])
		} else {
			printWord(&head, c.Words[k])
		}
	}
	if n > 1 {
		head.WriteByte(' ')
	}
	head.WriteByte('{')
	p.emit(depth, head.String())
	p.seqLines(last.Body, depth+1)
	p.emit(depth, "}")
}

func (p *prettyPrinter) assignLines(c *Assign, depth int) {
	n := len(c.Values)
	if n == 0 {
		p.emit(depth, Unparse(c))
		return
	}
	last, ok := singleLambda(c.Values[n-1])
	if !ok || !blockNeedsSplit(last.Body) {
		p.emit(depth, Unparse(c))
		return
	}
	var head strings.Builder
	printWord(&head, c.Name)
	head.WriteString(" =")
	for k := 0; k < n-1; k++ {
		head.WriteByte(' ')
		printWord(&head, c.Values[k])
	}
	head.WriteByte(' ')
	if last.HasParams {
		head.WriteString("@ ")
		for _, param := range last.Params {
			head.WriteString(param)
			head.WriteByte(' ')
		}
	}
	head.WriteByte('{')
	p.emit(depth, head.String())
	p.seqLines(last.Body, depth+1)
	p.emit(depth, "}")
}
