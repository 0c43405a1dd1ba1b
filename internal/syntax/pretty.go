package syntax

import "strings"

// Pretty renders a program in canonical multi-line form: one command per
// line, brace bodies indented with tabs, binding forms split when their
// bodies are blocks.  The output parses back to the same tree (the same
// guarantee Unparse gives), so esfmt can rewrite scripts safely.  Every
// line is Unparse text: a split body's opening line is its command's
// unparse up to the body's '{', so no head is spelled twice.
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
	case *Bind:
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
	if c == nil {
		return
	}
	text := Unparse(c)
	blk := splitBody(c)
	if b, ok := c.(*Bind); ok && blk == nil && bodyIsMultiline(b.Body) {
		// A non-block body (a chained let/for/fn) continues on the next
		// line, indented — the grammar allows a newline after the binding
		// list, so no grouping braces are added.
		p.emit(depth, strings.TrimSuffix(text, " "+Unparse(b.Body)))
		p.cmdLines(b.Body, depth+1)
		return
	}
	if blk == nil {
		p.emit(depth, text)
		return
	}
	// c prints blk last, as '{', its commands and '}'.
	p.emit(depth, strings.TrimSuffix(text, UnparseBody(blk)+"}"))
	p.seqLines(blk, depth+1)
	p.emit(depth, "}")
}

// splitBody returns the brace body that c prints last, when it goes on
// lines of its own: a block's own commands, a binding form's body that is
// a brace group, a fn's body, and the trailing brace argument of a simple
// command (`if {cond} {a; b; c}`, but not one with a parameter list) or
// of an assignment.
func splitBody(c Cmd) *Block {
	var l *Lambda
	switch c := c.(type) {
	case *Block:
		if blockNeedsSplit(c) {
			return c
		}
	case *Bind:
		if bodyIsMultiline(c.Body) {
			return groupBody(c.Body)
		}
	case *Fn:
		l = c.Lambda
	case *Simple:
		if n := len(c.Words); n > 0 {
			if l, _ = singleLambda(c.Words[n-1]); l != nil && l.HasParams {
				l = nil
			}
		}
	case *Assign:
		if n := len(c.Values); n > 0 {
			l, _ = singleLambda(c.Values[n-1])
		}
	}
	if l == nil || !blockNeedsSplit(l.Body) {
		return nil
	}
	return l.Body
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
