package syntax

import "strconv"

// Rewrite lowers surface syntax into the paper's core forms.  "In es,
// almost all standard shell constructs (e.g., pipes and redirection) are
// translated into a uniform representation: function calls."
//
//	a | b          →  %pipe {a} 1 0 {b}
//	a |[2] b       →  %pipe {a} 2 0 {b}
//	cmd > f        →  %create 1 f {cmd}
//	cmd >> f       →  %append 1 f {cmd}
//	cmd < f        →  %open 0 f {cmd}
//	cmd >[1=2]     →  %dup 1 2 {cmd}
//	cmd >[2=]      →  %close 2 {cmd}
//	cmd &          →  %background {cmd}
//	a && b         →  %and {a} {b}
//	a || b         →  %or {a} {b}
//	`{cmd}         →  (split over $ifs of) <>{%backquote {cmd}}
//	fn f p {b}     →  fn-f = @ p {b}
//	fn f           →  fn-f =
//
// The rewritten tree contains only Block, Simple, Assign, Bind (let,
// local and for), Match (~ and ~~) and Not command nodes.  Because the targets are ordinary hook
// functions (fn-%pipe and friends, bound in initial.es), redefining them
// from the shell changes the behaviour of the corresponding syntax — the
// paper's "spoofing".
//
// Rewrite lowers the tree in place: it stores each rewritten command back
// into its parent and allocates only the nodes it synthesizes (the hook
// calls and their words, thunks, the Simple or Assign that replaces a
// surface command, and the fn- prefix).  Its argument must be a tree
// fresh from Parse that nothing else holds.  A Block is rewritten to
// itself, and rewriting a core tree again changes nothing.
func Rewrite(c Cmd) Cmd {
	switch c := c.(type) {
	case *Block:
		rewriteSeq(c)
	case *Simple:
		rewriteWords(c.Words)
	case *RedirCmd:
		return rewriteRedirs(Rewrite(c.Body), c.Redirs)
	case *Assign:
		rewriteWord(c.Name)
		rewriteWords(c.Values)
	case *Bind:
		for _, b := range c.Bindings {
			rewriteWord(b.Name)
			rewriteWords(b.Values)
		}
		c.Body = Rewrite(c.Body)
	case *Match:
		rewriteWord(c.Subject)
		rewriteWords(c.Pats)
	case *Not:
		c.Body = Rewrite(c.Body)
	case *Pipe:
		// a | b | c → %pipe {a} 1 0 {b} 1 0 {c}
		return &Simple{Words: pipeOperands([]*Word{litWordAt(c.Pos, "%pipe")}, c), Pos: c.Pos}
	case *AndOr:
		hook := "%and"
		if c.Op == OROR {
			hook = "%or"
		}
		return &Simple{Words: andOrOperands([]*Word{litWordAt(c.Pos, hook)}, c, c.Op), Pos: c.Pos}
	case *Bg:
		return &Simple{Words: []*Word{litWordAt(c.Pos, "%background"), thunk(c.Body)}, Pos: c.Pos}
	case *Fn:
		name := c.Name
		rewriteWord(name)
		if lit, ok := name.Parts[0].(*Lit); ok && !lit.Quoted {
			lit.Text = "fn-" + lit.Text
		} else {
			name.Parts = append([]Part{&Lit{Text: "fn-"}}, name.Parts...)
		}
		if c.Lambda == nil {
			return &Assign{Name: name, Pos: c.Pos}
		}
		rewriteSeq(c.Lambda.Body)
		w := LambdaWord(c.Lambda)
		w.Pos = c.Lambda.Pos
		return &Assign{Name: name, Values: []*Word{w}, Pos: c.Pos}
	}
	return c
}

// litWordAt is LitWord anchored to a source position, so words the
// rewriter synthesizes (hook-call heads like %pipe) still point at the
// construct they came from.
func litWordAt(pos Pos, text string) *Word {
	w := LitWord(text)
	w.Pos = pos
	return w
}

// andOrOperands appends a thunk for each operand of c to words,
// flattening nested AndOr nodes with the same operator into one call.
func andOrOperands(words []*Word, c Cmd, op Kind) []*Word {
	if ao, ok := c.(*AndOr); ok && ao.Op == op {
		return andOrOperands(andOrOperands(words, ao.Left, op), ao.Right, op)
	}
	return append(words, thunk(c))
}

// pipeOperands appends the operands of a pipeline to words: a thunk for
// each element, and the two descriptors of each pipe between them.
func pipeOperands(words []*Word, c Cmd) []*Word {
	p, ok := c.(*Pipe)
	if !ok {
		return append(words, thunk(c))
	}
	words = pipeOperands(words, p.Left)
	words = append(words, litWordAt(p.Pos, strconv.Itoa(p.LFd)), litWordAt(p.Pos, strconv.Itoa(p.RFd)))
	return pipeOperands(words, p.Right)
}

// redirHooks names the hook each redirection operator calls.
var redirHooks = [...]string{
	RedirFrom:   "%open",
	RedirTo:     "%create",
	RedirAppend: "%append",
	RedirDup:    "%dup",
	RedirClose:  "%close",
	RedirHere:   "%here",
}

// rewriteRedirs nests redirection hook calls around a rewritten command,
// first redir outermost (so it is applied first).
func rewriteRedirs(body Cmd, redirs []*Redir) Cmd {
	out := body
	for i := len(redirs) - 1; i >= 0; i-- {
		r := redirs[i]
		words := make([]*Word, 2, 4)
		words[0] = litWordAt(r.Pos, redirHooks[r.Op])
		words[1] = litWordAt(r.Pos, strconv.Itoa(r.Fd))
		switch {
		case r.Op == RedirDup:
			words = append(words, litWordAt(r.Pos, strconv.Itoa(r.Fd2)))
		case r.Target != nil:
			rewriteWord(r.Target)
			words = append(words, r.Target)
		}
		words = append(words, thunkAt(CmdPos(out), out))
		out = &Simple{Words: words, Pos: r.Pos}
	}
	return out
}

// thunk rewrites a command and wraps it as a parameterless {…} fragment
// anchored to the command's source position.
func thunk(c Cmd) *Word {
	return thunkAt(CmdPos(c), Rewrite(c))
}

// thunkAt wraps a rewritten command as a {…} fragment anchored at pos.
func thunkAt(pos Pos, c Cmd) *Word {
	body, ok := c.(*Block)
	if !ok {
		body = &Block{Cmds: []Cmd{c}}
	}
	if !body.Pos.Known() {
		body.Pos = pos
	}
	w := LambdaWord(&Lambda{Body: body, Pos: pos})
	w.Pos = pos
	return w
}

// rewriteSeq rewrites each command of a block into its slot.
func rewriteSeq(b *Block) {
	if b == nil {
		return
	}
	for k, sub := range b.Cmds {
		b.Cmds[k] = Rewrite(sub)
	}
}

func rewriteWords(ws []*Word) {
	for _, w := range ws {
		rewriteWord(w)
	}
}

// rewriteWord rewrites the command blocks nested in a word's parts.
func rewriteWord(w *Word) {
	if w == nil {
		return
	}
	for _, part := range w.Parts {
		switch part := part.(type) {
		case *Var:
			rewriteWord(part.Name)
			rewriteWords(part.Index)
		case *CmdSub:
			rewriteSeq(part.Body)
		case *RetSub:
			rewriteSeq(part.Body)
		case *LambdaPart:
			rewriteSeq(part.Lambda.Body)
		case *ListPart:
			rewriteWords(part.Words)
		}
	}
}
