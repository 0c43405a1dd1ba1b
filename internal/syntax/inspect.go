package syntax

// Inspect traverses a core tree in depth-first order, in the manner of
// go/ast.Inspect: it calls f(n), where n is a command, a *Word or a word
// part, and if f returns true, Inspect visits n's children in source
// order:
//
//   - a block's commands;
//   - a command's words and bodies;
//   - a Bind's names and values, binding by binding, then its body;
//   - a word's parts;
//   - a variable's name and subscripts;
//   - a substitution's or a lambda's body;
//   - a list's words.
//
// A surface node (Pipe, AndOr, Bg, RedirCmd, Fn) is passed to f but not
// descended: the readers of a tree see only rewritten ones.  Inspect
// skips nil nodes.  A Bind and a lambda are where a reader that tracks
// scope returns false and walks the children itself.
func Inspect(n any, f func(any) bool) {
	if n == nil || n == (*Block)(nil) || n == (*Word)(nil) || !f(n) {
		return
	}
	switch n := n.(type) {
	case *Block:
		for _, c := range n.Cmds {
			Inspect(c, f)
		}
	case *Simple:
		inspectWords(n.Words, f)
	case *Assign:
		Inspect(n.Name, f)
		inspectWords(n.Values, f)
	case *Bind:
		for _, b := range n.Bindings {
			Inspect(b.Name, f)
			inspectWords(b.Values, f)
		}
		Inspect(n.Body, f)
	case *Match:
		Inspect(n.Subject, f)
		inspectWords(n.Pats, f)
	case *Not:
		Inspect(n.Body, f)
	case *Word:
		for _, p := range n.Parts {
			Inspect(p, f)
		}
	case *Var:
		Inspect(n.Name, f)
		inspectWords(n.Index, f)
	case *CmdSub:
		Inspect(n.Body, f)
	case *RetSub:
		Inspect(n.Body, f)
	case *LambdaPart:
		if n.Lambda != nil {
			Inspect(n.Lambda.Body, f)
		}
	case *ListPart:
		inspectWords(n.Words, f)
	}
}

func inspectWords(ws []*Word, f func(any) bool) {
	for _, w := range ws {
		Inspect(w, f)
	}
}
