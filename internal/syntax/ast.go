package syntax

import "strconv"

// The AST.  Parse produces surface nodes; Rewrite lowers the surface sugar
// (pipes, redirections, background, && and ||, fn definitions) into core
// forms, in place: calls on %-hook functions, assignments, and the binding
// forms.  Every layer after the parser (the compiler, the evaluator, the
// analyzer) takes core trees only.
//
// Nodes shared by both layers: Word and its Parts, Block, Simple, Assign,
// Bind (let, local and for, by its Kind), Match (~, and ~~ when it
// extracts), Not, Lambda.  Each core form is one node type, so a reader
// of a tree has one case per form.
// Surface-only nodes eliminated by Rewrite: Pipe, AndOr, Bg, RedirCmd, Fn.

// Pos is a source position: 1-based line and column.  The zero Pos means
// "unknown" — synthesized nodes the rewriter cannot anchor to any source
// token.  Positions ride along for diagnostics (the static analyzer and
// evaluator error messages); they never affect evaluation.
type Pos struct {
	Line int
	Col  int
}

// Known reports whether the position refers to real source text.
func (p Pos) Known() bool { return p.Line > 0 }

func (p Pos) String() string {
	return strconv.Itoa(p.Line) + ":" + strconv.Itoa(p.Col)
}

// Cmd is any command node.
type Cmd interface{ cmd() }

// CmdPos returns the source position of a command node (the zero Pos
// when unknown).
func CmdPos(c Cmd) Pos {
	switch c := c.(type) {
	case *Block:
		return c.Pos
	case *Simple:
		return c.Pos
	case *Assign:
		return c.Pos
	case *Bind:
		return c.Pos
	case *Match:
		return c.Pos
	case *Not:
		return c.Pos
	case *Pipe:
		return c.Pos
	case *AndOr:
		return c.Pos
	case *Bg:
		return c.Pos
	case *RedirCmd:
		return c.Pos
	case *Fn:
		return c.Pos
	}
	return Pos{}
}

// Part is one component of a Word.
type Part interface{ part() }

// Word is a (possibly concatenated) word: adjacent parts with no
// intervening space, or parts joined by '^'.
type Word struct {
	Parts []Part
	Pos   Pos
}

// Lit is literal text.  Quoted text is exempt from globbing.
type Lit struct {
	Text   string
	Quoted bool
}

// Var is a variable reference: $name, $#name (count), $$name (double
// dereference), with an optional subscript list $name(i j ...).
// Name is itself a Word so computed names like $(fn-$func) work.
type Var struct {
	Name   *Word
	Count  bool
	Double bool
	Flat   bool // $^name: the value joined into one word
	Index  []*Word
	Pos    Pos
}

// Prim is a $&name primitive reference.
type Prim struct {
	Name string
	Pos  Pos
}

// CmdSub is `{...}: run the block, capture its output, split on $ifs.
type CmdSub struct {
	Body *Block
	Pos  Pos
}

// RetSub is <>{...} (also spelled <={...}): run the block and splice its
// rich return value into the word list.
type RetSub struct {
	Body *Block
	Pos  Pos
}

// LambdaPart is a lambda in word position: @ params {body} or a bare
// {body} fragment.
type LambdaPart struct {
	Lambda *Lambda
}

// ListPart is a parenthesised word list (a b c), spliced into place.
type ListPart struct {
	Words []*Word
}

// Lambda is a procedure value waiting to happen.  HasParams distinguishes
// "@ {body}" (declared, zero parameters) from "{body}" (no parameter list:
// arguments bind to *).
type Lambda struct {
	Params    []string
	HasParams bool
	Body      *Block
	Pos       Pos
}

// Block is a brace-enclosed (or top-level) command sequence.
type Block struct {
	Cmds []Cmd
	Pos  Pos
}

// Simple is a command invocation: evaluate the words, apply the first
// value to the rest.
type Simple struct {
	Words []*Word
	Pos   Pos
}

// Redir is one surface redirection.
type Redir struct {
	Op     RedirOp
	Fd     int
	Fd2    int // for RedirDup
	Target *Word
	Pos    Pos
}

// Assign is name = values.  Name is a Word (computed targets such as
// fn-$i = ... are allowed).
type Assign struct {
	Name   *Word
	Values []*Word
	Pos    Pos
}

// Binding is one name = values pair in let/local/for headers.
type Binding struct {
	Name   *Word
	Values []*Word
}

// BindKind names a binding form; it prints as the form's keyword.
type BindKind uint8

const (
	BindLet   BindKind = iota // lexically binds names around the body
	BindLocal                 // dynamically binds them, old values restored after
	BindFor                   // iterates the bindings in parallel over their values
)

var bindKeywords = [...]string{BindLet: "let", BindLocal: "local", BindFor: "for"}

func (k BindKind) String() string { return bindKeywords[k] }

// Bind is a binding form, let, local or for: Bindings around Body.
type Bind struct {
	Kind     BindKind
	Bindings []Binding
	Body     Cmd
	Pos      Pos
}

// Match is ~ subject patterns..., true when a pattern matches a subject.
// With Extract it is ~~, whose result is instead the text matched by each
// wildcard of the first pattern that matches.
type Match struct {
	Subject *Word
	Pats    []*Word
	Extract bool
	Pos     Pos
}

// Not inverts the truth of its command (the paper's ! command).
type Not struct {
	Body Cmd
	Pos  Pos
}

// Surface-only nodes.

// Pipe is left |[LFd=RFd] right.  Fds default to 1 and 0.
type Pipe struct {
	Left  Cmd
	LFd   int
	RFd   int
	Right Cmd
	Pos   Pos
}

// AndOr is && / ||.
type AndOr struct {
	Op    Kind // ANDAND or OROR
	Left  Cmd
	Right Cmd
	Pos   Pos
}

// Bg is cmd &.
type Bg struct {
	Body Cmd
	Pos  Pos
}

// RedirCmd attaches redirections to an arbitrary command, e.g. {a;b} > f.
type RedirCmd struct {
	Body   Cmd
	Redirs []*Redir
	Pos    Pos
}

// Fn is fn name params {body}; sugar for fn-name = @ params {body}.
// A bare "fn name" (no body) undefines the function.
type Fn struct {
	Name   *Word
	Lambda *Lambda // nil to undefine
	Pos    Pos
}

func (*Lit) part()        {}
func (*Var) part()        {}
func (*Prim) part()       {}
func (*CmdSub) part()     {}
func (*RetSub) part()     {}
func (*LambdaPart) part() {}
func (*ListPart) part()   {}

func (*Block) cmd()    {}
func (*Simple) cmd()   {}
func (*Assign) cmd()   {}
func (*Bind) cmd()     {}
func (*Match) cmd()    {}
func (*Not) cmd()      {}
func (*Pipe) cmd()     {}
func (*AndOr) cmd()    {}
func (*Bg) cmd()       {}
func (*RedirCmd) cmd() {}
func (*Fn) cmd()       {}

// LitWord constructs a Word holding unquoted literal text.
func LitWord(text string) *Word {
	return &Word{Parts: []Part{&Lit{Text: text}}}
}

// QuotedWord constructs a Word holding quoted literal text.
func QuotedWord(text string) *Word {
	return &Word{Parts: []Part{&Lit{Text: text, Quoted: true}}}
}

// LambdaWord wraps a lambda as a word.
func LambdaWord(l *Lambda) *Word {
	return &Word{Parts: []Part{&LambdaPart{Lambda: l}}}
}

// LitText returns the text of a Word consisting of a single literal part,
// and whether it is such a word.
func (w *Word) LitText() (string, bool) {
	if w == nil || len(w.Parts) != 1 {
		return "", false
	}
	l, ok := w.Parts[0].(*Lit)
	if !ok {
		return "", false
	}
	return l.Text, true
}
