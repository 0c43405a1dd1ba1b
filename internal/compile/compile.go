// Package compile lowers syntax trees to a compact, flat instruction
// form, the only form the evaluator in internal/core executes.
//
// The parse cache (internal/core.ParseCommand) already makes rewritten
// trees shared and immutable, which is exactly the precondition for a
// compile step: each *syntax.Block is lowered once, process-wide, and the
// compiled Unit is reused by every evaluation and every interpreter.
//
// Compile is total.  Every tree ParseCommand makes is already rewritten to
// the core forms, and a surface node that reaches the compiler anyway (an
// embedder evaluating an unrewritten tree) is lowered through
// syntax.Rewrite on the spot, so every block the parser accepts compiles.
//
// What the lowering does once, so that no evaluation repeats it:
//
//   - each command node becomes a dense opcode, so dispatch is one
//     switch, not a type assertion per evaluation;
//   - word parts are pre-lowered: literal text becomes a pre-built
//     glob.Pattern constant (quoting masks included), so evaluation never
//     re-scans source text or re-allocates literal masks;
//   - fully static words — no variable references, no substitutions — are
//     folded at compile time into constant piece lists, and fully static,
//     wildcard-free word lists become constant Term pools shared by every
//     execution (es lists are immutable, so sharing is safe);
//   - match patterns built from static words are compiled to glob
//     patterns once, not per evaluation;
//   - $&primitive references are interned to dense indices so the
//     evaluator dispatches through a flat table instead of a map;
//   - lambda and substitution bodies are compiled eagerly and registered
//     with the caller, so closure application starts on compiled code.
//
// The package deliberately knows nothing about the evaluator: it depends
// only on syntax and glob.  Execution semantics — environments, tail
// calls, cancellation, exceptions — live in internal/core.
package compile

import (
	"sync"

	"es/internal/glob"
	"es/internal/syntax"
)

// Op is a command opcode.
type Op uint8

const (
	// OpNop is an empty command (evaluates to the empty list, true).
	OpNop Op = iota
	// OpSimple evaluates Words and applies the first term to the rest.
	OpSimple
	// OpGroup is a bare {…} block in command position: grouping, not a
	// closure call — it runs Body in the enclosing environment.
	OpGroup
	// OpSeq is a nested command sequence (a *syntax.Block in command
	// position reached through rewriting).
	OpSeq
	// OpAssign is Name = Values.
	OpAssign
	// OpLet lexically binds Bindings around Body.
	OpLet
	// OpLocal dynamically binds Bindings around Body.
	OpLocal
	// OpFor iterates Bindings in parallel over their value lists.
	OpFor
	// OpMatch is ~ subject patterns…
	OpMatch
	// OpMatchExtract is ~~ subject patterns…
	OpMatchExtract
	// OpNot inverts the truth of Body.
	OpNot
)

// Unit is one compiled block.
type Unit struct {
	Block *syntax.Block // provenance (closure bodies still carry the AST)
	Seq   Seq
}

// Seq is a compiled command sequence; the result of a sequence is the
// result of its last instruction.
type Seq []Instr

// Body is a compiled command in body position (the body of let, local,
// for, and !).  IsBlock records whether the source command was a braced
// block: the evaluator counts a command boundary per block member, but
// not for a bare single-command body.
type Body struct {
	Seq     Seq
	IsBlock bool
}

// Instr is one compiled command.  The operand fields used depend on Op;
// unused fields are zero.
type Instr struct {
	Op Op

	Words    WordList  // OpSimple
	Name     *Word     // OpAssign target
	Values   WordList  // OpAssign values
	Bindings []Binding // OpLet / OpLocal / OpFor
	Subject  *Word     // OpMatch / OpMatchExtract
	Pats     Pats      // OpMatch / OpMatchExtract
	Body     Body      // OpLet / OpLocal / OpFor / OpNot body
	Seq      Seq       // OpGroup / OpSeq

	// HeadPrim pre-resolves $&prim command heads: when Words.Const is
	// non-nil and its first term is a primitive reference, HeadPrim holds
	// its interned index (else -1).  The evaluator dispatches through its
	// flat primitive table without building the head term at all.
	HeadPrim int
}

// Binding is one compiled name = values pair in a binding form header.
type Binding struct {
	Name   *Word
	Values WordList
}

// WordList is a compiled word list (command words, assignment values,
// binding values).
type WordList struct {
	Words []*Word
	// Const, when non-nil, is the exact, environment-independent term
	// list the words always evaluate to: every word is static and no
	// piece carries an unquoted wildcard (so no filename expansion can
	// intervene).  The evaluator shares one immutable List built from
	// this pool across all executions.
	Const []ConstTerm
}

// ConstTerm is one term of a constant word list: a plain string, or a
// $&primitive reference when Prim is non-empty.
type ConstTerm struct {
	Str     string
	Prim    string
	PrimIdx int
}

// Pats is a compiled match-pattern word list.
type Pats struct {
	Words []*Word
	// Static, when non-nil, is the pre-compiled pattern list: every
	// pattern word was static, so the patterns (masks included) are
	// constants.  nil with len(Words) == 0 means "no patterns".
	Static []glob.Pattern
}

// SegKind identifies one word segment.
type SegKind uint8

const (
	// SegLit is literal text, pre-built as a pattern with its quoting
	// mask.
	SegLit SegKind = iota
	// SegVar is a variable reference.
	SegVar
	// SegPrim is a $&name primitive reference.
	SegPrim
	// SegLambda is a lambda literal; the closure captures the runtime
	// environment.
	SegLambda
	// SegCmdSub is `{…}: output substitution through %backquote.
	SegCmdSub
	// SegRetSub is <={…}: rich return-value substitution.
	SegRetSub
	// SegList is a parenthesised word list, spliced into place.
	SegList
)

// StaticPiece is one pre-evaluated piece of a static word.
type StaticPiece struct {
	Pat     glob.Pattern
	Wild    bool   // Pat.HasWild(), computed once
	Prim    string // non-empty: the piece is a $&prim term
	PrimIdx int
}

// Word is one compiled word: segments joined pairwise by concatenation
// (the ^ operator and part adjacency).
type Word struct {
	Segs []Seg

	// Pos is the source position of the word, carried for diagnostics
	// (the evaluator anchors word-shape errors to it).
	Pos syntax.Pos

	// Static, when non-nil, holds the pieces the word always evaluates
	// to; StaticSet distinguishes a static empty word from a dynamic one.
	Static    []StaticPiece
	StaticSet bool

	// LitName is the word's value when used as a single name (variable
	// or binding target): set when the word is static with exactly one
	// non-prim piece.
	LitName    string
	LitNameSet bool

	// LoneVar marks the common $name word: a single plain variable
	// segment whose value splices directly into a term list with no
	// piece conversion at all.
	LoneVar bool
}

// Seg is one word segment.
type Seg struct {
	Kind SegKind

	// Pos anchors segment-level diagnostics (bad subscripts) to source.
	Pos syntax.Pos

	Pat glob.Pattern // SegLit

	// SegVar: the (usually static) name plus modifiers.
	Name    *Word  // nil when NameLit is set
	NameLit string // static variable name
	Count   bool   // $#name
	Double  bool   // $$name
	Flat    bool   // $^name
	Index   []*Word

	Prim    string // SegPrim
	PrimIdx int

	Lambda *syntax.Lambda // SegLambda (closure creation needs the AST)
	Block  *syntax.Block  // SegCmdSub / SegRetSub body

	Words []*Word // SegList
}

// Registrar receives the compiled unit for every nested block — lambda
// bodies, substitution bodies — encountered while compiling a parent, so
// closure application later starts on compiled code without recompiling.
type Registrar func(b *syntax.Block, u *Unit)

// Compile lowers a block, rewriting any surface node it meets.  reg may
// be nil.  Compilation cannot fail: the error is always nil.
func Compile(b *syntax.Block, reg Registrar) (*Unit, error) {
	c := &compiler{reg: reg}
	return c.block(b), nil
}

type compiler struct {
	reg Registrar
}

func (c *compiler) block(b *syntax.Block) *Unit {
	u := &Unit{Block: b}
	if b == nil {
		return u
	}
	u.Seq = make(Seq, len(b.Cmds))
	for k, cmd := range b.Cmds {
		u.Seq[k] = c.cmd(cmd)
	}
	return u
}

// subBlock compiles a nested block that may later be evaluated on its
// own (a lambda or substitution body) and registers the result.
func (c *compiler) subBlock(b *syntax.Block) {
	if b == nil {
		return
	}
	sub := c.block(b)
	if c.reg != nil {
		c.reg(b, sub)
	}
}

func (c *compiler) cmd(cmd syntax.Cmd) Instr {
	switch cmd := cmd.(type) {
	case nil:
		return Instr{Op: OpNop}
	case *syntax.Block:
		return Instr{Op: OpSeq, Seq: c.block(cmd).Seq}
	case *syntax.Simple:
		if len(cmd.Redirs) > 0 {
			return c.cmd(syntax.Rewrite(cmd))
		}
		return c.simple(cmd)
	case *syntax.Assign:
		return Instr{
			Op:     OpAssign,
			Name:   c.word(cmd.Name),
			Values: c.words(cmd.Values),
		}
	case *syntax.Let:
		return Instr{Op: OpLet, Bindings: c.bindings(cmd.Bindings), Body: c.body(cmd.Body)}
	case *syntax.Local:
		return Instr{Op: OpLocal, Bindings: c.bindings(cmd.Bindings), Body: c.body(cmd.Body)}
	case *syntax.For:
		return Instr{Op: OpFor, Bindings: c.bindings(cmd.Bindings), Body: c.body(cmd.Body)}
	case *syntax.Match:
		return Instr{Op: OpMatch, Subject: c.word(cmd.Subject), Pats: c.pats(cmd.Pats)}
	case *syntax.MatchExtract:
		return Instr{Op: OpMatchExtract, Subject: c.word(cmd.Subject), Pats: c.pats(cmd.Pats)}
	case *syntax.Not:
		return Instr{Op: OpNot, Body: c.body(cmd.Body)}
	default:
		// A surface node leaked through without Rewrite (pipe, and/or,
		// background, redirection, fn): Rewrite turns it into core forms.
		return c.cmd(syntax.Rewrite(cmd))
	}
}

// body compiles a command in body position.
func (c *compiler) body(cmd syntax.Cmd) Body {
	if cmd == nil {
		return Body{}
	}
	if b, ok := cmd.(*syntax.Block); ok {
		return Body{Seq: c.block(b).Seq, IsBlock: true}
	}
	return Body{Seq: Seq{c.cmd(cmd)}}
}

func (c *compiler) bindings(bs []syntax.Binding) []Binding {
	out := make([]Binding, len(bs))
	for k, b := range bs {
		out[k] = Binding{Name: c.word(b.Name), Values: c.words(b.Values)}
	}
	return out
}

func (c *compiler) simple(s *syntax.Simple) Instr {
	// A bare brace block in command position is grouping, not a call.
	if len(s.Words) == 1 && len(s.Words[0].Parts) == 1 {
		if lp, ok := s.Words[0].Parts[0].(*syntax.LambdaPart); ok && !lp.Lambda.HasParams {
			return Instr{Op: OpGroup, Seq: c.block(lp.Lambda.Body).Seq}
		}
	}
	in := Instr{Op: OpSimple, Words: c.words(s.Words), HeadPrim: -1}
	if len(in.Words.Const) > 0 && in.Words.Const[0].Prim != "" {
		in.HeadPrim = in.Words.Const[0].PrimIdx
	}
	return in
}

func (c *compiler) words(ws []*syntax.Word) WordList {
	wl := WordList{Words: make([]*Word, len(ws))}
	constOK := true
	var consts []ConstTerm
	for k, w := range ws {
		cw := c.word(w)
		wl.Words[k] = cw
		if !constOK || !cw.StaticSet {
			constOK = false
			continue
		}
		for _, sp := range cw.Static {
			switch {
			case sp.Prim != "":
				consts = append(consts, ConstTerm{Prim: sp.Prim, PrimIdx: sp.PrimIdx})
			case sp.Wild:
				// Filename expansion depends on the filesystem.
				constOK = false
			default:
				consts = append(consts, ConstTerm{Str: sp.Pat.String()})
			}
			if !constOK {
				break
			}
		}
	}
	if constOK {
		if consts == nil {
			consts = []ConstTerm{}
		}
		wl.Const = consts
	}
	return wl
}

func (c *compiler) pats(ws []*syntax.Word) Pats {
	p := Pats{Words: make([]*Word, len(ws))}
	staticOK := true
	var static []glob.Pattern
	for k, w := range ws {
		cw := c.word(w)
		p.Words[k] = cw
		if !staticOK || !cw.StaticSet {
			staticOK = false
			continue
		}
		for _, sp := range cw.Static {
			static = append(static, sp.Pattern())
		}
	}
	if staticOK {
		if static == nil {
			static = []glob.Pattern{}
		}
		p.Static = static
	}
	return p
}

// Pattern is the piece as a match pattern: a $&prim term matches its
// unparsed name literally.
func (sp StaticPiece) Pattern() glob.Pattern {
	if sp.Prim != "" {
		return glob.NewLiteral("$&" + sp.Prim)
	}
	return sp.Pat
}

func (c *compiler) word(w *syntax.Word) *Word {
	cw := &Word{}
	if w == nil {
		cw.Static = []StaticPiece{}
		cw.StaticSet = true
		return cw
	}
	cw.Pos = w.Pos
	cw.Segs = make([]Seg, len(w.Parts))
	for k, part := range w.Parts {
		cw.Segs[k] = c.part(part)
	}
	c.fold(cw)
	return cw
}

// fold computes the word's static pieces (mirroring the evaluator's
// incremental concatenation over parts) and its fast-path summaries.
func (c *compiler) fold(cw *Word) {
	if len(cw.Segs) == 0 {
		cw.Static = []StaticPiece{}
		cw.StaticSet = true
		return
	}
	if len(cw.Segs) == 1 {
		s := &cw.Segs[0]
		if s.Kind == SegVar && s.Name == nil && !s.Count && !s.Double && !s.Flat && len(s.Index) == 0 {
			cw.LoneVar = true
			return
		}
	}
	acc, ok := segStatic(cw.Segs[0:1])
	if !ok {
		return
	}
	for k := 1; k < len(cw.Segs); k++ {
		next, nok := segStatic(cw.Segs[k : k+1])
		if !nok {
			return
		}
		acc, ok = staticConcat(acc, next)
		if !ok {
			// The concatenation would fail at runtime (length
			// mismatch); keep the dynamic path so the evaluator
			// reproduces the exact error.
			return
		}
	}
	cw.Static = acc
	cw.StaticSet = true
	// Names are never glob-expanded, so a wildcard piece is still a
	// legal single name (a variable really can be called a*b).
	if len(acc) == 1 && acc[0].Prim == "" {
		cw.LitName = acc[0].Pat.String()
		cw.LitNameSet = true
	}
}

// segStatic returns the pieces a segment always evaluates to, if any.
func segStatic(segs []Seg) ([]StaticPiece, bool) {
	s := &segs[0]
	switch s.Kind {
	case SegLit:
		return []StaticPiece{{Pat: s.Pat, Wild: s.Pat.HasWild()}}, true
	case SegPrim:
		return []StaticPiece{{Prim: s.Prim, PrimIdx: s.PrimIdx}}, true
	case SegList:
		var out []StaticPiece
		for _, w := range s.Words {
			if !w.StaticSet {
				return nil, false
			}
			out = append(out, w.Static...)
		}
		if out == nil {
			out = []StaticPiece{}
		}
		return out, true
	default:
		return nil, false
	}
}

// staticConcat mirrors the evaluator's concatPieces over static pieces.
func staticConcat(a, b []StaticPiece) ([]StaticPiece, bool) {
	join := func(x, y StaticPiece) StaticPiece {
		p := glob.Concat(x.Pattern(), y.Pattern())
		return StaticPiece{Pat: p, Wild: p.HasWild()}
	}
	switch {
	case len(a) == 0 || len(b) == 0:
		return nil, false
	case len(a) == 1:
		out := make([]StaticPiece, len(b))
		for i := range b {
			out[i] = join(a[0], b[i])
		}
		return out, true
	case len(b) == 1:
		out := make([]StaticPiece, len(a))
		for i := range a {
			out[i] = join(a[i], b[0])
		}
		return out, true
	case len(a) == len(b):
		out := make([]StaticPiece, len(a))
		for i := range a {
			out[i] = join(a[i], b[i])
		}
		return out, true
	default:
		return nil, false
	}
}

func (c *compiler) part(part syntax.Part) Seg {
	switch part := part.(type) {
	case *syntax.Lit:
		if part.Quoted {
			return Seg{Kind: SegLit, Pat: glob.NewLiteral(part.Text)}
		}
		return Seg{Kind: SegLit, Pat: glob.New(part.Text)}
	case *syntax.Var:
		s := Seg{Kind: SegVar, Count: part.Count, Double: part.Double, Flat: part.Flat, Pos: part.Pos}
		name := c.word(part.Name)
		if name.LitNameSet {
			s.NameLit = name.LitName
		} else {
			s.Name = name
		}
		if len(part.Index) > 0 {
			s.Index = make([]*Word, len(part.Index))
			for k, iw := range part.Index {
				s.Index[k] = c.word(iw)
			}
		}
		return s
	case *syntax.Prim:
		return Seg{Kind: SegPrim, Prim: part.Name, PrimIdx: InternPrim(part.Name)}
	case *syntax.LambdaPart:
		c.subBlock(part.Lambda.Body)
		return Seg{Kind: SegLambda, Lambda: part.Lambda}
	case *syntax.CmdSub:
		c.subBlock(part.Body)
		return Seg{Kind: SegCmdSub, Block: part.Body}
	case *syntax.RetSub:
		c.subBlock(part.Body)
		return Seg{Kind: SegRetSub, Block: part.Body}
	case *syntax.ListPart:
		words := make([]*Word, len(part.Words))
		for k, w := range part.Words {
			words[k] = c.word(w)
		}
		return Seg{Kind: SegList, Words: words}
	default:
		// Unreachable: the seven cases above are every syntax.Part.
		panic("compile: unknown word part")
	}
}

// ---- primitive interning ----

// Primitive names are interned process-wide to dense indices, so compiled
// code can dispatch $&primitives through a flat per-interpreter table (one
// bounds check) instead of a map lookup.  The table only grows; indices
// are stable for the life of the process.
var primIntern = struct {
	mu    sync.RWMutex
	index map[string]int
	names []string
}{index: make(map[string]int)}

// InternPrim returns the stable dense index for a primitive name,
// assigning one on first use.
func InternPrim(name string) int {
	primIntern.mu.RLock()
	idx, ok := primIntern.index[name]
	primIntern.mu.RUnlock()
	if ok {
		return idx
	}
	primIntern.mu.Lock()
	defer primIntern.mu.Unlock()
	if idx, ok := primIntern.index[name]; ok {
		return idx
	}
	idx = len(primIntern.names)
	primIntern.names = append(primIntern.names, name)
	primIntern.index[name] = idx
	return idx
}

// PrimName returns the name interned at idx ("" if out of range).
func PrimName(idx int) string {
	primIntern.mu.RLock()
	defer primIntern.mu.RUnlock()
	if idx < 0 || idx >= len(primIntern.names) {
		return ""
	}
	return primIntern.names[idx]
}

// NumPrims returns the number of interned primitive names.
func NumPrims() int {
	primIntern.mu.RLock()
	defer primIntern.mu.RUnlock()
	return len(primIntern.names)
}
