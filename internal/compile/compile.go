// Package compile lowers syntax trees to a compact, flat instruction
// form, the only form the evaluator in internal/core executes.
//
// The parse cache (internal/core) maps a source to the unit Compile
// lowered from its whole rewritten tree, which is then dropped: a program
// keeps its source, and Unit.Tree parses it again for the cold paths that
// unparse a closure.  A program is built whole before anything runs it,
// and is immutable once built, so every evaluation and every interpreter
// in the process shares it.  A closure is a unit and an environment.
//
// Compile lowers rewritten trees, the only form the parser hands on:
// the core forms syntax.Rewrite leaves.  It is total on them, so every
// block the parser accepts compiles once it is rewritten; a surface node
// (pipe, and/or, background, redirection, fn) is not one of its inputs.
//
// A program — a block and every block nested in it — is laid out in a few
// flat tables indexed by int32 (instructions, words, segments and
// pieces), plus side tables for the rare operands (bindings, computed
// names and subscripts) and the units of the lambda and substitution
// bodies.  Every text the program names — a literal, a variable,
// parameter or primitive name, a static match pattern — is a piece that
// spans its bytes in the program's one Text string, where each distinct
// name is laid out once, and whose quoting is one bit: a Wild piece is a
// magic pattern, any other a quoted one.  So every table but Units holds
// no pointer, and the collector scans a cached program's table headers
// and units, not its pieces.  Compiling a program makes about one
// allocation per non-empty table, not one per word, segment or quoted
// literal, and the units weigh about 0.38× the tree they come from.
//
// What the lowering does once, so that no evaluation repeats it:
//
//   - each command node becomes a dense opcode, so dispatch is one
//     switch, not a type assertion per evaluation;
//   - word parts are pre-lowered: literal text becomes a piece that the
//     evaluator reads as a glob.Pattern at no cost, so evaluation never
//     re-scans source text for its quoting;
//   - fully static words — no variable references, no substitutions — are
//     folded at compile time into constant piece lists, but for a word
//     whose value would mix quoted and unquoted wildcards ('*'^*), which
//     the evaluator joins at run time;
//   - a dynamic word with an unquoted wildcard in a literal of its own or
//     of a word it lists is marked WordGlob, read from the source text,
//     so the evaluator tracks quoting for those words only and builds
//     every other word's terms directly;
//   - match patterns built from static words are laid out as pattern
//     pieces once, not per evaluation, a primitive as its quoted $&name
//     text;
//   - every lambda and substitution body gets a unit in the program that
//     holds it, which the segment that makes it indexes, and a lambda
//     body's unit its parameters, so closure application starts on
//     compiled code.
//
// A $&primitive stays a name, looked up in the running interpreter's
// registry each time its command runs.
//
// The package deliberately knows nothing about the evaluator: it depends
// only on syntax and glob.  Execution semantics — environments, tail
// calls, cancellation, exceptions — live in internal/core.
package compile

import (
	"sync"
	"sync/atomic"

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
	// OpSeq runs the nested command sequence Body in the enclosing
	// environment: a *syntax.Block in command position reached through
	// rewriting, or a bare {…} block, which groups rather than calls.
	OpSeq
	// OpAssign is Word = Words.
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

// Span is a run of entries in one of a Program's tables, or of bytes in
// its Text: Len entries from Off.  A Len of -1 marks an absent operand.
type Span struct{ Off, Len int32 }

// none is the absent span: match patterns that are not static, and the
// parameters of a body that declares none.
var none = Span{Off: -1, Len: -1}

// Set reports whether the span is present (possibly empty).
func (s Span) Set() bool { return s.Len >= 0 }

// in returns the entries of table that s covers, capped so an append
// cannot write into the next operand.
func in[T any](table []T, s Span) []T {
	return table[s.Off : s.Off+s.Len : s.Off+s.Len]
}

// Pos is a source position in four-byte fields, kept only where an error
// message is anchored to it: on words, and on subscripted variables.
type Pos struct{ Line, Col int32 }

// Syntax returns the position as the parser spells it.
func (p Pos) Syntax() syntax.Pos { return syntax.Pos{Line: int(p.Line), Col: int(p.Col)} }

func pos(p syntax.Pos) Pos { return Pos{Line: int32(p.Line), Col: int32(p.Col)} }

// Program is one lowered tree: its root block and every block nested in
// it, laid out in flat tables.  Operands refer to table entries by int32
// index or by Span.  No table but Units has an element type that holds a
// pointer.  A Program is immutable once Compile returns it, but for the
// trees Tree derives from its source.
type Program struct {
	Instrs []Instr
	Words  []Word
	Segs   []Seg
	// Pieces holds the pieces of static words, literal segments, static
	// match patterns, and the names of variables, parameters and
	// primitives.
	Pieces []StaticPiece

	// Side tables for the rare operands.
	Bindings []Binding
	Vars     []VarExt // computed names and subscripts

	// Text holds the bytes of every piece, each distinct name once.
	Text string

	// Units holds the root block's unit first, then one for each lambda
	// and substitution body, each after the units nested in it.
	Units []Unit

	// src is the source the program was lowered from, and trees, once
	// Tree has derived them from it, the tree of each unit in the order
	// of Units: none, for a program lowered without its source.  One
	// store to trees wins and nothing writes it after.
	src   string
	trees atomic.Pointer[[]*syntax.Block]
}

// noTrees is the trees of every program lowered without its source.
var noTrees []*syntax.Block

// Seq returns the instructions s covers.
func (p *Program) Seq(s Span) []Instr { return in(p.Instrs, s) }

// WordsIn returns the words s covers.
func (p *Program) WordsIn(s Span) []Word { return in(p.Words, s) }

// SegsOf returns a dynamic word's segments.
func (p *Program) SegsOf(w *Word) []Seg { return in(p.Segs, w.Span) }

// PiecesOf returns a static word's pieces.
func (p *Program) PiecesOf(w *Word) []StaticPiece { return in(p.Pieces, w.Span) }

// PiecesIn returns the pieces s covers: static match patterns, or a
// lambda body's parameters.
func (p *Program) PiecesIn(s Span) []StaticPiece { return in(p.Pieces, s) }

// BindingsIn returns the bindings s covers.
func (p *Program) BindingsIn(s Span) []Binding { return in(p.Bindings, s) }

// Str returns the text s spans.
func (p *Program) Str(s Span) string { return p.Text[s.Off : s.Off+s.Len] }

// Name returns the text of piece k: a variable, parameter or primitive
// name.
func (p *Program) Name(k int32) string { return p.Str(p.Pieces[k].Text) }

// Pat returns a piece as a glob pattern, magic if it is Wild and quoted
// otherwise, which shares the program's bytes: building it allocates
// nothing.
func (p *Program) Pat(sp *StaticPiece) glob.Pattern {
	if sp.Wild {
		return glob.New(p.Str(sp.Text))
	}
	return glob.NewLiteral(p.Str(sp.Text))
}

// Pattern returns a piece as a match pattern: a $&prim term matches its
// unparsed name literally.  A static match pattern lays a primitive out
// as that text already, so only a primitive piece of a word that is
// matched among dynamic patterns builds one.
func (p *Program) Pattern(sp *StaticPiece) glob.Pattern {
	if sp.Prim {
		return glob.NewLiteral("$&" + p.Str(sp.Text))
	}
	return p.Pat(sp)
}

// Unit is one compiled block: a run of instructions in its program.
// Every block nested in the program that can run on its own — a lambda
// or substitution body — has a unit of its own in the same program, so a
// closure keeps the whole program's tables alive.
//
// Params is a lambda body's parameter list, name pieces in Pieces: set
// and possibly empty for "@ params {body}", absent for a bare {body}, a
// substitution body and a program's root, which bind their arguments to
// *.
type Unit struct {
	Prog   *Program
	Seq    Span
	Params Span
}

// Tree returns the rewritten tree the unit was lowered from: the whole
// program's for its root unit, else its lambda or substitution body.
// The first call on a program parses its source again and lowers it
// into the compiler's scratch, which pairs every unit with its tree, and
// keeps the trees with the program, so a program whose closures are
// never unparsed keeps none.  Callers that race on a first call may each
// derive them; one store wins.  A program lowered without its source
// has no trees: Tree returns nil.
func (u *Unit) Tree() *syntax.Block {
	p := u.Prog
	trees := p.trees.Load()
	if trees == nil {
		b, _ := syntax.Parse(p.src) // it parsed when the program was lowered
		c := compilers.Get().(*compiler)
		c.lower(syntax.Rewrite(b).(*syntax.Block))
		derived := exact(c.trees)
		c.reset()
		compilers.Put(c)
		p.trees.CompareAndSwap(nil, &derived)
		trees = p.trees.Load()
	}
	for k := range *trees {
		if &p.Units[k] == u {
			return (*trees)[k]
		}
	}
	return nil
}

// Instr is one compiled command.  The operand fields used depend on Op.
type Instr struct {
	Op Op
	// IsBlock records whether the body of OpLet, OpLocal, OpFor or OpNot
	// was a braced block: the evaluator counts a command boundary per
	// block member, but not for a bare single-command body.
	IsBlock bool

	Word     int32 // OpAssign target; OpMatch, OpMatchExtract subject
	Words    Span  // OpSimple command; OpAssign values; match patterns: into Words
	Pats     Span  // match patterns, when all static: into Pieces
	Bindings Span  // OpLet, OpLocal, OpFor: into Bindings
	Body     Span  // OpSeq, and the body of OpLet, OpLocal, OpFor, OpNot
}

// Binding is one compiled name = values pair in a binding form header.
type Binding struct {
	Name   int32
	Values Span // into Words
}

// WordKind says how a word evaluates.
type WordKind uint8

const (
	// WordDynamic concatenates its segments, Span, at run time, straight
	// into terms: no literal of the word, or of a word it lists, holds an
	// unquoted wildcard, so its value is never globbed and no quoting
	// needs tracking.
	WordDynamic WordKind = iota
	// WordStatic always evaluates to its pieces, Span.
	WordStatic
	// WordLoneVar is the common $name word: a single plain variable
	// segment, Span, whose value splices unchanged into a term list.
	WordLoneVar
	// WordGlob is a dynamic word, Span into Segs, with an unquoted
	// wildcard in a literal of its own or of a word it lists: the
	// evaluator concatenates it as patterns, which keep the quoting of
	// every byte, and expands the result against the directory.
	WordGlob
)

// Word is one compiled word: segments joined pairwise by concatenation
// (the ^ operator and part adjacency), or the pieces they fold to.
type Word struct {
	Kind WordKind
	Span Span // into Pieces for WordStatic, into Segs otherwise
	// Pos is the source position of the word; the evaluator anchors
	// word-shape errors to it.
	Pos Pos
}

// StaticPiece is one pre-evaluated piece of a static word, the pattern
// of a literal segment or of a static match, or a name.  Its quoting is
// Wild alone: a Wild piece is a magic pattern, any other a quoted one.
// No piece mixes quoted and unquoted wildcards; compile leaves a word
// that would make one dynamic.  A name piece is neither Wild nor Prim.
type StaticPiece struct {
	Text Span // the text, in Text; for a primitive, its name
	Wild bool // the piece has an unquoted wildcard, computed once
	Prim bool // the piece is a $&prim term
}

// SegKind identifies one word segment.
type SegKind uint8

const (
	// SegLit is literal text, a piece in Pieces.
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

// Seg is one word segment.  Ref indexes the table its kind names; Ext is
// the second operand of the two kinds that have one.
type Seg struct {
	Kind SegKind
	// Variable modifiers: $#name, $$name, $^name.
	Count, Double, Flat bool

	// Ref is, by kind: SegLit, the pattern in Pieces; SegVar, the name
	// in Pieces, or -1 for a computed name; SegPrim, the name in Pieces;
	// SegLambda, SegCmdSub and SegRetSub, the body's unit in Units;
	// SegList, the first of its words.
	Ref int32
	// Ext is, for SegVar, the entry in Vars, or -1 when the name is
	// static and there is no subscript; for SegList, the number of words.
	Ext int32
}

// VarExt is the rare part of a variable reference.
type VarExt struct {
	Name  int32 // the computed name word, or -1
	Index Span  // subscript words
	Pos   Pos   // anchors a bad subscript error
}

// Compile lowers a block that syntax.Rewrite has lowered to the core
// forms and returns the unit of b, the first of its program's.  Every
// call lowers the whole tree afresh.  src is the source b was parsed
// from, which the program keeps, sharing its bytes, so that Tree can
// derive the trees again; with nil, the program has no trees.
// Compilation cannot fail: the error is always nil, and is kept because
// bench/esbench/probe.go, in the benchmark's own module, calls
// Compile(b, nil).
func Compile(b *syntax.Block, src *string) (*Unit, error) {
	c := compilers.Get().(*compiler)
	c.lower(b)
	p := c.finish()
	if src != nil {
		p.src = *src
	} else {
		p.trees.Store(&noTrees)
	}
	c.reset()
	compilers.Put(c)
	return &p.Units[0], nil
}

// lower lowers b, the root of a program, into the scratch tables.
func (c *compiler) lower(b *syntax.Block) {
	c.units = append(c.units, Unit{Params: none})
	c.trees = append(c.trees, b)
	root := c.block(b) // may grow c.units: index it after
	c.units[0].Seq = root
}

// compiler holds the tables of the program being lowered.  They grow as
// the tree is walked and are copied out at their exact sizes when it is
// done, so the scratch is pooled and reused by the next compile.
type compiler struct {
	instrs   []Instr
	words    []Word
	segs     []Seg
	pieces   []StaticPiece
	bindings []Binding
	vars     []VarExt
	units    []Unit
	trees    []*syntax.Block // the tree of each unit

	texts []byte           // the program's Text
	names map[string]int32 // where each name laid out in texts starts

	one [1]value // static's result for a lone literal
}

// value is a static piece before it is laid out: its text and quoting,
// as a glob pattern.
type value struct {
	pat  glob.Pattern
	prim bool // the text is a primitive's name
}

// pattern returns v as a glob pattern, as the evaluator joins it: a
// primitive as its unparsed name, literally.
func (v value) pattern() glob.Pattern {
	if v.prim {
		return glob.NewLiteral("$&" + v.pat.String())
	}
	return v.pat
}

var compilers = sync.Pool{New: func() any { return new(compiler) }}

// maxPooledNames bounds the name map a pooled compiler keeps for the
// next compile.
const maxPooledNames = 256

// exact copies a scratch table to a new slice of its exact length; an
// empty table becomes nil.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append([]T(nil), s...)
}

// finish copies the scratch tables out into a Program.
func (c *compiler) finish() *Program {
	p := &Program{
		Instrs:   exact(c.instrs),
		Words:    exact(c.words),
		Segs:     exact(c.segs),
		Pieces:   exact(c.pieces),
		Bindings: exact(c.bindings),
		Vars:     exact(c.vars),
		Text:     string(c.texts),
		Units:    exact(c.units),
	}
	for k := range p.Units {
		p.Units[k].Prog = p
	}
	return p
}

// reset empties the scratch tables, dropping every pointer they hold so
// the pool keeps no tree or program alive.
func (c *compiler) reset() {
	c.instrs = c.instrs[:0]
	c.words = c.words[:0]
	c.segs = c.segs[:0]
	c.pieces = c.pieces[:0]
	c.bindings = c.bindings[:0]
	c.vars = c.vars[:0]
	c.units = truncate(c.units, 0)
	c.trees = truncate(c.trees, 0)
	c.texts = c.texts[:0]
	if len(c.names) > maxPooledNames {
		c.names = nil // clearing a map costs its capacity, every compile
	} else {
		clear(c.names)
	}
	c.one = [1]value{}
}

// truncate shortens s to n entries, zeroing the entries dropped.
func truncate[T any](s []T, n int) []T {
	clear(s[n:])
	return s[:n]
}

// reserve appends n zero entries to *t and returns their span; the
// caller fills them in once their nested operands are lowered.
func reserve[T any](t *[]T, n int) Span {
	off := len(*t)
	*t = append(*t, make([]T, n)...)
	return Span{Off: int32(off), Len: int32(n)}
}

// add appends v to *t and returns its index.
func add[T any](t *[]T, v T) int32 {
	*t = append(*t, v)
	return int32(len(*t) - 1)
}

// text lays s out at the end of the program's text.
func (c *compiler) text(s string) Span {
	off := len(c.texts)
	c.texts = append(c.texts, s...)
	return Span{Off: int32(off), Len: int32(len(s))}
}

// intern returns the span of a name in the program's text, laying it
// out the first time the program names it, so that every reference to a
// variable and the parameter that binds it share one copy.  Only names
// are interned: looking every literal up cost more time than its bytes
// were worth.
func (c *compiler) intern(name string) Span {
	if off, ok := c.names[name]; ok {
		return Span{Off: off, Len: int32(len(name))}
	}
	if c.names == nil {
		c.names = make(map[string]int32)
	}
	sp := c.text(name)
	c.names[name] = sp.Off
	return sp
}

// piece lays a static value out as a piece.
func (c *compiler) piece(v value) StaticPiece {
	return StaticPiece{Text: c.text(v.pat.String()), Wild: v.pat.HasWild(), Prim: v.prim}
}

// name lays a variable, parameter or primitive name out as a piece.
func (c *compiler) name(s string) int32 {
	return add(&c.pieces, StaticPiece{Text: c.intern(s)})
}

// block lowers a command sequence into a contiguous run of instructions.
func (c *compiler) block(b *syntax.Block) Span {
	if b == nil {
		return Span{Off: int32(len(c.instrs))}
	}
	seq := reserve(&c.instrs, len(b.Cmds))
	for k, cmd := range b.Cmds {
		in := c.cmd(cmd)
		c.instrs[seq.Off+int32(k)] = in
	}
	return seq
}

// nest lowers a block that may later be evaluated on its own — a lambda
// or substitution body, whose parameters params spans — and returns the
// index of its unit.
func (c *compiler) nest(b *syntax.Block, params Span) int32 {
	seq := c.block(b)
	c.trees = append(c.trees, b)
	return add(&c.units, Unit{Seq: seq, Params: params})
}

func (c *compiler) cmd(cmd syntax.Cmd) Instr {
	switch cmd := cmd.(type) {
	case nil:
		return Instr{Op: OpNop}
	case *syntax.Block:
		return Instr{Op: OpSeq, Body: c.block(cmd)}
	case *syntax.Simple:
		return c.simple(cmd)
	case *syntax.Assign:
		name := c.word(cmd.Name)
		return Instr{Op: OpAssign, Word: name, Words: c.wordRun(cmd.Values)}
	case *syntax.Bind:
		return c.binder(cmd)
	case *syntax.Match:
		return c.match(cmd)
	case *syntax.Not:
		in := Instr{Op: OpNot}
		in.Body, in.IsBlock = c.body(cmd.Body)
		return in
	default:
		// Unreachable: the cases above are every core command, and
		// Compile takes rewritten trees only.
		panic("compile: surface command in a tree that was not rewritten")
	}
}

// bindOps is the opcode of each kind of binding form.
var bindOps = [...]Op{syntax.BindLet: OpLet, syntax.BindLocal: OpLocal, syntax.BindFor: OpFor}

// binder lowers let, local and for: a binding header around a body.
func (c *compiler) binder(b *syntax.Bind) Instr {
	in := Instr{Op: bindOps[b.Kind], Bindings: reserve(&c.bindings, len(b.Bindings))}
	for k, bind := range b.Bindings {
		name := c.word(bind.Name)
		values := c.wordRun(bind.Values)
		c.bindings[in.Bindings.Off+int32(k)] = Binding{Name: name, Values: values}
	}
	in.Body, in.IsBlock = c.body(b.Body)
	return in
}

// body lowers a command in body position and reports whether it was a
// braced block.
func (c *compiler) body(cmd syntax.Cmd) (Span, bool) {
	if cmd == nil {
		return Span{Off: int32(len(c.instrs))}, false
	}
	if b, ok := cmd.(*syntax.Block); ok {
		return c.block(b), true
	}
	seq := reserve(&c.instrs, 1)
	in := c.cmd(cmd)
	c.instrs[seq.Off] = in
	return seq, false
}

func (c *compiler) simple(s *syntax.Simple) Instr {
	// A bare brace block in command position is grouping, not a call.
	if len(s.Words) == 1 && len(s.Words[0].Parts) == 1 {
		if lp, ok := s.Words[0].Parts[0].(*syntax.LambdaPart); ok && !lp.Lambda.HasParams {
			return Instr{Op: OpSeq, Body: c.block(lp.Lambda.Body)}
		}
	}
	return Instr{Op: OpSimple, Words: c.wordRun(s.Words)}
}

// match lowers ~ and ~~: the subject, and the patterns as pattern
// pieces when every pattern word is static, else as words.  A primitive
// is laid out as its quoted $&name text, so that matching it builds no
// pattern.
func (c *compiler) match(m *syntax.Match) Instr {
	in := Instr{Op: OpMatch, Word: c.word(m.Subject), Pats: none}
	if m.Extract {
		in.Op = OpMatchExtract
	}
	start, texts := len(c.pieces), len(c.texts)
	for _, w := range m.Pats {
		vs, ok := c.static(w)
		if !ok {
			// Drop the pieces laid out so far, and their bytes.
			c.pieces, c.texts = c.pieces[:start], c.texts[:texts]
			in.Words = c.wordRun(m.Pats)
			return in
		}
		for _, v := range vs {
			if v.prim {
				v = value{pat: v.pattern()}
			}
			c.pieces = append(c.pieces, c.piece(v))
		}
	}
	in.Pats = Span{Off: int32(start), Len: int32(len(c.pieces) - start)}
	return in
}

// wordRun lowers words into a contiguous run of the word table.
func (c *compiler) wordRun(ws []*syntax.Word) Span {
	run := reserve(&c.words, len(ws))
	for k, w := range ws {
		cw := c.wordValue(w)
		c.words[run.Off+int32(k)] = cw
	}
	return run
}

// word lowers one word and returns its index.
func (c *compiler) word(w *syntax.Word) int32 {
	k := add(&c.words, Word{})
	cw := c.wordValue(w)
	c.words[k] = cw
	return k
}

func (c *compiler) wordValue(w *syntax.Word) Word {
	if vs, ok := c.static(w); ok {
		off := len(c.pieces)
		for _, v := range vs {
			c.pieces = append(c.pieces, c.piece(v))
		}
		cw := Word{Kind: WordStatic, Span: Span{Off: int32(off), Len: int32(len(vs))}}
		if w != nil {
			cw.Pos = pos(w.Pos)
		}
		return cw
	}
	kind := WordDynamic
	if wild(w) {
		kind = WordGlob
	} else if len(w.Parts) == 1 {
		if v, ok := w.Parts[0].(*syntax.Var); ok && !v.Count && !v.Double && !v.Flat && len(v.Index) == 0 {
			if _, ok := c.litName(v.Name); ok {
				kind = WordLoneVar
			}
		}
	}
	segs := reserve(&c.segs, len(w.Parts))
	for k, part := range w.Parts {
		s := c.seg(part)
		c.segs[segs.Off+int32(k)] = s
	}
	return Word{Kind: kind, Span: segs, Pos: pos(w.Pos)}
}

// wild reports whether a literal of w, or of a word w lists, holds an
// unquoted wildcard.  It reads the source text, so it builds no pattern.
func wild(w *syntax.Word) bool {
	for _, part := range w.Parts {
		switch part := part.(type) {
		case *syntax.Lit:
			if lit(part).HasWild() {
				return true
			}
		case *syntax.ListPart:
			for _, lw := range part.Words {
				if wild(lw) {
					return true
				}
			}
		}
	}
	return false
}

// static returns the values a word always evaluates to, mirroring the
// evaluator's concatenation over its parts, and whether it has such
// values at all.  A concatenation that would fail at run time (length
// mismatch) is not static, so the evaluator reproduces the exact error,
// and neither is one whose value mixes quoted and unquoted wildcards: a
// piece cannot keep that quoting, so the word, a WordGlob word by its
// unquoted wildcard, joins it at run time.  The result may alias c.one
// and is only valid until the next call.
func (c *compiler) static(w *syntax.Word) ([]value, bool) {
	if w == nil || len(w.Parts) == 0 {
		return nil, true
	}
	acc, ok := c.partStatic(w.Parts[0])
	if !ok || len(w.Parts) == 1 {
		return acc, ok
	}
	acc = append([]value(nil), acc...)
	for _, part := range w.Parts[1:] {
		next, ok := c.partStatic(part)
		if !ok {
			return nil, false
		}
		mid := len(acc)
		if acc, ok = Concat(append(acc, next...), 0, mid, joinStatic); !ok {
			return nil, false
		}
	}
	for _, v := range acc {
		if v.pat.Mixed() {
			return nil, false
		}
	}
	return acc, true
}

// partStatic returns the values one word part always evaluates to.
func (c *compiler) partStatic(part syntax.Part) ([]value, bool) {
	switch part := part.(type) {
	case *syntax.Lit:
		c.one[0] = value{pat: lit(part)}
		return c.one[:], true
	case *syntax.Prim:
		c.one[0] = value{pat: glob.NewLiteral(part.Name), prim: true}
		return c.one[:], true
	case *syntax.ListPart:
		var out []value
		for _, w := range part.Words {
			vs, ok := c.static(w)
			if !ok {
				return nil, false
			}
			out = append(out, vs...)
		}
		return out, true
	default:
		return nil, false
	}
}

// lit returns a literal part as a glob pattern: quoted or magic.
func lit(l *syntax.Lit) glob.Pattern {
	if l.Quoted {
		return glob.NewLiteral(l.Text)
	}
	return glob.New(l.Text)
}

// litName returns the value of a word used as a single name (a variable
// or binding target): set when the word is static with exactly one
// non-prim value.  Names are never glob-expanded, so a wildcard piece is
// still a legal single name (a variable really can be called a*b).
func (c *compiler) litName(w *syntax.Word) (string, bool) {
	vs, ok := c.static(w)
	if !ok || len(vs) != 1 || vs[0].prim {
		return "", false
	}
	return vs[0].pat.String(), true
}

// Concat is es list concatenation, the ^ operator, over the values of
// any word evaluation, in place: it joins l[start:mid] with the entries
// after them and returns l[:start+n] with the n joined entries at
// l[start:].  Lists of the same length join pairwise, and a singleton
// distributes over the other list, so n is the longer length.  It fails
// on an empty operand and on two lengths that differ with neither of
// them one.  l[start:] must share its array with no other list.  This
// is the one concatenation: compile folds static words with it, and the
// evaluator joins terms and patterns.
func Concat[T any](l []T, start, mid int, join func(x, y T) T) ([]T, bool) {
	a, b := l[start:mid], l[mid:]
	if len(a) == 0 || len(b) == 0 || (len(a) != len(b) && len(a) != 1 && len(b) != 1) {
		return nil, false
	}
	n := max(len(a), len(b))
	// A singleton is read once, before the join overwrites it; a longer
	// operand's k'th entry is read before l[start+k] is written.
	x, y := a[0], b[0]
	for k := 0; k < n; k++ {
		u, v := x, y
		if len(a) > 1 {
			u = a[k]
		}
		if len(b) > 1 {
			v = b[k]
		}
		l[start+k] = join(u, v)
	}
	clear(l[start+n:])
	return l[:start+n], true
}

// joinStatic concatenates two static values, as the evaluator joins the
// pieces they stand for.
func joinStatic(x, y value) value {
	return value{pat: glob.Concat(x.pattern(), y.pattern())}
}

func (c *compiler) seg(part syntax.Part) Seg {
	switch part := part.(type) {
	case *syntax.Lit:
		return Seg{Kind: SegLit, Ref: add(&c.pieces, c.piece(value{pat: lit(part)}))}
	case *syntax.Var:
		s := Seg{Kind: SegVar, Count: part.Count, Double: part.Double, Flat: part.Flat, Ref: -1, Ext: -1}
		name, static := c.litName(part.Name)
		if static {
			s.Ref = c.name(name)
		}
		if !static || len(part.Index) > 0 {
			ext := VarExt{Name: -1, Pos: pos(part.Pos)}
			if !static {
				ext.Name = c.word(part.Name)
			}
			ext.Index = c.wordRun(part.Index)
			s.Ext = add(&c.vars, ext)
		}
		return s
	case *syntax.Prim:
		return Seg{Kind: SegPrim, Ref: c.name(part.Name)}
	case *syntax.LambdaPart:
		params := none
		if lam := part.Lambda; lam.HasParams {
			params = Span{Off: int32(len(c.pieces)), Len: int32(len(lam.Params))}
			for _, name := range lam.Params {
				c.name(name)
			}
		}
		return Seg{Kind: SegLambda, Ref: c.nest(part.Lambda.Body, params)}
	case *syntax.CmdSub:
		return Seg{Kind: SegCmdSub, Ref: c.nest(part.Body, none)}
	case *syntax.RetSub:
		return Seg{Kind: SegRetSub, Ref: c.nest(part.Body, none)}
	case *syntax.ListPart:
		run := c.wordRun(part.Words)
		return Seg{Kind: SegList, Ref: run.Off, Ext: run.Len}
	default:
		// Unreachable: the seven cases above are every syntax.Part.
		panic("compile: unknown word part")
	}
}
