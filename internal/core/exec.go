package core

// The bytecode execution loop, the interpreter's one evaluator.  It runs
// compiled units only, and never sees a tree: a program is lowered whole,
// on its first run, and its parse cache entry keeps it in place of the
// tree (see CompileCommand); a closure is one of its units and an
// environment.  Commands and words run here; closure
// application, the tail-call trampoline and cancellation polls are in
// eval.go.  The outcomes this loop must reproduce are pinned by
// testdata/engine_golden.json and testdata/words_golden.json at the
// repository root.
//
// Words evaluate straight into the term list of their command: each
// segment appends its terms, and ^ joins them in place.  Only
// a compile.WordGlob word — one with an unquoted wildcard in a literal —
// is concatenated as glob patterns, which keep the quoting of every
// byte, before it is expanded; dynamic ~ patterns are the other user of
// that path.

import (
	"strconv"

	"es/internal/compile"
	"es/internal/glob"
	"es/internal/syntax"
)

// execUnit evaluates a compiled unit: its run of instructions, as
// execSeq does.
func (i *Interp) execUnit(ctx *Ctx, u *compile.Unit, env *Binding) (List, error) {
	return i.execSeq(ctx, u.Prog, u.Prog.Seq(u.Seq), env)
}

// execSeq evaluates a compiled command sequence; the result is the last
// command's result (the empty list — true — for an empty sequence).
// When ctx is a tail context the final command runs in tail position.
func (i *Interp) execSeq(ctx *Ctx, p *compile.Program, seq []compile.Instr, env *Binding) (List, error) {
	if len(seq) == 0 {
		return List{}, nil
	}
	if len(seq) > 1 {
		inner := ctx.NonTail()
		for k := range seq[:len(seq)-1] {
			i.Alloc.command()
			if _, err := i.execInstr(inner, p, &seq[k], env); err != nil {
				return nil, err
			}
		}
	}
	i.Alloc.command()
	return i.execInstr(ctx, p, &seq[len(seq)-1], env)
}

// execBody evaluates the body of let, local, for and !: one cancellation
// poll for the body as a command, then block bodies count their member
// command boundaries.
func (i *Interp) execBody(ctx *Ctx, p *compile.Program, in *compile.Instr, env *Binding) (List, error) {
	if err := i.CheckCancel(); err != nil {
		return nil, err
	}
	seq := p.Seq(in.Body)
	if len(seq) == 0 {
		return List{}, nil
	}
	if in.IsBlock {
		return i.execSeq(ctx, p, seq, env)
	}
	return i.execInstr(ctx, p, &seq[0], env)
}

func (i *Interp) execInstr(ctx *Ctx, p *compile.Program, in *compile.Instr, env *Binding) (List, error) {
	if err := i.CheckCancel(); err != nil {
		return nil, err
	}
	switch in.Op {
	case compile.OpNop:
		return List{}, nil
	case compile.OpSimple:
		return i.execSimple(ctx, p, in, env)
	case compile.OpSeq:
		return i.execSeq(ctx, p, p.Seq(in.Body), env)
	case compile.OpAssign:
		return i.execAssign(ctx, p, in, env)
	case compile.OpLet:
		return i.execLet(ctx, p, in, env)
	case compile.OpLocal:
		return i.execLocal(ctx, p, in, env)
	case compile.OpFor:
		return i.execFor(ctx, p, in, env)
	case compile.OpMatch:
		return i.execMatch(ctx, p, in, env, false)
	case compile.OpMatchExtract:
		return i.execMatch(ctx, p, in, env, true)
	case compile.OpNot:
		res, err := i.execBody(ctx.NonTail(), p, in, env)
		if err != nil {
			return nil, err
		}
		return Bool(!res.True()), nil
	default:
		return nil, ErrorExc("internal: unknown opcode")
	}
}

func (i *Interp) execSimple(ctx *Ctx, p *compile.Program, in *compile.Instr, env *Binding) (List, error) {
	terms, err := i.execWords(ctx, p, in.Words, env)
	if err != nil {
		return nil, err
	}
	if len(terms) == 0 {
		return List{}, nil
	}
	return i.applyTerm(ctx, env, terms[0], terms[1:])
}

func (i *Interp) execAssign(ctx *Ctx, p *compile.Program, in *compile.Instr, env *Binding) (List, error) {
	name, err := i.execWordString(ctx, p, &p.Words[in.Word], env)
	if err != nil {
		return nil, err
	}
	values, err := i.execWords(ctx, p, in.Words, env)
	if err != nil {
		return nil, err
	}
	if values == nil {
		values = List{}
	}
	if err := i.assignVar(ctx.NonTail(), env, name, values); err != nil {
		return nil, err
	}
	return True(), nil
}

func (i *Interp) execLet(ctx *Ctx, p *compile.Program, in *compile.Instr, env *Binding) (List, error) {
	inner := env
	bs := p.BindingsIn(in.Bindings)
	for k := range bs {
		b := &bs[k]
		name, err := i.execWordString(ctx, p, &p.Words[b.Name], env)
		if err != nil {
			return nil, err
		}
		values, err := i.execWords(ctx.NonTail(), p, b.Values, inner)
		if err != nil {
			return nil, err
		}
		i.Alloc.binding(1)
		inner = &Binding{Name: name, Value: values, Next: inner}
	}
	return i.execBody(ctx, p, in, inner)
}

func (i *Interp) execLocal(ctx *Ctx, p *compile.Program, in *compile.Instr, env *Binding) (List, error) {
	type saved struct {
		name    string
		value   List
		defined bool
	}
	nt := ctx.NonTail()
	var saves []saved
	restore := func() {
		// Restore in reverse; settors run so aliased pairs (path/PATH)
		// stay consistent after the dynamic extent ends.
		for k := len(saves) - 1; k >= 0; k-- {
			s := saves[k]
			if !s.defined {
				i.SetVarRaw(s.name, nil)
				continue
			}
			if err := i.SetVar(nt, s.name, s.value); err != nil {
				i.SetVarRaw(s.name, s.value)
			}
		}
	}
	bs := p.BindingsIn(in.Bindings)
	for k := range bs {
		b := &bs[k]
		name, err := i.execWordString(ctx, p, &p.Words[b.Name], env)
		if err != nil {
			restore()
			return nil, err
		}
		values, err := i.execWords(nt, p, b.Values, env)
		if err != nil {
			restore()
			return nil, err
		}
		if values == nil {
			values = List{}
		}
		oldVal := i.Var(name) // forces lazy decode so the restore is faithful
		saves = append(saves, saved{name: name, value: oldVal, defined: i.slot(name) != nil})
		if err := i.SetVar(nt, name, values); err != nil {
			restore()
			return nil, err
		}
	}
	res, err := i.execBody(nt, p, in, env)
	restore()
	return res, err
}

func (i *Interp) execFor(ctx *Ctx, p *compile.Program, in *compile.Instr, env *Binding) (List, error) {
	nt := ctx.NonTail()
	bs := p.BindingsIn(in.Bindings)
	names := make([]string, len(bs))
	values := make([]List, len(bs))
	n := 0
	for k := range bs {
		b := &bs[k]
		name, err := i.execWordString(ctx, p, &p.Words[b.Name], env)
		if err != nil {
			return nil, err
		}
		v, err := i.execWords(nt, p, b.Values, env)
		if err != nil {
			return nil, err
		}
		names[k], values[k] = name, v
		if len(v) > n {
			n = len(v)
		}
	}
	result := True()
	for iter := 0; iter < n; iter++ {
		inner := env
		for k := range names {
			var v List
			if iter < len(values[k]) {
				v = values[k][iter : iter+1 : iter+1]
			}
			i.Alloc.binding(1)
			inner = &Binding{Name: names[k], Value: v, Next: inner}
		}
		res, err := i.execBody(nt, p, in, inner)
		if err != nil {
			if e := AsException(err); e != nil && e.Name() == "break" {
				if len(e.Args) > 1 {
					return e.Args[1:], nil
				}
				return result, nil
			}
			return nil, err
		}
		result = res
	}
	return result, nil
}

// matcher finds the first subject a match's patterns match and, for ~~,
// the captures of the first pattern that matches it.  Patterns are tried
// in order, each only on the subjects before the best match so far, so
// no pattern list is built.
type matcher struct {
	subj    List
	extract bool     // ~~: keep the captures
	pats    int      // patterns tried
	first   int      // the first subject matched; len(subj) if none
	caps    []string // the captures of the match at first
}

// glob tries a glob pattern.
func (m *matcher) glob(pat glob.Pattern) {
	m.pats++
	for k := range m.subj[:m.first] {
		if !m.extract {
			if pat.Match(m.subj[k].String()) {
				m.first = k
				return
			}
		} else if caps, ok := pat.MatchCapture(m.subj[k].String()); ok {
			m.first, m.caps = k, caps
			return
		}
	}
}

// execMatch runs ~, or ~~ when extract is set: it evaluates the subject
// and then the patterns, the static patterns compile built or the
// pattern words, and tries each pattern.  Every pattern word is
// evaluated before the match is known, as each may run a command.
func (i *Interp) execMatch(ctx *Ctx, p *compile.Program, in *compile.Instr, env *Binding, extract bool) (List, error) {
	subj, err := i.execWordTerms(ctx, p, &p.Words[in.Word], env)
	if err != nil {
		return nil, err
	}
	m := matcher{subj: subj, extract: extract, first: len(subj)}
	if in.Pats.Set() {
		// Compile laid each primitive out as its $&name text.
		pats := p.PiecesIn(in.Pats)
		for k := range pats {
			m.glob(p.Pat(&pats[k]))
		}
	} else {
		ws := p.WordsIn(in.Words)
		for k := range ws {
			if err := i.matchWord(ctx, &m, p, &ws[k], env); err != nil {
				return nil, err
			}
		}
	}
	switch {
	case extract && m.first < len(subj):
		return StrList(m.caps...), nil
	case extract:
		return False(), nil
	case m.pats == 0:
		// With no patterns, match succeeds only for an empty subject.
		return Bool(len(subj) == 0), nil
	}
	return Bool(m.first < len(subj)), nil
}

// matchWord evaluates a compiled word as match patterns, with no
// filename expansion, and tries them.  Only a WordGlob word makes glob
// patterns, which keep quoting so quoted wildcards stay literal; the
// terms of any other dynamic word, closures by their unparsed form, are
// quoted patterns.
func (i *Interp) matchWord(ctx *Ctx, m *matcher, p *compile.Program, w *compile.Word, env *Binding) error {
	switch w.Kind {
	case compile.WordStatic:
		static := p.PiecesOf(w)
		for k := range static {
			m.glob(p.Pattern(&static[k]))
		}
		return nil
	case compile.WordGlob:
		pieces, err := i.appendWordPieces(ctx, nil, p, w, env)
		if err != nil {
			return err
		}
		for _, pc := range pieces {
			m.glob(pc.toPattern())
		}
		return nil
	}
	terms, err := i.appendWord(ctx, nil, p, w, env)
	if err != nil {
		return err
	}
	for k := range terms {
		m.glob(glob.NewLiteral(terms[k].String()))
	}
	return nil
}

// ---- word evaluation ----

// errAt raises an error exception with the message anchored to a known
// source position ("line:col: msg"); with an unknown position the message
// is unchanged.  Compiled words and segments carry their positions from
// the rewritten tree.
func errAt(pos syntax.Pos, msg string) error {
	if pos.Known() {
		return ErrorExc(pos.String() + ": " + msg)
	}
	return ErrorExc(msg)
}

// execWords evaluates a compiled word list to a term list, splicing list
// values and performing filename expansion on unquoted wildcards.  A list
// of several words starts at one term per word, so a list of one-term
// words is allocated once; a single word appends to nil, so a lone $var
// or <={…} hands back the value itself (see appendValue).
func (i *Interp) execWords(ctx *Ctx, p *compile.Program, s compile.Span, env *Binding) (List, error) {
	i.Alloc.list()
	ws := p.WordsIn(s)
	var out List
	if len(ws) > 1 {
		out = make(List, 0, len(ws))
	}
	var err error
	for k := range ws {
		out, err = i.appendWordTerms(ctx, out, p, &ws[k], env)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// execWordTerms evaluates one compiled word to terms (match subjects,
// subscript words).
func (i *Interp) execWordTerms(ctx *Ctx, p *compile.Program, w *compile.Word, env *Binding) (List, error) {
	i.Alloc.list()
	return i.appendWordTerms(ctx, nil, p, w, env)
}

// loneVarName is the variable a WordLoneVar word names.
func loneVarName(p *compile.Program, w *compile.Word) string {
	return p.Name(p.Segs[w.Span.Off].Ref)
}

// appendValue appends a value — a variable's, or a substitution's — to
// out.  Onto nothing it gives the value itself, capped at its length, so
// no term is copied and an append to the result copies instead of
// writing into the value.  That is safe because no list is written in
// place except by the ^ join in appendWord, which joins only after a later
// segment was appended, and that append copied.
func appendValue(out, value List) List {
	if out == nil {
		return value[:len(value):len(value)]
	}
	return append(out, value...)
}

// appendWordTerms appends one word's terms to out.
func (i *Interp) appendWordTerms(ctx *Ctx, out List, p *compile.Program, w *compile.Word, env *Binding) (List, error) {
	switch w.Kind {
	case compile.WordStatic:
		return i.appendStatic(out, p, p.PiecesOf(w)), nil
	case compile.WordLoneVar:
		// $name alone in a word: the value splices in unchanged (string
		// terms stay literal — variable values are not re-globbed — and
		// closure/primitive terms are preserved).
		value := lookupVar(i, env, loneVarName(p, w))
		i.Alloc.term(len(value))
		return appendValue(out, value), nil
	case compile.WordGlob:
		return i.appendGlobbed(ctx, out, p, w, env)
	}
	start := len(out)
	out, err := i.appendWord(ctx, out, p, w, env)
	if err != nil {
		return nil, err
	}
	// E4's trace counts each resulting term, and the bytes of each
	// resulting string, once the word is whole.
	for _, t := range out[start:] {
		i.Alloc.term(1)
		if t.Closure == nil && t.Prim == "" {
			i.Alloc.str(len(t.Str))
		}
	}
	return out, nil
}

// appendWord appends the terms of a word with no wildcard to out: each
// segment's terms in turn, each joined by ^ to the terms before it.
func (i *Interp) appendWord(ctx *Ctx, out List, p *compile.Program, w *compile.Word, env *Binding) (List, error) {
	start := len(out)
	segs := p.SegsOf(w)
	for k := range segs {
		mid := len(out)
		var err error
		if out, err = i.appendSeg(ctx, out, p, &segs[k], env); err != nil {
			return nil, err
		}
		if k > 0 {
			var ok bool
			if out, ok = compile.Concat(out, start, mid, joinTerms); !ok {
				return nil, errAt(w.Pos.Syntax(), "bad concatenation")
			}
		}
	}
	return out, nil
}

// joinTerms is ^ over two terms: a closure or primitive joins by its
// unparsed form, and the result is a string.
func joinTerms(x, y Term) Term { return Term{Str: x.String() + y.String()} }

// appendSeg appends one segment's terms to out.
func (i *Interp) appendSeg(ctx *Ctx, out List, p *compile.Program, s *compile.Seg, env *Binding) (List, error) {
	switch s.Kind {
	case compile.SegLit:
		return append(out, Term{Str: p.Str(p.Pieces[s.Ref].Text)}), nil
	case compile.SegVar:
		return i.appendVarSeg(ctx, out, p, s, env)
	case compile.SegPrim:
		return append(out, Term{Prim: p.Name(s.Ref)}), nil
	case compile.SegLambda:
		i.Alloc.closure()
		return append(out, Term{Closure: &Closure{Unit: &p.Units[s.Ref], Env: env}}), nil
	case compile.SegCmdSub:
		i.Alloc.closure()
		cl := &Closure{Unit: &p.Units[s.Ref], Env: env}
		res, err := i.CallHook(ctx.NonTail(), "%backquote", List{Term{Closure: cl}})
		if err != nil {
			return nil, err
		}
		// Substituted command output is not re-globbed (rc semantics).
		return appendValue(out, res), nil
	case compile.SegRetSub:
		res, err := i.execUnit(ctx.NonTail(), &p.Units[s.Ref], env)
		if err != nil {
			return nil, err
		}
		return appendValue(out, res), nil
	case compile.SegList:
		// The listed words have no wildcard either: nothing is globbed.
		ws := p.WordsIn(compile.Span{Off: s.Ref, Len: s.Ext})
		for k := range ws {
			w := &ws[k]
			if w.Kind == compile.WordStatic {
				static := p.PiecesOf(w)
				for j := range static {
					out = append(out, staticTerm(p, &static[j]))
				}
				continue
			}
			var err error
			if out, err = i.appendWord(ctx, out, p, w, env); err != nil {
				return nil, err
			}
		}
		return out, nil
	default:
		return nil, ErrorExc("unknown word part")
	}
}

func (i *Interp) appendVarSeg(ctx *Ctx, out List, p *compile.Program, s *compile.Seg, env *Binding) (List, error) {
	var ext *compile.VarExt
	if s.Ext >= 0 {
		ext = &p.Vars[s.Ext]
	}
	var name string
	if s.Ref >= 0 {
		name = p.Name(s.Ref)
	} else {
		var err error
		name, err = i.execWordString(ctx, p, &p.Words[ext.Name], env)
		if err != nil {
			return nil, err
		}
	}
	value := lookupVar(i, env, name)
	if s.Double {
		// $$x: the value of the variable(s) named by $x.
		var indirect List
		for _, t := range value {
			indirect = append(indirect, lookupVar(i, env, t.String())...)
		}
		value = indirect
	}
	if s.Count {
		return append(out, Term{Str: strconv.Itoa(len(value))}), nil
	}
	if ext != nil && ext.Index.Len > 0 {
		// The selected terms go straight onto out, which the first append
		// copies if it is a value.
		mark := len(out)
		ws := p.WordsIn(ext.Index)
		for k := range ws {
			idxs, err := i.execWordTerms(ctx, p, &ws[k], env)
			if err != nil {
				return nil, err
			}
			for _, it := range idxs {
				n, err := strconv.Atoi(it.String())
				if err != nil {
					return nil, errAt(ext.Pos.Syntax(), "bad subscript: "+it.String())
				}
				if n >= 1 && n <= len(value) {
					out = append(out, value[n-1])
				}
			}
		}
		if s.Flat && len(out) > mark {
			out = append(out[:mark], Term{Str: out[mark:].Flatten(" ")})
		}
		return out, nil
	}
	if s.Flat && len(value) > 0 {
		// $^name: the whole value as one space-joined word.
		return append(out, Term{Str: value.Flatten(" ")}), nil
	}
	// Variable values are not re-globbed (the rc rule: substitution does
	// not re-scan for metacharacters).
	return appendValue(out, value), nil
}

// staticTerm is the term a static piece of p stands for, unexpanded.
func staticTerm(p *compile.Program, sp *compile.StaticPiece) Term {
	if sp.Prim {
		return Term{Prim: p.Str(sp.Text)}
	}
	return Term{Str: p.Str(sp.Text)}
}

// appendStatic appends pre-evaluated pieces of p, expanding wildcards
// against the interpreter's current directory.
func (i *Interp) appendStatic(out List, p *compile.Program, static []compile.StaticPiece) List {
	for k := range static {
		sp := &static[k]
		if sp.Wild {
			if matches := glob.Expand(p.Pat(sp), i.dir); matches != nil {
				for _, m := range matches {
					out = append(out, Term{Str: m})
					i.Alloc.term(1)
				}
				continue
			}
		} else if !sp.Prim {
			i.Alloc.str(int(sp.Text.Len))
		}
		i.Alloc.term(1)
		out = append(out, staticTerm(p, sp))
	}
	return out
}

// execWordString evaluates a compiled word that must produce exactly one
// string (variable names, binding targets).  Names are never globbed.
func (i *Interp) execWordString(ctx *Ctx, p *compile.Program, w *compile.Word, env *Binding) (string, error) {
	switch w.Kind {
	case compile.WordStatic:
		// A static word is a name only as one plain piece; otherwise it
		// is a constant failure.
		if static := p.PiecesOf(w); len(static) == 1 && !static[0].Prim {
			return p.Str(static[0].Text), nil
		}
	case compile.WordGlob:
		pieces, err := i.appendWordPieces(ctx, nil, p, w, env)
		if err != nil {
			return "", err
		}
		if len(pieces) == 1 && pieces[0].term == nil {
			return pieces[0].pat.String(), nil
		}
	default:
		terms, err := i.appendWord(ctx, nil, p, w, env)
		if err != nil {
			return "", err
		}
		if len(terms) == 1 && terms[0].Closure == nil && terms[0].Prim == "" {
			return terms[0].Str, nil
		}
	}
	return "", errAt(w.Pos.Syntax(), "expected a single name")
}

// ---- words with unquoted wildcards ----

// piece is one term of a WordGlob word as it is concatenated: a pattern
// (a string with its quoting, pre-glob) or a non-string term (closure or
// primitive).
type piece struct {
	pat  glob.Pattern
	term *Term
}

func (p piece) toPattern() glob.Pattern {
	if p.term != nil {
		return glob.NewLiteral(p.term.String())
	}
	return p.pat
}

// appendGlobbed appends the terms of a WordGlob word to out, expanding
// each pattern with an unquoted wildcard against the directory.  A
// pattern that matches nothing stays as its text.
func (i *Interp) appendGlobbed(ctx *Ctx, out List, p *compile.Program, w *compile.Word, env *Binding) (List, error) {
	pieces, err := i.appendWordPieces(ctx, nil, p, w, env)
	if err != nil {
		return nil, err
	}
	for _, pc := range pieces {
		if pc.term != nil {
			out = append(out, *pc.term)
			i.Alloc.term(1)
			continue
		}
		if pc.pat.HasWild() {
			if matches := glob.Expand(pc.pat, i.dir); matches != nil {
				for _, m := range matches {
					out = append(out, Term{Str: m})
					i.Alloc.term(1)
				}
				continue
			}
		}
		i.Alloc.term(1)
		i.Alloc.str(len(pc.pat.String()))
		out = append(out, Term{Str: pc.pat.String()})
	}
	return out, nil
}

// appendWordPieces appends the pieces of a word of a WordGlob word — the
// word itself, or one it lists — to out, as appendWord appends terms.
func (i *Interp) appendWordPieces(ctx *Ctx, out []piece, p *compile.Program, w *compile.Word, env *Binding) ([]piece, error) {
	if w.Kind == compile.WordStatic {
		static := p.PiecesOf(w)
		for k := range static {
			if sp := &static[k]; sp.Prim {
				out = append(out, piece{term: &Term{Prim: p.Str(sp.Text)}})
			} else {
				out = append(out, piece{pat: p.Pat(sp)})
			}
		}
		return out, nil
	}
	start := len(out)
	segs := p.SegsOf(w)
	for k := range segs {
		mid := len(out)
		var err error
		if out, err = i.appendSegPieces(ctx, out, p, &segs[k], env); err != nil {
			return nil, err
		}
		if k > 0 {
			var ok bool
			if out, ok = compile.Concat(out, start, mid, joinPieces); !ok {
				return nil, errAt(w.Pos.Syntax(), "bad concatenation")
			}
		}
	}
	return out, nil
}

// joinPieces is ^ over two pieces: the patterns join with their quoting.
func joinPieces(x, y piece) piece {
	return piece{pat: glob.Concat(x.toPattern(), y.toPattern())}
}

// appendSegPieces appends one segment's pieces to out.  Only a literal
// may be magic; every other segment's terms are quoted (substitution does
// not re-scan for wildcards, the rc rule), so they come from the term
// path.
func (i *Interp) appendSegPieces(ctx *Ctx, out []piece, p *compile.Program, s *compile.Seg, env *Binding) ([]piece, error) {
	switch s.Kind {
	case compile.SegLit:
		return append(out, piece{pat: p.Pat(&p.Pieces[s.Ref])}), nil
	case compile.SegList:
		ws := p.WordsIn(compile.Span{Off: s.Ref, Len: s.Ext})
		for k := range ws {
			var err error
			if out, err = i.appendWordPieces(ctx, out, p, &ws[k], env); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	terms, err := i.appendSeg(ctx, nil, p, s, env)
	if err != nil {
		return nil, err
	}
	for k := range terms {
		if t := &terms[k]; t.Closure != nil || t.Prim != "" {
			out = append(out, piece{term: t})
		} else {
			out = append(out, piece{pat: glob.NewLiteral(t.Str)})
		}
	}
	return out, nil
}
