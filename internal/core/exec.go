package core

// The bytecode execution loop, the interpreter's one evaluator.
// EvalBlock routes every block through unitFor, which lowers the (shared,
// immutable) rewritten AST to the flat instruction form of
// internal/compile exactly once, process-wide, and caches it alongside
// the parse results.  Commands and words run here; closure application,
// the tail-call trampoline and cancellation polls are in eval.go.  The
// outcomes this loop must reproduce are pinned by
// testdata/engine_golden.json at the repository root.

import (
	"strconv"

	"es/internal/cache"
	"es/internal/compile"
	"es/internal/glob"
	"es/internal/syntax"
)

// compileCache memoizes compiled units by block identity, alongside the
// parse cache (which guarantees one shared *syntax.Block per source).
var compileCache = cache.NewKeyMap[*syntax.Block, *compile.Unit]("compile", 1024)

// FlushCompileCache drops every compiled unit (the $&recache escape
// hatch and the cold-start lever for benchmarks).
func FlushCompileCache() { compileCache.Flush() }

// unitFor returns the compiled unit for b, lowering and caching it on
// first use.  Every block, rewritten or not, has a unit.  Nested lambda
// and substitution bodies are registered as they are compiled, so
// closure application starts on compiled code.
func unitFor(b *syntax.Block) *compile.Unit {
	if u, ok := compileCache.Get(b); ok {
		return u
	}
	// Compilation is total: the error is always nil.
	u, _ := compile.Compile(b, func(sb *syntax.Block, su *compile.Unit) {
		compileCache.Put(sb, su)
	})
	compileCache.Put(b, u)
	return u
}

// execSeq evaluates a compiled command sequence; the result is the last
// command's result (the empty list — true — for an empty sequence).
// When ctx is a tail context the final command runs in tail position.
func (i *Interp) execSeq(ctx *Ctx, seq compile.Seq, env *Binding) (List, error) {
	if len(seq) == 0 {
		return List{}, nil
	}
	inner := ctx.NonTail()
	for k := range seq[:len(seq)-1] {
		i.Alloc.command()
		if _, err := i.execInstr(inner, &seq[k], env); err != nil {
			return nil, err
		}
	}
	i.Alloc.command()
	return i.execInstr(ctx, &seq[len(seq)-1], env)
}

// execBody evaluates a compiled body-position command (the body of let,
// local, for, !): one cancellation poll for the body as a command, then
// block bodies count their member command boundaries.
func (i *Interp) execBody(ctx *Ctx, b *compile.Body, env *Binding) (List, error) {
	if err := i.checkPending(); err != nil {
		return nil, err
	}
	if len(b.Seq) == 0 {
		return List{}, nil
	}
	if b.IsBlock {
		return i.execSeq(ctx, b.Seq, env)
	}
	return i.execInstr(ctx, &b.Seq[0], env)
}

func (i *Interp) execInstr(ctx *Ctx, in *compile.Instr, env *Binding) (List, error) {
	if err := i.checkPending(); err != nil {
		return nil, err
	}
	switch in.Op {
	case compile.OpNop:
		return List{}, nil
	case compile.OpSimple:
		return i.execSimple(ctx, in, env)
	case compile.OpGroup, compile.OpSeq:
		return i.execSeq(ctx, in.Seq, env)
	case compile.OpAssign:
		return i.execAssign(ctx, in, env)
	case compile.OpLet:
		return i.execLet(ctx, in, env)
	case compile.OpLocal:
		return i.execLocal(ctx, in, env)
	case compile.OpFor:
		return i.execFor(ctx, in, env)
	case compile.OpMatch:
		return i.execMatch(ctx, in, env)
	case compile.OpMatchExtract:
		return i.execMatchExtract(ctx, in, env)
	case compile.OpNot:
		res, err := i.execBody(ctx.NonTail(), &in.Body, env)
		if err != nil {
			return nil, err
		}
		return Bool(!res.True()), nil
	default:
		return nil, ErrorExc("internal: unknown opcode")
	}
}

func (i *Interp) execSimple(ctx *Ctx, in *compile.Instr, env *Binding) (List, error) {
	terms, err := i.execWords(ctx, &in.Words, env)
	if err != nil {
		return nil, err
	}
	if len(terms) == 0 {
		return List{}, nil
	}
	return i.applyTerm(ctx, env, terms[0], terms[1:])
}

// constList materializes a constant word list.  The elements are exact
// (compile proved the list environment- and filesystem-independent); the
// list is freshly allocated with no spare capacity so callers that
// append never write into a shared backing array.
func (i *Interp) constList(consts []compile.ConstTerm) List {
	i.Alloc.list()
	i.Alloc.term(len(consts))
	out := make(List, len(consts))
	for k := range consts {
		c := &consts[k]
		if c.Prim != "" {
			out[k] = Term{Prim: c.Prim}
		} else {
			out[k] = Term{Str: c.Str}
		}
	}
	return out
}

func (i *Interp) execAssign(ctx *Ctx, in *compile.Instr, env *Binding) (List, error) {
	name, err := i.execWordString(ctx, in.Name, env)
	if err != nil {
		return nil, err
	}
	values, err := i.execWords(ctx, &in.Values, env)
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

func (i *Interp) execLet(ctx *Ctx, in *compile.Instr, env *Binding) (List, error) {
	inner := env
	for k := range in.Bindings {
		b := &in.Bindings[k]
		name, err := i.execWordString(ctx, b.Name, env)
		if err != nil {
			return nil, err
		}
		values, err := i.execWords(ctx.NonTail(), &b.Values, inner)
		if err != nil {
			return nil, err
		}
		i.Alloc.binding(1)
		inner = &Binding{Name: name, Value: values, Next: inner}
	}
	return i.execBody(ctx, &in.Body, inner)
}

func (i *Interp) execLocal(ctx *Ctx, in *compile.Instr, env *Binding) (List, error) {
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
	for k := range in.Bindings {
		b := &in.Bindings[k]
		name, err := i.execWordString(ctx, b.Name, env)
		if err != nil {
			restore()
			return nil, err
		}
		values, err := i.execWords(nt, &b.Values, env)
		if err != nil {
			restore()
			return nil, err
		}
		if values == nil {
			values = List{}
		}
		oldVal := i.Var(name) // forces lazy decode so the restore is faithful
		_, defined := i.vars[name]
		saves = append(saves, saved{name: name, value: oldVal, defined: defined})
		if err := i.SetVar(nt, name, values); err != nil {
			restore()
			return nil, err
		}
	}
	res, err := i.execBody(nt, &in.Body, env)
	restore()
	return res, err
}

func (i *Interp) execFor(ctx *Ctx, in *compile.Instr, env *Binding) (List, error) {
	nt := ctx.NonTail()
	names := make([]string, len(in.Bindings))
	values := make([]List, len(in.Bindings))
	n := 0
	for k := range in.Bindings {
		b := &in.Bindings[k]
		name, err := i.execWordString(ctx, b.Name, env)
		if err != nil {
			return nil, err
		}
		v, err := i.execWords(nt, &b.Values, env)
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
				v = values[k][iter : iter+1]
			}
			i.Alloc.binding(1)
			inner = &Binding{Name: names[k], Value: v, Next: inner}
		}
		res, err := i.execBody(nt, &in.Body, inner)
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

func (i *Interp) execMatch(ctx *Ctx, in *compile.Instr, env *Binding) (List, error) {
	subj, err := i.execWordTerms(ctx, in.Subject, env)
	if err != nil {
		return nil, err
	}
	pats, err := i.execPats(ctx, &in.Pats, env)
	if err != nil {
		return nil, err
	}
	// With no patterns, match succeeds only for an empty subject.
	if len(pats) == 0 {
		return Bool(len(subj) == 0), nil
	}
	for _, s := range subj {
		str := s.String()
		for _, p := range pats {
			if p.Match(str) {
				return True(), nil
			}
		}
	}
	return False(), nil
}

func (i *Interp) execMatchExtract(ctx *Ctx, in *compile.Instr, env *Binding) (List, error) {
	subj, err := i.execWordTerms(ctx, in.Subject, env)
	if err != nil {
		return nil, err
	}
	pats, err := i.execPats(ctx, &in.Pats, env)
	if err != nil {
		return nil, err
	}
	for _, s := range subj {
		str := s.String()
		for _, p := range pats {
			if caps, ok := p.MatchCapture(str); ok {
				return StrList(caps...), nil
			}
		}
	}
	return False(), nil
}

func (i *Interp) execPats(ctx *Ctx, cp *compile.Pats, env *Binding) ([]glob.Pattern, error) {
	if cp.Static != nil {
		return cp.Static, nil
	}
	var pats []glob.Pattern
	for _, pw := range cp.Words {
		ps, err := i.execPatterns(ctx, pw, env)
		if err != nil {
			return nil, err
		}
		pats = append(pats, ps...)
	}
	return pats, nil
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

// piece is an intermediate word value: either a pattern (string with
// literal mask, pre-glob) or a non-string term (closure or primitive).
type piece struct {
	pat  glob.Pattern
	term *Term
}

func strPiece(p glob.Pattern) piece { return piece{pat: p} }

func (p piece) toPattern() glob.Pattern {
	if p.term != nil {
		return glob.NewLiteral(p.term.String())
	}
	return p.pat
}

// concatPieces implements list concatenation over pieces: pairwise for
// equal lengths, distributing for singletons.  pos anchors the error to
// the word being concatenated when the source position is known.
func concatPieces(pos syntax.Pos, a, b []piece) ([]piece, error) {
	join := func(x, y piece) piece {
		return strPiece(glob.Concat(x.toPattern(), y.toPattern()))
	}
	switch {
	case len(a) == 0 || len(b) == 0:
		return nil, errAt(pos, "bad concatenation")
	case len(a) == 1:
		out := make([]piece, len(b))
		for i := range b {
			out[i] = join(a[0], b[i])
		}
		return out, nil
	case len(b) == 1:
		out := make([]piece, len(a))
		for i := range a {
			out[i] = join(a[i], b[0])
		}
		return out, nil
	case len(a) == len(b):
		out := make([]piece, len(a))
		for i := range a {
			out[i] = join(a[i], b[i])
		}
		return out, nil
	default:
		return nil, errAt(pos, "bad concatenation")
	}
}

// termsToPieces converts substituted values — variable values, command
// and return-value substitutions — to pieces.  Their strings are literal:
// substitution does not re-scan for wildcards (the rc rule).
func termsToPieces(l List) []piece {
	out := make([]piece, len(l))
	for k := range l {
		t := l[k]
		if t.Closure != nil || t.Prim != "" {
			out[k] = piece{term: &t}
		} else {
			out[k] = strPiece(glob.NewLiteral(t.Str))
		}
	}
	return out
}

// execWords evaluates a compiled word list to a term list, splicing list
// values and performing filename expansion on unquoted wildcards.
func (i *Interp) execWords(ctx *Ctx, wl *compile.WordList, env *Binding) (List, error) {
	if wl.Const != nil {
		return i.constList(wl.Const), nil
	}
	i.Alloc.list()
	var out List
	var err error
	for _, w := range wl.Words {
		out, err = i.appendWordTerms(ctx, out, w, env)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// execWordTerms evaluates one compiled word to terms (match subjects,
// subscript words).
func (i *Interp) execWordTerms(ctx *Ctx, w *compile.Word, env *Binding) (List, error) {
	i.Alloc.list()
	return i.appendWordTerms(ctx, nil, w, env)
}

// appendWordTerms appends one word's terms to out, with the static and
// lone-$var fast paths.
func (i *Interp) appendWordTerms(ctx *Ctx, out List, w *compile.Word, env *Binding) (List, error) {
	if w.StaticSet {
		return i.appendStatic(out, w.Static), nil
	}
	if w.LoneVar {
		// $name alone in a word: the value splices in unchanged (string
		// terms stay literal — variable values are not re-globbed — and
		// closure/primitive terms are preserved), which is exactly what
		// piece conversion does, minus the pieces.
		value := lookupVar(i, env, w.Segs[0].NameLit)
		i.Alloc.term(len(value))
		return append(out, value...), nil
	}
	pieces, err := i.execWordPieces(ctx, w, env)
	if err != nil {
		return nil, err
	}
	for _, p := range pieces {
		if p.term != nil {
			out = append(out, *p.term)
			i.Alloc.term(1)
			continue
		}
		if p.pat.HasWild() {
			if matches := glob.Expand(p.pat, i.dir); matches != nil {
				for _, m := range matches {
					out = append(out, Term{Str: m})
					i.Alloc.term(1)
				}
				continue
			}
		}
		i.Alloc.term(1)
		i.Alloc.str(len(p.pat.String()))
		out = append(out, Term{Str: p.pat.String()})
	}
	return out, nil
}

// appendStatic appends pre-evaluated pieces, expanding wildcards against
// the interpreter's current directory.
func (i *Interp) appendStatic(out List, static []compile.StaticPiece) List {
	for k := range static {
		sp := &static[k]
		switch {
		case sp.Prim != "":
			i.Alloc.term(1)
			out = append(out, Term{Prim: sp.Prim})
		case sp.Wild:
			if matches := glob.Expand(sp.Pat, i.dir); matches != nil {
				for _, m := range matches {
					out = append(out, Term{Str: m})
					i.Alloc.term(1)
				}
				continue
			}
			i.Alloc.term(1)
			out = append(out, Term{Str: sp.Pat.String()})
		default:
			i.Alloc.term(1)
			i.Alloc.str(len(sp.Pat.String()))
			out = append(out, Term{Str: sp.Pat.String()})
		}
	}
	return out
}

// execPatterns evaluates a compiled word for use as a match pattern: no
// filename expansion; quoting data is preserved so quoted wildcards stay
// literal.
func (i *Interp) execPatterns(ctx *Ctx, w *compile.Word, env *Binding) ([]glob.Pattern, error) {
	if w.StaticSet {
		out := make([]glob.Pattern, len(w.Static))
		for k := range w.Static {
			out[k] = w.Static[k].Pattern()
		}
		return out, nil
	}
	if w.LoneVar {
		value := lookupVar(i, env, w.Segs[0].NameLit)
		out := make([]glob.Pattern, len(value))
		for k := range value {
			// Variable values match literally (closures unparse).
			out[k] = glob.NewLiteral(value[k].String())
		}
		return out, nil
	}
	pieces, err := i.execWordPieces(ctx, w, env)
	if err != nil {
		return nil, err
	}
	out := make([]glob.Pattern, len(pieces))
	for k, p := range pieces {
		out[k] = p.toPattern()
	}
	return out, nil
}

// execWordString evaluates a compiled word that must produce exactly one
// string (variable names, binding targets).
func (i *Interp) execWordString(ctx *Ctx, w *compile.Word, env *Binding) (string, error) {
	if w.LitNameSet {
		return w.LitName, nil
	}
	if w.StaticSet {
		// Static but not a single plain string: constant failure.
		return "", errAt(w.Pos, "expected a single name")
	}
	pieces, err := i.execWordPieces(ctx, w, env)
	if err != nil {
		return "", err
	}
	if len(pieces) != 1 || pieces[0].term != nil {
		return "", errAt(w.Pos, "expected a single name")
	}
	return pieces[0].pat.String(), nil
}

func (i *Interp) execWordPieces(ctx *Ctx, w *compile.Word, env *Binding) ([]piece, error) {
	if w.StaticSet {
		out := make([]piece, len(w.Static))
		for k := range w.Static {
			sp := &w.Static[k]
			if sp.Prim != "" {
				out[k] = piece{term: &Term{Prim: sp.Prim}}
			} else {
				out[k] = strPiece(sp.Pat)
			}
		}
		return out, nil
	}
	var acc []piece
	for k := range w.Segs {
		ps, err := i.execSeg(ctx, &w.Segs[k], env)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			acc = ps
			continue
		}
		acc, err = concatPieces(w.Pos, acc, ps)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

func (i *Interp) execSeg(ctx *Ctx, s *compile.Seg, env *Binding) ([]piece, error) {
	switch s.Kind {
	case compile.SegLit:
		return []piece{strPiece(s.Pat)}, nil
	case compile.SegVar:
		return i.execVarSeg(ctx, s, env)
	case compile.SegPrim:
		return []piece{{term: &Term{Prim: s.Prim}}}, nil
	case compile.SegLambda:
		i.Alloc.closure()
		cl := &Closure{
			Params:    s.Lambda.Params,
			HasParams: s.Lambda.HasParams,
			Body:      s.Lambda.Body,
			Env:       env,
		}
		return []piece{{term: &Term{Closure: cl}}}, nil
	case compile.SegCmdSub:
		i.Alloc.closure()
		cl := &Closure{Body: s.Block, Env: env}
		res, err := i.CallHook(ctx.NonTail(), "%backquote", List{Term{Closure: cl}})
		if err != nil {
			return nil, err
		}
		// Substituted command output is not re-globbed (rc semantics).
		return termsToPieces(res), nil
	case compile.SegRetSub:
		res, err := i.EvalBlock(ctx.NonTail(), s.Block, env)
		if err != nil {
			return nil, err
		}
		return termsToPieces(res), nil
	case compile.SegList:
		var out []piece
		for _, w := range s.Words {
			ps, err := i.execWordPieces(ctx, w, env)
			if err != nil {
				return nil, err
			}
			out = append(out, ps...)
		}
		return out, nil
	default:
		return nil, ErrorExc("unknown word part")
	}
}

func (i *Interp) execVarSeg(ctx *Ctx, s *compile.Seg, env *Binding) ([]piece, error) {
	name := s.NameLit
	if s.Name != nil {
		var err error
		name, err = i.execWordString(ctx, s.Name, env)
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
		return []piece{strPiece(glob.NewLiteral(strconv.Itoa(len(value))))}, nil
	}
	if len(s.Index) > 0 {
		var sel List
		for _, iw := range s.Index {
			idxs, err := i.execWordTerms(ctx, iw, env)
			if err != nil {
				return nil, err
			}
			for _, it := range idxs {
				n, err := strconv.Atoi(it.String())
				if err != nil {
					return nil, errAt(s.Pos, "bad subscript: "+it.String())
				}
				if n >= 1 && n <= len(value) {
					sel = append(sel, value[n-1])
				}
			}
		}
		value = sel
	}
	if s.Flat && len(value) > 0 {
		// $^name: the whole value as one space-joined word.
		value = List{Term{Str: value.Flatten(" ")}}
	}
	// Variable values are not re-globbed (the rc rule: substitution does
	// not re-scan for metacharacters).
	return termsToPieces(value), nil
}
