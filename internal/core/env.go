package core

import (
	"maps"
	"sort"
	"strings"

	"es/internal/cache"
	"es/internal/compile"
	"es/internal/syntax"
)

// Environment encoding.  "A fair amount of es must be devoted to
// 'unparsing' function definitions so that they may be passed as
// environment strings.  This is complicated a bit more because the lexical
// environment of a function definition must be preserved at unparsing":
//
//	es> let (a=b) fn foo {echo $a}
//	es> whatis foo
//	%closure(a=b)@ * {echo $a}
//
// Lists are joined with \001 (the traditional es separator); closures
// carry their captured free variables in the %closure(...) prefix.

const listSep = "\001"

// EncodeValue renders a variable value as a single environment string.
func EncodeValue(l List) string {
	parts := make([]string, len(l))
	for k, t := range l {
		parts[k] = EncodeTerm(t)
	}
	return strings.Join(parts, listSep)
}

// EncodeTerm renders one term: closures get the %closure form.
func EncodeTerm(t Term) string {
	if t.Closure != nil {
		return EncodeClosure(t.Closure)
	}
	if t.Prim != "" {
		return "$&" + t.Prim
	}
	return t.Str
}

// EncodeClosure unparses a closure, making its captured lexical bindings
// explicit.  Functions with no named parameters use "*" for binding
// arguments, "for cultural compatibility with other shells".
func EncodeClosure(c *Closure) string {
	var b strings.Builder
	caps := captures(c)
	if len(caps) > 0 {
		b.WriteString("%closure(")
		for k, bind := range caps {
			if k > 0 {
				b.WriteByte(';')
			}
			b.WriteString(bind.Name)
			b.WriteByte('=')
			for j, t := range bind.Value {
				if j > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(encodeBindingTerm(t))
			}
		}
		b.WriteString(")")
	}
	if params, ok := c.params(); ok {
		b.WriteString("@ ")
		for _, p := range params {
			b.WriteString(p)
			b.WriteByte(' ')
		}
	} else {
		b.WriteString("@ * ")
	}
	b.WriteByte('{')
	b.WriteString(syntax.UnparseBody(c.Unit.Tree()))
	b.WriteByte('}')
	return b.String()
}

// encodeBindingTerm renders a captured value so it re-parses as one word.
func encodeBindingTerm(t Term) string {
	if t.Closure != nil {
		return EncodeClosure(t.Closure)
	}
	if t.Prim != "" {
		return "$&" + t.Prim
	}
	return syntax.QuoteString(t.Str)
}

// captures returns the bindings of the closure's environment that its
// body actually references, innermost first, deduplicated by name.
func captures(c *Closure) []*Binding {
	if c.Env == nil {
		return nil
	}
	free := make(map[string]bool)
	all := freeVars(c.Unit.Tree(), paramSet(c), free)
	var out []*Binding
	seen := make(map[string]bool)
	for b := c.Env; b != nil; b = b.Next {
		if seen[b.Name] {
			continue
		}
		if all || free[b.Name] {
			seen[b.Name] = true
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func paramSet(c *Closure) map[string]bool {
	bound := map[string]bool{"*": true} // $* is always application-bound
	params, _ := c.params()
	for _, p := range params {
		bound[p] = true
	}
	return bound
}

// freeVars adds to free the names the tree under n reads or assigns that
// bound does not hold.  It returns true if a computed name, a $$
// indirection or a surface node makes the free set unknowable, in which
// case everything must be captured.  Binding forms and lambdas open
// scopes: let and for bind their names around the body, local binds none
// lexically, and a lambda binds its parameters, or * without them.  The
// values of a let or local binding see the bindings before it; for's see
// none.
func freeVars(n any, bound, free map[string]bool) bool {
	all := false
	scan := func(n any, bound map[string]bool) { all = all || freeVars(n, bound, free) }
	syntax.Inspect(n, func(n any) bool {
		if all {
			return false
		}
		switch n := n.(type) {
		case *syntax.Var:
			name, ok := n.Name.LitText()
			if !ok || n.Double {
				all = true
			} else if !bound[name] {
				free[name] = true
			}
		case *syntax.Assign:
			if name, ok := n.Name.LitText(); !ok {
				all = true
			} else if !bound[name] {
				free[name] = true
			}
		case *syntax.Bind:
			lexical := n.Kind != syntax.BindLocal
			inner := bound
			if lexical {
				inner = maps.Clone(bound)
			}
			values := inner
			if n.Kind == syntax.BindFor {
				values = bound
			}
			for _, b := range n.Bindings {
				for _, w := range b.Values {
					scan(w, values)
				}
				if name, ok := b.Name.LitText(); !ok {
					all = true
				} else if lexical {
					inner[name] = true
				}
			}
			scan(n.Body, inner)
			return false
		case *syntax.LambdaPart:
			inner := maps.Clone(bound)
			if n.Lambda.HasParams {
				for _, p := range n.Lambda.Params {
					inner[p] = true
				}
			} else {
				inner["*"] = true
			}
			scan(n.Lambda.Body, inner)
			return false
		case *syntax.Pipe, *syntax.AndOr, *syntax.Bg, *syntax.RedirCmd, *syntax.Fn:
			all = true
		}
		return !all
	})
	return all
}

// ExportEnv renders the exportable variables as environment strings.
// "Since nearly all shell state can now be encoded in the environment, it
// becomes superfluous for a new instance of es ... to run a configuration
// file."
func (i *Interp) ExportEnv() []string {
	out := make([]string, 0, len(i.base.slots)+len(i.over))
	for name, slot := range i.allVars {
		if slot.noexport || slot.phantom() {
			continue
		}
		if strings.ContainsAny(name, "=\000") {
			continue
		}
		if slot.lazy {
			// Never decoded: re-export the inherited string as-is.
			out = append(out, name+"="+slot.raw)
			continue
		}
		out = append(out, name+"="+EncodeValue(slot.value))
	}
	sort.Strings(out)
	return out
}

// ImportEnv loads environment strings into the variable table.  Values of
// fn- and set- variables (and any value in %closure/lambda form) are
// parsed back into closures; everything else imports as string lists.
func (i *Interp) ImportEnv(environ []string) {
	for _, kv := range environ {
		eq := strings.IndexByte(kv, '=')
		if eq <= 0 {
			continue
		}
		name, val := kv[:eq], kv[eq+1:]
		i.put(name, &varSlot{raw: val, lazy: true})
	}
}

// DecodeValue parses an environment string into a value list.
func (i *Interp) DecodeValue(name, val string) List {
	segs := strings.Split(val, listSep)
	out := make(List, 0, len(segs))
	code := strings.HasPrefix(name, "fn-") || strings.HasPrefix(name, "set-")
	for _, seg := range segs {
		if code || strings.HasPrefix(seg, "%closure(") {
			if t, ok := i.decodeTerm(seg); ok {
				out = append(out, t)
				continue
			}
		}
		out = append(out, Term{Str: seg})
	}
	return out
}

// decodedTerm is one memoized decode attempt (failures are deterministic
// and worth remembering too: they cost a parse attempt).
type decodedTerm struct {
	term Term
	ok   bool
}

// decodeCache memoizes decodeTerm by encoded segment.  Keys are
// content-addressed, so entries never go stale; the cache is process-wide
// because its payoff is across shells (every New with the same inherited
// environment re-decodes the same strings — the startup path the paper
// made lazy, now also made shared).
var decodeCache = cache.NewMap[decodedTerm]("decode", 1024)

// FlushDecodeCache drops every memoized environment decode.
func FlushDecodeCache() { decodeCache.Flush() }

// decodeTerm re-parses one encoded term, memoizing the result.  Closures
// with captured bindings are deep-copied both into and out of the cache:
// bindings are mutable (assignment to a captured variable updates them in
// place), so the cache's pristine copy is never handed to a caller and no
// two variables — or two shells — ever alias a cached *Binding chain.
func (i *Interp) decodeTerm(seg string) (Term, bool) {
	if d, ok := decodeCache.Get(seg); ok {
		return copyDecoded(d.term), d.ok
	}
	t, ok := i.decodeTermUncached(seg)
	decodeCache.Put(seg, decodedTerm{term: copyDecoded(t), ok: ok})
	return t, ok
}

// copyDecoded detaches a decoded term from shared mutable state.  Units
// are immutable and stay shared; only the captured binding chain is
// duplicated.
func copyDecoded(t Term) Term {
	if t.Closure != nil && t.Closure.Env != nil {
		var memo forkMemo
		t.Closure = copyClosure(t.Closure, &memo)
	}
	return t
}

// decodeTermUncached does the actual re-parse of one encoded term.
func (i *Interp) decodeTermUncached(seg string) (Term, bool) {
	var env *Binding
	rest := seg
	if strings.HasPrefix(seg, "%closure(") {
		inner, tail, ok := scanClosureHeader(seg[len("%closure("):])
		if !ok {
			return Term{}, false
		}
		env = i.decodeBindings(inner)
		rest = tail
	}
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "@") && !strings.HasPrefix(rest, "{") {
		if strings.HasPrefix(rest, "$&") {
			return Term{Prim: rest[2:]}, true
		}
		return Term{}, false
	}
	u := lambdaUnit(rest)
	if u == nil {
		return Term{}, false
	}
	return Term{Closure: &Closure{Unit: u, Env: env}}, true
}

// lambdaUnit lowers src and returns the unit of the one lambda it is
// made of, or nil when src is no lambda: one instruction, of one word, of
// one lambda segment.  A bare {…} lowers as grouping instead, one
// instruction with no unit of its own, so the text of its body becomes a
// program of its own.
func lambdaUnit(src string) *compile.Unit {
	u, err := CompileCommand(src)
	if err != nil {
		return nil
	}
	p := u.Prog
	if seq := p.Seq(u.Seq); len(seq) == 1 {
		switch in := &seq[0]; in.Op {
		case compile.OpSeq:
			body, _ := CompileCommand(src[1:strings.LastIndexByte(src, '}')]) // nil if it does not parse
			return body
		case compile.OpSimple:
			ws := p.WordsIn(in.Words)
			if len(ws) == 1 && ws[0].Kind != compile.WordStatic {
				if segs := p.SegsOf(&ws[0]); len(segs) == 1 && segs[0].Kind == compile.SegLambda {
					return &p.Units[segs[0].Ref]
				}
			}
		}
	}
	return nil
}

// scanClosureHeader splits "a=b;c=d)rest" at the parenthesis matching the
// %closure(, respecting quotes and nested parens/braces.
func scanClosureHeader(s string) (inner, rest string, ok bool) {
	depth := 1
	for k := 0; k < len(s); k++ {
		switch s[k] {
		case '\'':
			// skip quoted text ('' is an escaped quote)
			for k++; k < len(s); k++ {
				if s[k] == '\'' {
					if k+1 < len(s) && s[k+1] == '\'' {
						k++
						continue
					}
					break
				}
			}
		case '(', '{':
			depth++
		case '}':
			depth--
		case ')':
			depth--
			if depth == 0 {
				return s[:k], s[k+1:], true
			}
		}
	}
	return "", "", false
}

// decodeBindings parses the %closure binding list "a=b;c=d" into an
// environment chain.  The grammar is exactly what EncodeClosure emits —
// names, '=', and space-separated terms that are quoted strings, $&
// primitives, or (possibly %closure-prefixed) lambdas — so it is scanned
// by hand rather than through the surface parser: %closure(...) is an
// encoding form, not shell syntax, and routing the list through a
// synthetic `let` silently dropped the whole environment whenever a
// captured value was itself a closure with captures.
func (i *Interp) decodeBindings(inner string) *Binding {
	var env *Binding
	for _, bind := range splitOutside(inner, ';') {
		eq := strings.IndexByte(bind, '=')
		if eq <= 0 {
			continue
		}
		name := bind[:eq]
		var value List
		rest := bind[eq+1:]
		for {
			rest = strings.TrimLeft(rest, " ")
			if rest == "" {
				break
			}
			if rest[0] == '@' || strings.HasPrefix(rest, "%closure(") {
				if span, tail, ok := scanClosureTerm(rest); ok {
					if t, tok := i.decodeTerm(span); tok {
						value = append(value, t)
						rest = tail
						continue
					}
				}
			}
			var word string
			word, rest = scanWord(rest)
			if strings.HasPrefix(word, "$&") {
				value = append(value, Term{Prim: word[2:]})
				continue
			}
			value = append(value, Term{Str: unquoteWord(word)})
		}
		env = &Binding{Name: name, Value: value, Next: env}
	}
	return env
}

// splitOutside splits s at sep, ignoring separators inside quotes,
// parens, and braces.
func splitOutside(s string, sep byte) []string {
	if s == "" {
		return nil
	}
	var out []string
	depth, start := 0, 0
	for k := 0; k < len(s); k++ {
		switch s[k] {
		case '\'':
			k = skipQuoted(s, k)
		case '(', '{':
			depth++
		case ')', '}':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[start:k])
				start = k + 1
			}
		}
	}
	return append(out, s[start:])
}

// skipQuoted advances k from an opening quote at s[k] to its closing
// quote, returning the index of the close; a doubled quote inside is an
// escaped quote, not the close.
func skipQuoted(s string, k int) int {
	for k++; k < len(s); k++ {
		if s[k] == '\'' {
			if k+1 < len(s) && s[k+1] == '\'' {
				k++
				continue
			}
			break
		}
	}
	return k
}

// scanClosureTerm splits off one encoded closure term — an optional
// %closure(...) header followed by an @-lambda — from the front of s.
func scanClosureTerm(s string) (term, rest string, ok bool) {
	k := 0
	if strings.HasPrefix(s, "%closure(") {
		_, tail, hok := scanClosureHeader(s[len("%closure("):])
		if !hok {
			return "", "", false
		}
		k = len(s) - len(tail)
	}
	// After the header: "@ params... {body}"; the term ends at the brace
	// matching the body's opening one.
	depth, seenBrace := 0, false
	for ; k < len(s); k++ {
		switch s[k] {
		case '\'':
			k = skipQuoted(s, k)
		case '{', '(':
			depth++
			if s[k] == '{' {
				seenBrace = true
			}
		case '}', ')':
			depth--
			if depth == 0 && seenBrace && s[k] == '}' {
				return s[:k+1], s[k+1:], true
			}
		}
	}
	return "", "", false
}

// scanWord returns one space-delimited word (quote-aware) and the rest.
func scanWord(s string) (word, rest string) {
	for k := 0; k < len(s); k++ {
		switch s[k] {
		case '\'':
			k = skipQuoted(s, k)
		case ' ':
			return s[:k], s[k+1:]
		}
	}
	return s, ""
}

// unquoteWord reverses QuoteString: quoted segments lose their quotes,
// and a doubled quote inside one becomes a single quote.
func unquoteWord(w string) string {
	if !strings.ContainsRune(w, '\'') {
		return w
	}
	var b strings.Builder
	for k := 0; k < len(w); k++ {
		if w[k] != '\'' {
			b.WriteByte(w[k])
			continue
		}
		for k++; k < len(w); k++ {
			if w[k] == '\'' {
				if k+1 < len(w) && w[k+1] == '\'' {
					b.WriteByte('\'')
					k++
					continue
				}
				break
			}
			b.WriteByte(w[k])
		}
	}
	return b.String()
}
