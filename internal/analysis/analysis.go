// Package analysis is a static analyzer for es scripts.  It walks the
// rewritten core trees (the same representation the evaluator and the
// bytecode compiler consume) and produces position-carrying diagnostics:
//
//	file:line:col: [CODE] message
//
// Four passes run in one walk:
//
//   - reference analysis: free-variable detection that tracks lambda
//     binders and let/local/for scopes, with a distinct "dynamic-only"
//     class for names that are only ever bound via local;
//   - hook & primitive resolution: every %hook call and $&prim reference
//     is checked against the live registry (an Env snapshot), catching
//     typo'd spoofs that would otherwise silently never fire;
//   - dead code & structure lint: unreachable commands after
//     throw/return/exit/break, empty binding-form bodies, if-arity
//     mistakes, unused let bindings, shadowing;
//   - effect summary: the set of hooks, primitives, and external commands
//     a script can reach, bucketed into coarse capability categories.
//
// Analysis is best-effort and purely advisory: es is a dynamic language
// (undefined variables legally evaluate to the empty list, names can be
// computed at runtime), so most findings are warnings.  Only parse
// failures and references to unregistered %hooks/$&primitives are errors.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"es/internal/core"
	"es/internal/syntax"
)

// Severity classifies a diagnostic.
type Severity int

const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	default:
		return "info"
	}
}

// Diagnostic codes.  Exxx are errors, Wxxx warnings, Ixxx informational.
const (
	CodeParse       = "E100" // script does not parse
	CodeUnknownPrim = "E101" // $&name not in the primitive registry
	CodeUnknownHook = "E102" // %name called but no such hook is defined
	CodeSpoofJunk   = "W103" // fn-%name defined but no such hook exists
	CodeUndefVar    = "W110" // reference to a never-defined variable
	CodeDynVar      = "W111" // variable only ever bound dynamically (local)
	CodeUnreachable = "W120" // command after throw/return/exit/break
	CodeEmptyBody   = "W121" // let/local/for with an empty body
	CodeIfArity     = "W122" // if with a condition but no branch
	CodeUnusedLet   = "W123" // let binding never referenced in its body
	CodeShadow      = "W124" // binding shadows an enclosing lexical binding
	CodeEmptyCond   = "I125" // while with an empty (always-true) condition
)

// Diagnostic is one finding, anchored to a source position when known.
type Diagnostic struct {
	File string     `json:"file,omitempty"`
	Pos  syntax.Pos `json:"pos"`
	Code string     `json:"code"`
	Sev  Severity   `json:"severity"`
	Msg  string     `json:"message"`
}

func (d Diagnostic) String() string {
	var b strings.Builder
	if d.File != "" {
		b.WriteString(d.File)
		b.WriteString(":")
	}
	if d.Pos.Known() {
		b.WriteString(d.Pos.String())
		b.WriteString(":")
	}
	if b.Len() > 0 {
		b.WriteString(" ")
	}
	fmt.Fprintf(&b, "[%s] %s", d.Code, d.Msg)
	return b.String()
}

// Options configures an analysis run.
type Options struct {
	// File names the script in diagnostics (optional).
	File string
	// Env is the registry snapshot to resolve %hooks, $&primitives, and
	// pre-defined variables against.  A nil Env skips registry-dependent
	// checks (E101/E102/W103) and treats no variables as pre-defined.
	Env *Env
}

// Env is a snapshot of the definitions a script will run against: the
// primitive registry, the builtin table, and the variables (including
// fn-… function bindings) present before the script starts.  Build one
// from a live interpreter with EnvFromInterp.
type Env struct {
	Prims    map[string]bool
	Builtins map[string]bool
	Vars     map[string]bool
}

// Result is the outcome of analyzing one script.
type Result struct {
	Diags   []Diagnostic `json:"diagnostics"`
	Effects Effects      `json:"effects"`
}

// Errors reports how many error-severity diagnostics the result holds.
func (r Result) Errors() int {
	n := 0
	for _, d := range r.Diags {
		if d.Sev == SevError {
			n++
		}
	}
	return n
}

// Filter returns only the diagnostics at or above min severity.
func (r Result) Filter(min Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Sev >= min {
			out = append(out, d)
		}
	}
	return out
}

// Analyze analyzes src as the evaluator parses it (core.ParseCommand).
// It neither lowers the program nor stores it in the parse cache, so a
// checked program that then runs on a cache miss is parsed again.  A
// parse failure yields a single E100 diagnostic rather than an error:
// the analyzer's contract is that every input produces a Result.
func Analyze(src string, opts Options) Result {
	b, err := core.ParseCommand(src)
	if err != nil {
		d := Diagnostic{File: opts.File, Code: CodeParse, Sev: SevError, Msg: err.Error()}
		if pe, ok := err.(*syntax.ParseError); ok {
			d.Pos = syntax.Pos{Line: pe.Line, Col: pe.Col}
			d.Msg = pe.Msg
		}
		return Result{Diags: []Diagnostic{d}}
	}
	c := &checker{
		file:     opts.File,
		env:      opts.Env,
		globals:  map[string]bool{},
		dynNames: map[string]bool{},
		effects:  newEffectSet(),
	}
	syntax.Inspect(b, c.fact)
	c.walk(b, nil)
	sort.SliceStable(c.diags, func(i, j int) bool {
		a, b := c.diags[i], c.diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Code < b.Code
	})
	return Result{Diags: c.diags, Effects: c.effects.summary()}
}

// checker carries the walk state.
type checker struct {
	file     string
	env      *Env
	diags    []Diagnostic
	globals  map[string]bool // names assigned anywhere in the script
	dynNames map[string]bool // names bound by local anywhere in the script
	effects  *effectSet
}

func (c *checker) report(pos syntax.Pos, code string, sev Severity, format string, args ...interface{}) {
	c.diags = append(c.diags, Diagnostic{
		File: c.file, Pos: pos, Code: code, Sev: sev,
		Msg: fmt.Sprintf(format, args...),
	})
}

// scope is one lexical frame: lambda params, let/for/local bindings.
type scope struct {
	parent *scope
	names  map[string]*binder
}

type binder struct {
	pos        syntax.Pos
	used       bool
	warnUnused bool
}

func (s *scope) lookup(name string) *binder {
	for sc := s; sc != nil; sc = sc.parent {
		if b, ok := sc.names[name]; ok {
			return b
		}
	}
	return nil
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, names: map[string]*binder{}}
}

// fact collects the flow-insensitive facts, over the whole tree before
// the check: every literal assignment target (es assignments are global
// unless lexically shadowed, even inside closures) and every literal
// local-bound name.
func (c *checker) fact(n any) bool {
	switch n := n.(type) {
	case *syntax.Assign:
		if name, ok := n.Name.LitText(); ok {
			c.globals[name] = true
		}
	case *syntax.Bind:
		if n.Kind != syntax.BindLocal {
			break
		}
		for _, b := range n.Bindings {
			if name, ok := b.Name.LitText(); ok {
				c.dynNames[name] = true
			}
		}
	}
	return true
}

// terminal heads: commands after one of these in the same block can
// never run.
var terminalHeads = map[string]bool{
	"throw": true, "return": true, "exit": true, "break": true,
}

func isTerminal(cmd syntax.Cmd) bool {
	s, ok := cmd.(*syntax.Simple)
	if !ok || len(s.Words) == 0 {
		return false
	}
	if name, ok := s.Words[0].LitText(); ok {
		return terminalHeads[name]
	}
	if len(s.Words[0].Parts) == 1 {
		if pr, ok := s.Words[0].Parts[0].(*syntax.Prim); ok {
			return terminalHeads[pr.Name]
		}
	}
	return false
}

// walk checks the core tree under n, the only form ParseCommand makes,
// in scope sc.
func (c *checker) walk(n any, sc *scope) {
	syntax.Inspect(n, func(n any) bool { return c.check(n, sc) })
}

// check is the checker's visitor: it checks node n in scope sc.  Binding
// forms and lambdas open scopes, so it walks their children itself.
func (c *checker) check(n any, sc *scope) bool {
	switch n := n.(type) {
	case *syntax.Block:
		// Report the first dead command of a block once; the walk still
		// checks the dead commands, which may hold more findings.
		for i := 0; i+1 < len(n.Cmds); i++ {
			if sub := n.Cmds[i]; isTerminal(sub) {
				head, _ := terminalName(sub)
				c.report(bestPos(syntax.CmdPos(n.Cmds[i+1]), syntax.CmdPos(sub)), CodeUnreachable, SevWarning,
					"unreachable command: preceding %s always transfers control", head)
				break
			}
		}
	case *syntax.Simple:
		if len(n.Words) > 0 {
			if name, ok := n.Words[0].LitText(); ok {
				c.checkHead(name, n.Words[0].Pos, len(n.Words)-1, n, sc)
			}
		}
	case *syntax.Assign:
		c.checkAssign(n)
	case *syntax.Bind:
		c.walkBindingForm(n, sc)
		return false
	case *syntax.Var:
		c.checkVar(n, sc)
	case *syntax.Prim:
		if c.env != nil && !c.env.Prims[n.Name] {
			c.report(n.Pos, CodeUnknownPrim, SevError,
				"reference to unregistered primitive $&%s", n.Name)
		}
		c.effects.addPrim(n.Name)
	case *syntax.LambdaPart:
		c.walkLambda(n.Lambda, sc)
		return false
	}
	return true
}

func terminalName(cmd syntax.Cmd) (string, bool) {
	s, ok := cmd.(*syntax.Simple)
	if !ok || len(s.Words) == 0 {
		return "", false
	}
	return s.Words[0].LitText()
}

func bestPos(p, fallback syntax.Pos) syntax.Pos {
	if p.Known() {
		return p
	}
	return fallback
}

// checkHead resolves a literal command head: hooks against the registry,
// structure lint for the control builtins, and the effect summary.
func (c *checker) checkHead(name string, pos syntax.Pos, nargs int, n *syntax.Simple, sc *scope) {
	if strings.HasPrefix(name, "%") {
		if !c.hookKnown(name, sc) {
			c.report(pos, CodeUnknownHook, SevError,
				"call to undefined hook %s (no fn-%s anywhere in scope)", name, name)
		}
		c.effects.addHook(name)
		return
	}
	switch name {
	case "if":
		if nargs == 1 {
			c.report(pos, CodeIfArity, SevWarning,
				"if with a condition but no branch: the condition's value is the result")
		}
	case "while", "forever":
		if name == "while" && nargs >= 1 {
			if l := lambdaArg(n.Words[1]); l != nil && emptyBody(l.Body) {
				c.report(pos, CodeEmptyCond, SevInfo,
					"while with an empty condition loops until an exception (break, signal, deadline)")
			}
		}
	}
	c.effects.addHead(name, c.headKnown(name, sc))
}

// hookKnown reports whether %name resolves to a function: a lexical or
// script-level fn-%name binding, or one in the ambient environment.
func (c *checker) hookKnown(name string, sc *scope) bool {
	fn := "fn-" + name
	if sc != nil && sc.lookup(fn) != nil {
		return true
	}
	if c.globals[fn] {
		return true
	}
	return c.env != nil && c.env.Vars[fn]
}

// headKnown reports whether a non-hook head resolves to anything other
// than an external command on $path.
func (c *checker) headKnown(name string, sc *scope) bool {
	fn := "fn-" + name
	if sc != nil && sc.lookup(fn) != nil {
		return true
	}
	if c.globals[fn] {
		return true
	}
	if c.env == nil {
		return false
	}
	return c.env.Vars[fn] || c.env.Builtins[name]
}

// checkAssign reports the spoof of a hook: fine if the hook exists (the
// whole point of the architecture), suspicious if nothing will ever call
// it.
func (c *checker) checkAssign(n *syntax.Assign) {
	name, ok := n.Name.LitText()
	hook := strings.TrimPrefix(name, "fn-")
	if ok && hook != name && strings.HasPrefix(hook, "%") &&
		c.env != nil && !c.env.Vars[name] && !knownHookName(hook) {
		c.report(bestPos(n.Name.Pos, n.Pos), CodeSpoofJunk, SevWarning,
			"definition of unknown hook %s: nothing dispatches through it (typo?)", hook)
	}
}

// walkBindingForm checks a let, local or for, whose body runs in a scope
// of its own.  The evaluator binds a let's or local's bindings one by
// one: the values of each see the bindings before it, and so do a local's
// names, since it sets each variable before it evaluates the next name.
// A let's names evaluate in the outer scope, and for evaluates every name
// and value before it binds any.
func (c *checker) walkBindingForm(n *syntax.Bind, sc *scope) {
	inner := newScope(sc)
	names, values := sc, inner
	switch n.Kind {
	case syntax.BindLocal:
		names = inner
	case syntax.BindFor:
		values = sc
	}
	let := n.Kind == syntax.BindLet
	for _, b := range n.Bindings {
		c.walk(b.Name, names)
		for _, w := range b.Values {
			c.walk(w, values)
		}
		name, ok := b.Name.LitText()
		if !ok {
			continue
		}
		if name != "*" && name != "0" && sc != nil {
			if outer := sc.lookup(name); outer != nil {
				c.report(bestPos(b.Name.Pos, n.Pos), CodeShadow, SevWarning,
					"%s binding of %s shadows an enclosing binding at %s", n.Kind, name, outer.pos)
			}
		}
		inner.names[name] = &binder{pos: bestPos(b.Name.Pos, n.Pos), warnUnused: let}
	}
	if emptyBody(n.Body) {
		c.report(n.Pos, CodeEmptyBody, SevWarning, "%s with an empty body", n.Kind)
	}
	c.walk(n.Body, inner)
	if let && !subtreeDynamic(n.Body) {
		for name, b := range inner.names {
			if !b.used && b.warnUnused {
				c.report(b.pos, CodeUnusedLet, SevWarning,
					"let binding %s is never used in its body", name)
			}
		}
	}
}

func emptyBody(body syntax.Cmd) bool {
	switch b := body.(type) {
	case nil:
		return true
	case *syntax.Block:
		return len(b.Cmds) == 0
	case *syntax.Simple:
		// A literal {} body parses as a Simple invoking an empty
		// parameterless brace-lambda.
		if len(b.Words) == 1 {
			if l := lambdaArg(b.Words[0]); l != nil && !l.HasParams && l.Body != nil && len(l.Body.Cmds) == 0 {
				return true
			}
		}
	}
	return false
}

func lambdaArg(w *syntax.Word) *syntax.Lambda {
	if w == nil || len(w.Parts) != 1 {
		return nil
	}
	lp, ok := w.Parts[0].(*syntax.LambdaPart)
	if !ok {
		return nil
	}
	return lp.Lambda
}

func (c *checker) walkLambda(l *syntax.Lambda, sc *scope) {
	if l == nil {
		return
	}
	inner := newScope(sc)
	for _, param := range l.Params {
		inner.names[param] = &binder{pos: l.Pos}
	}
	// Every lambda binds * (to its arguments when no parameter list is
	// declared, and it remains visible regardless).
	inner.names["*"] = &binder{pos: l.Pos}
	c.walk(l.Body, inner)
}

// checkVar resolves a variable reference.  A computed name like
// $(fn-$cmd) is not resolved; the walk checks its parts.
func (c *checker) checkVar(v *syntax.Var, sc *scope) {
	name, ok := v.Name.LitText()
	if !ok {
		return
	}
	if sc != nil {
		if b := sc.lookup(name); b != nil {
			b.used = true
			return
		}
	}
	if c.globals[name] || alwaysDefined(name) {
		return
	}
	if c.env != nil && c.env.Vars[name] {
		return
	}
	if c.dynNames[name] {
		c.report(v.Pos, CodeDynVar, SevWarning,
			"%s is only bound dynamically (via local); empty unless a caller binds it", name)
		return
	}
	c.report(v.Pos, CodeUndefVar, SevWarning,
		"reference to undefined variable %s (evaluates to the empty list)", name)
}

// alwaysDefined lists names the evaluator itself guarantees: the argument
// list, the program name, positional parameters, and pid.
func alwaysDefined(name string) bool {
	switch name {
	case "*", "0", "apid", "apids":
		return true
	}
	if name == "" {
		return false
	}
	for _, r := range name {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// subtreeDynamic reports whether a subtree uses facilities that defeat
// static reference tracking: computed variable names, eval/dot, or the
// vars/var introspection services.  Unused-binding warnings are
// suppressed in such scopes.
func subtreeDynamic(cmd syntax.Cmd) bool {
	found := false
	syntax.Inspect(cmd, func(n any) bool {
		switch n := n.(type) {
		case *syntax.Var:
			if _, ok := n.Name.LitText(); !ok {
				found = true
			}
		case *syntax.Simple:
			if len(n.Words) > 0 {
				switch name, _ := n.Words[0].LitText(); name {
				case "eval", ".", "vars", "var":
					found = true
				}
			}
		}
		return !found
	})
	return found
}
