// Package core implements the es interpreter: values, variables with
// settors, lexical and dynamic binding, exceptions, rich return values, and
// the evaluator with tail-call elimination.
//
// This is the paper's primary contribution: a shell in which program
// fragments are first-class values and every shell service is an ordinary
// function call.
package core

import (
	"strings"

	"es/internal/compile"
	"es/internal/syntax"
)

// Term is one element of an es list: a plain string, a closure (a program
// fragment with its captured lexical environment), or a reference to an
// unoverridable $&primitive.
type Term struct {
	Str     string
	Closure *Closure
	Prim    string // non-empty for $&name terms
}

// List is an es value: a flat list of terms.  "Lists are not hierarchical;
// that is, lists may not contain lists as elements."
type List []Term

// Closure is a procedure "waiting to happen": a compiled body plus the
// lexical environment captured at the point the lambda was evaluated.
// The unit holds the parameters; a unit that declares none, such as a
// substitution body or a parsed command, binds its arguments to *.
type Closure struct {
	Unit *compile.Unit
	Env  *Binding
}

// Binding is one link in a lexical environment chain.  Bindings are
// mutable: assignment to a lexically bound name updates the binding in
// place, which is how two closures over the same let share state.
type Binding struct {
	Name  string
	Value List
	Next  *Binding
}

// Lookup finds the innermost binding of name, or nil.
func (b *Binding) Lookup(name string) *Binding {
	for ; b != nil; b = b.Next {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// StrTerm makes a plain string term.
func StrTerm(s string) Term { return Term{Str: s} }

// StrList makes a list of plain string terms.
func StrList(ss ...string) List {
	l := make(List, len(ss))
	for i, s := range ss {
		l[i] = Term{Str: s}
	}
	return l
}

// IsClosure reports whether the term is a program fragment.
func (t Term) IsClosure() bool { return t.Closure != nil }

// String renders a term for output or for passing to an external program:
// closures unparse to their source form.
func (t Term) String() string {
	switch {
	case t.Closure != nil:
		params, ok := t.Closure.params()
		return syntax.UnparseLambda(&syntax.Lambda{Params: params, HasParams: ok, Body: t.Closure.Unit.Tree()})
	case t.Prim != "":
		return "$&" + t.Prim
	default:
		return t.Str
	}
}

// params returns the closure's parameters, and whether it declares a
// list at all: "@ {body}" declares an empty one, while a bare "{body}"
// fragment, or a unit that is no lambda's body, declares none and binds
// its arguments to *.
func (c *Closure) params() ([]string, bool) {
	u := c.Unit
	if !u.Params.Set() {
		return nil, false
	}
	ps := u.Prog.PiecesIn(u.Params)
	names := make([]string, len(ps))
	for k := range ps {
		names[k] = u.Prog.Str(ps[k].Text)
	}
	return names, true
}

// Strings flattens the list to plain strings (closures unparse).
func (l List) Strings() []string {
	out := make([]string, len(l))
	for i, t := range l {
		out[i] = t.String()
	}
	return out
}

// Flatten joins the list into a single string with sep, as %flatten does.
func (l List) Flatten(sep string) string {
	return strings.Join(l.Strings(), sep)
}

// True reports the es truth of a result: every term must be "" or "0".
// The empty list is true.  ("UNIX programs exit with a single number ...
// es supplants the notion of an exit status with rich return values";
// a status list is successful when all components report success.)
func (l List) True() bool {
	for _, t := range l {
		if t.Closure != nil || t.Prim != "" {
			return false
		}
		if t.Str != "" && t.Str != "0" {
			return false
		}
	}
	return true
}

// Bool converts a Go truth to the conventional es status list.
func Bool(ok bool) List {
	if ok {
		return True()
	}
	return False()
}

// trueList and falseList back True and False.  No list is written in
// place, and each result is capped at its length, so an append to one
// copies it.
var trueList, falseList = List{{Str: "0"}}, List{{Str: "1"}}

// True is the canonical success result: the list (0).
func True() List { return trueList[:1:1] }

// False is the canonical failure result: the list (1).
func False() List { return falseList[:1:1] }

// Equal reports deep equality of two lists (closures compare by pointer).
func (l List) Equal(m List) bool {
	if len(l) != len(m) {
		return false
	}
	for i := range l {
		if l[i].Str != m[i].Str || l[i].Closure != m[i].Closure || l[i].Prim != m[i].Prim {
			return false
		}
	}
	return true
}
